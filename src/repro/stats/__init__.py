"""Statistical substrates: the k-skyband and the Mann-Whitney rank test."""

from .mannwhitney import MannWhitneyResult, rank_sum, rank_sum_test, upper_critical_value
from .solvers import eta_for_k, zeta_star, zeta_max
from .dominance import k_skyband

__all__ = [
    "MannWhitneyResult",
    "rank_sum",
    "rank_sum_test",
    "upper_critical_value",
    "eta_for_k",
    "zeta_star",
    "zeta_max",
    "k_skyband",
]
