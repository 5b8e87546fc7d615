"""Statistical substrates: dominance and the Mann-Whitney rank test."""

from .mannwhitney import MannWhitneyResult, rank_sum, rank_sum_test, upper_critical_value
from .solvers import eta_for_k, zeta_star, zeta_max
from .dominance import dominance_count, k_skyband, is_dominated_by

__all__ = [
    "MannWhitneyResult",
    "rank_sum",
    "rank_sum_test",
    "upper_critical_value",
    "eta_for_k",
    "zeta_star",
    "zeta_max",
    "dominance_count",
    "k_skyband",
    "is_dominated_by",
]
