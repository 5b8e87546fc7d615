"""Closed-form solutions of the 3-sigma equations used by the paper.

Section 4.2 introduces ``η`` as the solution of ``(ηk − k)/√(ηk) = 3``
(Theorem 1) and Section 4.3 introduces ``ζ*`` and ``ζ_max`` as the solutions
of ``(ζ − k)/√ζ = 3`` and ``(ζ_max − ζ*)/√(ζ*) = 3`` (Theorem 3).  All three
equations have closed-form solutions via the quadratic formula; this module
exposes them so that every component (dynamic partitioner, TBUI, tests)
derives the constants in exactly one place.
"""

from __future__ import annotations

import math


def _solve_three_sigma(k: float) -> float:
    """Solve ``(x − k)/√x = 3`` for ``x ≥ k``.

    Substituting ``y = √x`` yields ``y² − 3y − k = 0`` whose positive root is
    ``y = (3 + √(9 + 4k)) / 2``.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    root = (3.0 + math.sqrt(9.0 + 4.0 * k)) / 2.0
    return root * root


def zeta_star(k: int) -> int:
    """``ζ*``: the smallest integer buffer size satisfying the 3-sigma rule.

    TBUI keeps a buffer of ``2ζ*`` high-score objects before refreshing the
    threshold ``τ`` (Algorithm 2 of the paper).
    """
    return int(math.ceil(_solve_three_sigma(k)))


def zeta_max(k: int) -> int:
    """``ζ_max``: upper bound on the number of objects above ``τ`` that still
    indicates a score distribution similar to the previous unit
    (Theorem 3)."""
    zs = zeta_star(k)
    return int(math.ceil(zs + 3.0 * math.sqrt(zs)))


def eta_for_k(k: int) -> float:
    """``η``: the over-sampling ratio of Theorem 1.

    ``η`` solves ``(ηk − k)/√(ηk) = 3``; equivalently ``ηk`` solves the same
    3-sigma equation as ``ζ*``, so ``η = ζ-solution / k``.  The value is
    always at least 1 and decreases towards 1 as ``k`` grows.
    """
    return _solve_three_sigma(k) / float(k)


def eta_k(k: int) -> int:
    """``⌈ηk⌉`` — the number of reference objects the dynamic partitioner
    compares against (the ``I_ηk`` set of Equation 2)."""
    return int(math.ceil(_solve_three_sigma(k)))
