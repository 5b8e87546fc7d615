"""Dominance and the k-skyband, straight from the definitions.

An object is dominated by every object that arrived no earlier and ranks
higher (Section 2.1 of the paper); the k-skyband holds the objects
dominated by fewer than ``k`` others.  The library's
:func:`~repro.stats.dominance.k_skyband` sweeps with an order-statistic
tree instead; the tests compare it against this module.
"""

from typing import Iterable, List, Sequence

from repro.core.object import StreamObject


def is_dominated_by(obj: StreamObject, other: StreamObject) -> bool:
    """True when ``other`` dominates ``obj`` (arrived no earlier, ranks higher)."""
    return obj.dominated_by(other)


def dominance_count(obj: StreamObject, others: Iterable[StreamObject]) -> int:
    """Number of objects in ``others`` that dominate ``obj``.

    This is ``D(o, O_W, W)`` from the paper, computed by brute force.
    """
    return sum(1 for other in others if obj.dominated_by(other))


def k_skyband_brute_force(objects: Sequence[StreamObject], k: int) -> List[StreamObject]:
    """Quadratic reference implementation of the k-skyband."""
    if k <= 0:
        return []
    result = [
        obj
        for obj in objects
        if dominance_count(obj, (o for o in objects if o is not obj)) < k
    ]
    result.sort(key=lambda o: o.t)
    return result
