"""The k-skyband of a set of objects (Section 2.1 of the paper).

SAP uses :func:`k_skyband` when it forms a meaningful set by a full scan.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.object import StreamObject
from ..structures.avl import AVLTree


def k_skyband(objects: Sequence[StreamObject], k: int) -> List[StreamObject]:
    """All k-skyband objects of ``objects`` (dominated by fewer than ``k``).

    The computation sweeps the objects from newest to oldest while keeping
    the already-seen objects in an order-statistic AVL tree, so each
    dominance count is an ``O(log n)`` rank query rather than a linear scan.
    The result preserves arrival order (oldest first).
    """
    if k <= 0:
        return []

    seen = AVLTree()
    skyband: List[StreamObject] = []
    for obj in sorted(objects, key=lambda o: o.t, reverse=True):
        dominators = seen.count_greater(obj.rank_key)
        if dominators < k:
            skyband.append(obj)
        seen.insert(obj.rank_key, obj)
    skyband.sort(key=lambda o: o.t)
    return skyband

