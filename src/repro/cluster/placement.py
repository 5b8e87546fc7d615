"""Placement policies: which shard a new subscription lands on.

The sharded engine asks its placement policy once per ``subscribe`` call.
Two built-in policies cover the two things worth optimising:

* :class:`HashWindowPlacement` (default) — deterministic hash of the
  query's *window shape* ``(n, s, window type)``.  Queries sharing a shape
  always land on the same shard, so they join one
  :class:`~repro.engine.group.QueryGroup` there and keep the ``k_max``
  shared execution plans of the multi-query plane; sharding never has to
  trade away intra-shape sharing.
* :class:`LeastLoadedPlacement` — the shard currently hosting the fewest
  subscriptions (weighted by slide rate, the per-object cost driver).
  Best when shapes are all distinct and spreading work matters more than
  co-locating shapes.

Policies are pure functions of ``(query, shard loads)`` — they never talk
to the workers — so custom policies are a three-line subclass away.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Dict, Sequence, Type, Union

from ..core.query import TopKQuery


class PlacementPolicy(ABC):
    """Decides the shard of a newly subscribed query."""

    #: Registry name used by :func:`make_placement` and the CLI.
    name: str = "placement"

    @abstractmethod
    def place(self, query: TopKQuery, loads: Sequence[float]) -> int:
        """Return the shard index (``0 <= index < len(loads)``) for
        ``query``.  ``loads`` is the current load score of every shard
        (see :meth:`load_of`), in shard order."""

    def load_of(self, query: TopKQuery) -> float:
        """Load contribution of one subscription, used to maintain the
        ``loads`` vector.  Slides per object (``1/s``) approximates the
        per-object work a query causes; time-based windows are charged a
        flat rate (their slide cadence is data-dependent)."""
        if query.time_based:
            return 1.0
        return 1.0 + 1.0 / query.s

    def place_preference(
        self, query: TopKQuery, cluster_id: int, loads: Sequence[float]
    ) -> int:
        """The shard of a preference-clustered subscription.

        The default — for *every* policy — hashes the cluster id, because
        a cluster's shared plan only exists on shards hosting at least two
        of its members: scattering a cluster across shards silently
        degrades every member to its private plan.  Policies that prefer
        spreading over sharing can override this.
        """
        if not loads:
            raise ValueError("no shards to place on")
        return zlib.crc32(f"cluster:{int(cluster_id)}".encode("ascii")) % len(loads)


class HashWindowPlacement(PlacementPolicy):
    """Deterministic window-shape hashing (preserves k_max plan sharing)."""

    name = "hash-window"

    def place(self, query: TopKQuery, loads: Sequence[float]) -> int:
        if not loads:
            raise ValueError("no shards to place on")
        shape = f"{query.n}:{query.s}:{int(query.time_based)}"
        # crc32, not hash(): stable across processes and interpreter runs,
        # so a restarted cluster reproduces the same placement.
        return zlib.crc32(shape.encode("ascii")) % len(loads)


class LeastLoadedPlacement(PlacementPolicy):
    """The shard with the smallest current load (ties: lowest index)."""

    name = "least-loaded"

    def place(self, query: TopKQuery, loads: Sequence[float]) -> int:
        if not loads:
            raise ValueError("no shards to place on")
        return min(range(len(loads)), key=lambda shard: (loads[shard], shard))


#: Built-in policies, keyed by the names the CLI exposes.
PLACEMENT_POLICIES: Dict[str, Type[PlacementPolicy]] = {
    HashWindowPlacement.name: HashWindowPlacement,
    LeastLoadedPlacement.name: LeastLoadedPlacement,
}


def make_placement(policy: Union[str, PlacementPolicy]) -> PlacementPolicy:
    """Resolve a policy name (or pass a ready instance through)."""
    if isinstance(policy, PlacementPolicy):
        return policy
    try:
        return PLACEMENT_POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown placement policy {policy!r}; "
            f"known: {sorted(PLACEMENT_POLICIES)}"
        ) from None
