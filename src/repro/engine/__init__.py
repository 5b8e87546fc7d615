"""Push-based execution facade: :class:`StreamEngine` and friends.

This package is the library's single execution path.  See
:mod:`repro.engine.core` for the engine (:class:`StreamEngine`, also
exported as :class:`EngineCore`, which each shard worker of
:mod:`repro.cluster` hosts too), :mod:`repro.engine.group` for the shared
multi-query plane (one :class:`QueryGroup` per window shape, with
cross-query sharing plans at ``k_max``), :mod:`repro.engine.spec` for the
query builder, and :mod:`repro.engine.subscription` for the per-query
handle.
"""

from .core import EngineCore, StreamEngine
from .group import QueryGroup, group_key_for
from .spec import QuerySpec, resolve_query
from .subscription import ResultCallback, Subscription

__all__ = [
    "EngineCore",
    "StreamEngine",
    "QueryGroup",
    "group_key_for",
    "QuerySpec",
    "resolve_query",
    "Subscription",
    "ResultCallback",
]
