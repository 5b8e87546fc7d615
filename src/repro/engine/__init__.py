"""Push-based execution facade: :class:`StreamEngine` and friends.

This package is the library's single execution path.  See
:mod:`repro.engine.engine` for the facade, :mod:`repro.engine.group` for
the shared multi-query plane (one :class:`QueryGroup` per window shape,
with cross-query sharing plans at ``k_max``), :mod:`repro.engine.spec` for
the query builder, and :mod:`repro.engine.subscription` for the per-query
handle.  The subscription/group bookkeeping lives in
:mod:`repro.engine.core` (:class:`EngineCore`), which the sharded
execution plane (:mod:`repro.cluster`) builds on as well.
"""

from .core import EngineCore
from .engine import StreamEngine
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
