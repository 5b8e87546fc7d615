"""Span tracing from the benchmark's side of each layer boundary.

Nothing here edits the program: :meth:`Tracer.install` replaces public
methods and functions of ``repro`` with timing wrappers at run time,
inside the process that hosts the layer (the benchmark process, the
server started by ``serve_host.py``, or the durable child).  Every call
becomes a span (name, start, end, parent, root).  Self time -- a span's
duration minus the time its child spans cover -- is accumulated online
per span name, so the aggregate covers every call; raw spans are kept in
memory up to :data:`SPAN_CAP` per process and written out when the run
ends.

Spans nest per thread.  A coroutine (``read_request``) is timed by its
busy steps only, so time spent suspended on the socket is not charged to
the parser.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import types
from typing import Callable, Dict, List, Optional

#: Raw spans kept per process for the written trace (aggregates cover all).
SPAN_CAP = 50_000

#: Spans during which the caller is blocked on another process; they are
#: reported as ``wait_s`` instead of ``self_s``.
WAIT_SPANS = frozenset({"cluster.synchronize", "cluster.drain_results"})


def _count(row: str, measure: Callable) -> Callable:
    """A counter adding ``measure(result, args)`` to item row ``row``."""
    return lambda result, args: {row: measure(result, args)}


def _slides(result, args) -> Dict[str, int]:
    return {
        "core.window.slides.items": len(result),
        "core.window.expired.items": sum(len(e.expirations) for e in result),
    }


def _size(result, args) -> int:
    return len(result)


def _targets():
    """``(span name, owner, attribute, counter)`` of every timed call.

    ``owner`` is a class or a module.  ``counter`` optionally maps the
    call's result and arguments to item rows (slides, seals, bytes...)."""
    from repro.cluster.router import ShardRouter
    from repro.cluster.sharded import ShardedStreamEngine
    from repro.core import candidates, columnar, partition, state, window
    from repro.core.framework import SAPSharedPlan, SAPTopK
    from repro.durability.checkpoint import CheckpointStore
    from repro.durability.manager import DurabilityManager
    from repro.durability.wal import WriteAheadLog
    from repro.engine.core import EngineCore
    from repro.engine.group import QueryGroup
    from repro.partitioning.base import Partitioner
    from repro.partitioning.dynamic import DynamicPartitioner
    from repro.partitioning.equal import EqualPartitioner
    from repro.savl.amortized import AmortizedSAVLBuilder
    from repro.savl.savl import SAVL
    from repro.savl.segmented import SegmentedSAVL
    from repro.serve import ingest, protocol, sessions

    seals = _count("partitioning.seals.items", _size)
    return [
        ("engine.push_many", EngineCore, "push_many", None),
        ("engine.push_block", EngineCore, "push_block", None),
        ("engine.drain_results", EngineCore, "drain_results", None),
        ("engine.restore_subscription", EngineCore, "restore_subscription", None),
        ("engine.prime", QueryGroup, "prime", None),
        ("core.window.push_batch", window.SlideBatcher, "push_batch", _slides),
        ("core.window.push_block", window.SlideBatcher, "push_block", None),
        ("core.shared.prepare", SAPSharedPlan, "prepare", None),
        ("partitioning.observe", DynamicPartitioner, "observe", seals),
        ("partitioning.observe", EqualPartitioner, "observe", seals),
        ("partitioning.force_seal", Partitioner, "force_seal",
         _count("partitioning.forced_seals.items", lambda r, a: int(r is not None))),
        ("core.partition.build_partition", partition, "build_partition", None),
        ("core.columnar.topk_objects", columnar, "topk_objects", None),
        ("core.framework.process_slide", SAPTopK, "process_slide", None),
        ("core.framework.process_shared_slide", SAPTopK, "process_shared_slide", None),
        ("core.candidates.merge_partition_topk", candidates.CandidateSet,
         "merge_partition_topk", None),
        ("savl.build", SAVL, "build", None),
        ("savl.build_batched", SAVL, "build_batched", None),
        ("savl.segmented_init", SegmentedSAVL, "__init__", None),
        ("savl.advance", SegmentedSAVL, "advance", None),
        ("savl.amortized_step", AmortizedSAVLBuilder, "step", None),
        ("savl.pop_best", SAVL, "pop_best", None),
        ("savl.pop_best", SegmentedSAVL, "pop_best", None),
        ("core.columnar.encode_chunk", columnar, "encode_chunk",
         _count("core.columnar.encode_chunk.bytes", _size)),
        ("core.columnar.decode_chunk", columnar, "decode_chunk", None),
        ("core.columnar.from_objects", columnar.SlideBlock, "from_objects", None),
        ("core.columnar.to_objects", columnar.SlideBlock, "to_objects", None),
        ("core.state.capture_subscription", state, "capture_subscription", None),
        ("core.state.dumps", state, "dumps", _count("core.state.dumps.bytes", _size)),
        ("core.state.loads", state, "loads", None),
        ("durability.log_objects", DurabilityManager, "log_objects", None),
        ("durability.log_op", DurabilityManager, "log_op", None),
        ("durability.checkpoint", DurabilityManager, "checkpoint", None),
        ("durability.recover", DurabilityManager, "recover", None),
        ("durability.wal_append", WriteAheadLog, "append",
         _count("durability.wal_append.bytes", lambda r, a: len(a[-1]))),
        ("durability.wal_sync", WriteAheadLog, "sync", None),
        ("durability.wal_truncate", WriteAheadLog, "truncate", None),
        ("durability.checkpoint_write", CheckpointStore, "write", None),
        ("cluster.push_many", ShardedStreamEngine, "push_many", None),
        ("cluster.push_chunk", ShardRouter, "push_chunk", None),
        ("cluster.synchronize", ShardedStreamEngine, "synchronize", None),
        ("cluster.drain_results", ShardedStreamEngine, "drain_results", None),
        ("serve.read_request", protocol, "read_request", None),
        ("serve.request_json", protocol.HttpRequest, "json", None),
        ("serve.parse_event", ingest, "parse_event", None),
        ("serve.dedupe_admit", ingest.DedupeWindow, "admit",
         _count("serve.dedupe_admit.items", lambda r, a: int(bool(r)))),
        ("serve.take_aligned", ingest.IngestBatcher, "take_aligned",
         _count("serve.take_aligned.items", _size)),
        ("serve.take_all", ingest.IngestBatcher, "take_all",
         _count("serve.take_all.items", _size)),
        ("serve.dispatch", sessions.SessionRegistry, "dispatch",
         _count("serve.dispatch.items", lambda r, a: int(r))),
        ("serve.sse_event", protocol, "sse_event", None),
        ("serve.render_response", protocol, "render_response", None),
    ]


#: Item rows the counters above can fill, reported (0 when unused) by
#: every workload.
ITEM_ROWS = (
    "core.window.slides.items",
    "core.window.expired.items",
    "partitioning.seals.items",
    "partitioning.forced_seals.items",
    "core.columnar.encode_chunk.bytes",
    "core.state.dumps.bytes",
    "durability.wal_append.bytes",
    "serve.dedupe_admit.items",
    "serve.take_aligned.items",
    "serve.take_all.items",
    "serve.dispatch.items",
)

#: The benchmark's own result callback (the in-process answer consumer).
CALLBACK_SPAN = "engine.on_result"


def span_names() -> List[str]:
    """Every span name, in table order."""
    names: List[str] = []
    for name, *_ in _targets():
        if name not in names:
            names.append(name)
    names.append(CALLBACK_SPAN)
    return names


class Tracer:
    """Per-process span recorder with online self-time aggregation."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.items: Dict[str, int] = {}
        self.spans: List[tuple] = []
        self._restore: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, root = stack[-1][3], stack[-1][4]
        else:
            parent, root = -1, span_id
        # name, start, seconds covered by children, own id, root, parent
        frame = [name, time.perf_counter(), 0.0, span_id, root, parent]
        stack.append(frame)
        return frame

    def leave(self, frame: list, counts: Optional[Dict[str, int]] = None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, child = frame[0], frame[1], frame[2]
        duration = end - start
        if stack:
            stack[-1][2] += duration
        self._account(name, duration - child, counts)
        if len(self.spans) < SPAN_CAP:
            self.spans.append((name, start, end, frame[5], frame[4]))

    def record_leaf(self, name: str, start: float, seconds: float) -> None:
        """A span timed outside the stack discipline (coroutine steps)."""
        stack = self._stack()
        parent = root = -1
        if stack:
            stack[-1][2] += seconds
            parent, root = stack[-1][3], stack[-1][4]
        self._account(name, seconds, None)
        if len(self.spans) < SPAN_CAP:
            self.spans.append((name, start, start + seconds, parent, root))

    def _account(self, name: str, seconds: float,
                 counts: Optional[Dict[str, int]]) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + seconds
            if counts:
                for row, value in counts.items():
                    self.items[row] = self.items.get(row, 0) + value

    def reset(self) -> None:
        """Forget everything recorded so far (start of a measured phase)."""
        with self._lock:
            self.calls.clear()
            self.self_s.clear()
            self.items.clear()
            self.spans.clear()

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "items": dict(self.items),
            }

    # -- instrumentation -------------------------------------------------
    def wrap_callable(self, name: str, fn: Callable,
                      counter: Optional[Callable] = None) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_coroutine(*args, **kwargs):
                return await _drive(fn(*args, **kwargs), tracer, name)
            return traced_coroutine

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(result, args)
                return result
            finally:
                tracer.leave(frame, counts)
        return traced

    def install(self) -> None:
        """Wrap every call of :func:`_targets` in this process."""
        for name, owner, attr, counter in _targets():
            if isinstance(owner, type):
                self._wrap_method(name, owner, attr, counter)
            else:
                self._wrap_function(name, owner, attr, counter)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap_method(self, name, cls, attr, counter) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap_callable(name, raw.__func__, counter))
        else:
            wrapped = self.wrap_callable(name, raw, counter)
        setattr(cls, attr, wrapped)
        self._restore.append(lambda: setattr(cls, attr, raw))

    def _wrap_function(self, name, module, attr, counter) -> None:
        # ``from x import f`` copies the binding: rebind it in every
        # module of the package that holds this very function object.
        original = getattr(module, attr)
        wrapped = self.wrap_callable(name, original, counter)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append(
                        lambda mod=mod, key=key: setattr(mod, key, original)
                    )


@types.coroutine
def _drive(coro, tracer: Tracer, name: str):
    """Run ``coro`` step by step, charging only its busy steps to ``name``."""
    value, error = None, None
    busy = 0.0
    first = time.perf_counter()
    while True:
        step = time.perf_counter()
        try:
            yielded = coro.send(value) if error is None else coro.throw(error)
        except StopIteration as stop:
            tracer.record_leaf(name, first, busy + time.perf_counter() - step)
            return stop.value
        except BaseException:
            tracer.record_leaf(name, first, busy + time.perf_counter() - step)
            raise
        busy += time.perf_counter() - step
        try:
            value, error = (yield yielded), None
        except BaseException as exc:  # thrown into the awaiting task
            value, error = None, exc


def merge_aggregates(parts) -> Dict[str, Dict[str, float]]:
    """Sum the aggregates of several processes or phases."""
    merged: Dict[str, Dict[str, float]] = {"calls": {}, "self_s": {}, "items": {}}
    for part in parts:
        for key in merged:
            for name, value in (part or {}).get(key, {}).items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def per_layer_rows(aggregate: Dict[str, Dict[str, float]],
                   wall_s: float) -> Dict[str, float]:
    """``<span>.self_s`` (``wait_s`` for blocking spans) and ``.calls`` of
    every span name, the item rows, ``trace.wall_s``, and
    ``trace.unattributed_s = wall - sum of span self times``."""
    rows: Dict[str, float] = {}
    attributed = 0.0
    for name in span_names():
        seconds = aggregate["self_s"].get(name, 0.0)
        stat = "wait_s" if name in WAIT_SPANS else "self_s"
        rows[f"{name}.{stat}"] = seconds
        rows[f"{name}.calls"] = aggregate["calls"].get(name, 0)
        attributed += seconds
    for row in ITEM_ROWS:
        rows[row] = aggregate["items"].get(row, 0)
    rows["trace.wall_s"] = wall_s
    rows["trace.unattributed_s"] = wall_s - attributed
    return rows
