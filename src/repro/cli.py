"""Command-line interface of the reproduction library.

The subcommand reference below is generated from the command registry
(:data:`COMMANDS`) at import time, so it always matches what the parser
actually provides — adding a command automatically documents it here.
"""

from __future__ import annotations

import argparse
import asyncio
import textwrap
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cluster import PLACEMENT_POLICIES, ShardedStreamEngine
from .core.interface import ContinuousTopKAlgorithm
from .core.query import TopKQuery
from .core.result import results_agree
from .engine import StreamEngine
from .registry import algorithm_factories, create_algorithm
from .serve import SLOW_CLIENT_POLICIES, ServeConfig, TopKServer
from .streams import dataset_names, make_dataset


def package_version() -> str:
    """The installed distribution's version, falling back to the source
    tree's ``repro.__version__`` when the package is not installed."""
    try:
        from importlib.metadata import version

        return version("repro-sap-topk")
    except Exception:
        from . import __version__

        return __version__

AlgorithmFactory = Callable[[TopKQuery], ContinuousTopKAlgorithm]

#: Algorithms addressable from the command line: every entry of the unified
#: registry (:mod:`repro.registry`).  Kept as a module attribute for
#: backward compatibility; algorithms registered after import time are
#: still resolved because the parser re-reads the registry.
CLI_ALGORITHMS: Dict[str, AlgorithmFactory] = algorithm_factories()


@dataclass(frozen=True)
class CliCommand:
    """One subcommand: parser wiring, handler, and its documentation.

    The module docstring's command reference is generated from these
    records, so the registry is the single source of truth for what the
    CLI provides.
    """

    name: str
    help: str
    doc: str
    configure: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


#: Flags shared verbatim by several subcommands.  Each entry is the one
#: definition (argparse names + kwargs); commands opt in with
#: :func:`_add_flags`, so a shared flag cannot drift in spelling, default,
#: or semantics between ``repro serve`` and ``repro shard``.
SHARED_FLAGS: Dict[str, Tuple[Tuple[str, ...], Dict[str, object]]] = {
    "durability-dir": (
        ("--durability-dir",),
        dict(
            default=None,
            metavar="DIR",
            help="durability journal directory (checkpoints + slide-"
            "granular write-ahead log); restarting with the same "
            "directory recovers the exact pre-crash state",
        ),
    ),
}


def _add_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Attach shared flags by registry name (one definition, no drift)."""
    for name in names:
        flags, kwargs = SHARED_FLAGS[name]
        sub.add_argument(*flags, **dict(kwargs))


def _add_common(sub: argparse.ArgumentParser, include_k: bool = True) -> None:
    """The dataset/query flags shared by the subcommands.  ``include_k``
    is off for commands that take their own multi-valued ``--k``."""
    sub.add_argument(
        "--dataset",
        default="TIMEU",
        choices=dataset_names(),
        help="built-in synthetic dataset to stream",
    )
    sub.add_argument("--objects", type=int, default=8000, help="stream length")
    sub.add_argument("--n", type=int, default=1000, help="window size")
    if include_k:
        sub.add_argument("--k", type=int, default=10, help="result size")
    sub.add_argument("--s", type=int, default=50, help="slide size")


def _query_from_args(args: argparse.Namespace) -> TopKQuery:
    return TopKQuery(n=args.n, k=args.k, s=args.s)


def _shift_stream(stream, offset: int):
    """Re-stamp a dataset's arrival order to continue a recovered clock."""
    if not offset:
        return stream
    from .core.object import StreamObject

    return [
        StreamObject(obj.score, obj.t + offset, payload=obj.payload)
        for obj in stream
    ]


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _configure_run(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument(
        "--algorithm",
        default="SAP",
        choices=sorted(algorithm_factories()),
        help="algorithm to run",
    )
    sub.add_argument(
        "--show", type=int, default=5, help="how many of the final top-k objects to print"
    )


def _command_run(args: argparse.Namespace) -> int:
    query = _query_from_args(args)
    stream = make_dataset(args.dataset).take(args.objects)
    engine = StreamEngine()
    run = engine.subscribe(
        "run", algorithm=create_algorithm(args.algorithm, query), result_buffer=1
    )
    engine.push_many(stream)
    engine.close()
    metrics = run.metrics
    print(f"dataset   : {args.dataset} ({args.objects} objects)")
    print(f"query     : {query.describe()}")
    print(
        f"{run.algorithm.name}: {metrics.slides} slides in {metrics.latency_total:.3f}s, "
        f"avg candidates {metrics.average_candidates:.1f}, "
        f"avg memory {metrics.average_memory_kb:.1f} KB"
    )
    final = run.latest()
    if final is not None:
        print(f"final window top-{min(args.show, len(final))} scores:")
        for obj in list(final)[: args.show]:
            print(f"  score={obj.score:.6g}  t={obj.t}")
    return 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _configure_compare(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument(
        "--algorithms",
        nargs="+",
        default=["SAP", "MinTopK", "k-skyband"],
        choices=sorted(algorithm_factories()),
        help="algorithms to compare (answers are checked for agreement)",
    )


def _command_compare(args: argparse.Namespace) -> int:
    query = _query_from_args(args)
    stream = make_dataset(args.dataset).take(args.objects)
    # All algorithms share one pass over the stream; each one's seconds are
    # the sum of its own per-slide latencies.  A configuration listed twice
    # gets a "#2" suffix, so it keeps its own row and is checked too.
    engine = StreamEngine()
    runs = []
    for name in args.algorithms:
        algorithm = create_algorithm(name, query)
        display, copy = algorithm.name, 1
        while display in engine:
            copy += 1
            display = f"{algorithm.name} #{copy}"
        runs.append(engine.subscribe(display, algorithm=algorithm))
    engine.push_many(stream)
    engine.close()
    reference = runs[0].results()
    agree = all(results_agree(reference, run.results()) for run in runs[1:])
    print(f"dataset   : {args.dataset} ({args.objects} objects)")
    print(f"query     : {query.describe()}")
    print(f"agreement : {agree}")
    header = f"{'algorithm':<24} {'seconds':>9} {'candidates':>11} {'memory KB':>10}"
    print(header)
    print("-" * len(header))
    for run in runs:
        metrics = run.metrics
        print(
            f"{run.name:<24} {metrics.latency_total:9.3f} "
            f"{metrics.average_candidates:11.1f} {metrics.average_memory_kb:10.1f}"
        )
    return 0 if agree else 2


# ----------------------------------------------------------------------
# multi
# ----------------------------------------------------------------------
def _configure_multi(sub: argparse.ArgumentParser) -> None:
    _add_common(sub, include_k=False)
    sub.add_argument(
        "--k",
        type=int,
        nargs="+",
        default=[5, 10, 20, 50],
        help="result sizes; one query per value, all sharing the window shape",
    )
    sub.add_argument(
        "--algorithm",
        default="SAP",
        choices=sorted(algorithm_factories()),
        help="algorithm backing every query",
    )
    sub.add_argument(
        "--baseline",
        action="store_true",
        help="also run each query on its own engine and report the speedup",
    )


def _command_multi(args: argparse.Namespace) -> int:
    stream = list(make_dataset(args.dataset).take(args.objects))
    queries = [TopKQuery(n=args.n, k=min(k, args.n), s=min(args.s, args.n)) for k in args.k]

    engine = StreamEngine(keep_results=False, return_results=False)
    # Clamping k to n (or repeated --k values) can produce duplicate result
    # sizes; suffix repeats so every query keeps a unique subscription name.
    seen: Dict[int, int] = {}
    subscriptions = []
    for query in queries:
        seen[query.k] = seen.get(query.k, 0) + 1
        name = f"top-{query.k}" if seen[query.k] == 1 else f"top-{query.k}#{seen[query.k]}"
        subscriptions.append(engine.subscribe(name, query, algorithm=args.algorithm))
    started = time.perf_counter()
    engine.push_many(stream)
    engine.flush()
    shared_seconds = time.perf_counter() - started

    print(f"dataset   : {args.dataset} ({args.objects} objects)")
    print(f"plane     : {len(queries)} queries over n={args.n}, s={args.s} "
          f"({args.algorithm})")
    for group in engine.groups():
        for plan in group["plans"]:
            print(f"plan      : {plan['kind']} at k_max={plan['k_max']} "
                  f"shared by {len(plan['members'])} queries")
    throughput = args.objects / shared_seconds if shared_seconds else float("inf")
    print(f"shared    : {shared_seconds:.3f}s ({throughput:,.0f} objects/s)")

    header = f"{'query':<12} {'slides':>7} {'candidates':>11} {'p95 latency':>12}"
    print(header)
    print("-" * len(header))
    for subscription in subscriptions:
        stats = subscription.stats()
        print(
            f"{subscription.name:<12} {int(stats['slides']):>7} "
            f"{stats['average_candidates']:>11.1f} {stats['p95_latency']:>12.6f}"
        )

    if args.baseline:
        started = time.perf_counter()
        for query in queries:
            solo = StreamEngine(keep_results=False, return_results=False)
            solo.subscribe("solo", query, algorithm=args.algorithm)
            solo.push_many(stream)
            solo.flush()
        independent_seconds = time.perf_counter() - started
        speedup = independent_seconds / shared_seconds if shared_seconds else float("inf")
        print(f"baseline  : {independent_seconds:.3f}s on independent engines "
              f"-> {speedup:.2f}x speedup from sharing")
    return 0


# ----------------------------------------------------------------------
# shard
# ----------------------------------------------------------------------
def _configure_shard(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--dataset",
        default="STOCK",
        choices=dataset_names(),
        help="built-in synthetic dataset to stream",
    )
    sub.add_argument("--objects", type=int, default=20_000, help="stream length")
    sub.add_argument("--n", type=int, default=1000, help="base window size")
    sub.add_argument("--s", type=int, default=50, help="base slide size")
    sub.add_argument(
        "--k",
        type=int,
        nargs="+",
        default=[5, 10, 20, 50],
        help="result sizes, cycled over the generated queries",
    )
    sub.add_argument("--shards", type=int, default=4, help="worker processes")
    _add_flags(sub, "durability-dir")
    sub.add_argument(
        "--queries",
        type=int,
        default=8,
        help="number of queries; window shapes alternate between (n, s) "
        "and (n/2, s/2) to form a mixed-window workload",
    )
    sub.add_argument(
        "--placement",
        default="least-loaded",
        choices=sorted(PLACEMENT_POLICIES),
        help="placement policy assigning queries to shards: least-loaded "
        "(default here) spreads the demo workload over every shard; "
        "hash-window co-locates same-shape queries to preserve their "
        "shared k_max plans, at the mercy of how the shapes hash",
    )
    sub.add_argument(
        "--algorithm",
        default="SAP",
        choices=sorted(algorithm_factories()),
        help="algorithm backing every query",
    )
    sub.add_argument(
        "--baseline",
        action="store_true",
        help="also run the workload on one single-process engine and "
        "report the sharding speedup",
    )


def _shard_workload(args: argparse.Namespace) -> List[Tuple[str, TopKQuery]]:
    """The mixed-window workload of ``repro shard``: ``--queries`` queries
    alternating between the base shape and its half-size variant, cycling
    through the ``--k`` list."""
    shapes = [(args.n, args.s), (max(2, args.n // 2), max(1, args.s // 2))]
    workload = []
    for index in range(args.queries):
        n, s = shapes[index % len(shapes)]
        k = min(args.k[index % len(args.k)], n)
        workload.append((f"user-{index}", TopKQuery(n=n, k=k, s=s)))
    return workload


def _command_shard(args: argparse.Namespace) -> int:
    stream = list(make_dataset(args.dataset).take(args.objects))
    workload = _shard_workload(args)

    with ShardedStreamEngine(
        args.shards,
        placement=args.placement,
        durability_dir=args.durability_dir,
    ) as engine:
        for name, query in workload:
            if name not in engine.subscriptions():
                engine.subscribe(
                    name, query, algorithm=args.algorithm, keep_results=False
                )
        # A recovered cluster enforces strictly increasing t across
        # restarts: continue past the journaled tail (a fresh one at 0).
        stream = _shift_stream(stream, int(max(0, engine.last_t + 1)))
        started = time.perf_counter()
        engine.push_many(stream)
        engine.synchronize()
        sharded_seconds = time.perf_counter() - started

        print(f"dataset   : {args.dataset} ({args.objects} objects)")
        print(
            f"plane     : {len(workload)} queries on {args.shards} shards "
            f"({args.placement} placement, {args.algorithm})"
        )
        for record in engine.describe_shards():
            members = ", ".join(record["members"]) or "-"
            print(f"shard {record['shard']}   : load={record['load']:<8} {members}")
        throughput = args.objects / sharded_seconds if sharded_seconds else float("inf")
        print(f"sharded   : {sharded_seconds:.3f}s ({throughput:,.0f} objects/s)")
        merged = engine.aggregate_stats()
        print(
            f"latency   : p50={merged['p50_latency']:.6f}s "
            f"p95={merged['p95_latency']:.6f}s p99={merged['p99_latency']:.6f}s "
            f"(merged from {int(merged['latency_samples'])} samples)"
        )

    if args.baseline:
        solo = StreamEngine(keep_results=False, return_results=False)
        for name, query in workload:
            solo.subscribe(name, query, algorithm=args.algorithm)
        started = time.perf_counter()
        solo.push_many(stream)
        solo.flush()
        solo_seconds = time.perf_counter() - started
        speedup = solo_seconds / sharded_seconds if sharded_seconds else float("inf")
        print(
            f"baseline  : {solo_seconds:.3f}s single-process "
            f"-> {speedup:.2f}x speedup from {args.shards} shards"
        )
    return 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _configure_serve(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--host", default="127.0.0.1", help="interface to bind")
    sub.add_argument(
        "--port", type=int, default=8765, help="TCP port (0 picks an ephemeral one)"
    )
    sub.add_argument(
        "--engine",
        default="local",
        choices=("local", "sharded"),
        help="execution plane behind the service: one in-process engine, "
        "or the sharded multi-process plane",
    )
    sub.add_argument(
        "--shards", type=int, default=2, help="worker processes (sharded engine only)"
    )
    _add_flags(sub, "durability-dir")
    sub.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="CHUNKS",
        help="ingested chunks between durability checkpoints (with --durability-dir)",
    )
    sub.add_argument(
        "--max-subscriptions",
        type=int,
        default=1024,
        help="admission-control cap; creation past it gets 429 + Retry-After",
    )
    sub.add_argument(
        "--client-queue",
        type=int,
        default=256,
        help="per-client result queue bound (backpressure)",
    )
    sub.add_argument(
        "--slow-client",
        default="drop-oldest",
        choices=SLOW_CLIENT_POLICIES,
        help="what a full client queue means: drop the oldest queued "
        "answer (counted in stats) or disconnect the client",
    )
    sub.add_argument(
        "--dedupe-window",
        type=int,
        default=65_536,
        help="idempotency window: distinct event ids remembered for dedupe",
    )


def _command_serve(args: argparse.Namespace) -> int:
    config = ServeConfig(
        host=args.host,
        port=args.port,
        engine=args.engine,
        shards=args.shards,
        max_subscriptions=args.max_subscriptions,
        client_queue=args.client_queue,
        slow_client=args.slow_client,
        dedupe_window=args.dedupe_window,
        durability_dir=args.durability_dir,
        checkpoint_interval=args.checkpoint_interval,
    )

    async def main() -> None:
        server = TopKServer(config)
        await server.start()
        print(f"serving   : http://{config.host}:{server.port} ({config.engine} engine)")
        print("api       : POST /v1/subscriptions | POST /v1/events | "
              "GET /v1/subscriptions/<name>/stream (SSE)")
        if config.durability_dir is not None:
            recovery = server.recovery_info or {}
            print(f"durable   : {config.durability_dir} "
                  f"(recovered {recovery.get('recovered_subscriptions', 0)} "
                  f"subscriptions, resumed at t={recovery.get('resumed_at_t', 0)})")
        print("shutdown  : SIGINT/SIGTERM drain in-flight slides and close the engine")
        await server.serve_forever()
        totals = server.describe()
        print(f"drained   : {totals['ingest']['ingested']} events ingested, "
              f"{totals['sessions']['results_pushed']} answers pushed, "
              f"{totals['sessions']['results_dropped']} dropped to slow clients")

    asyncio.run(main())
    return 0


# ----------------------------------------------------------------------
# top
# ----------------------------------------------------------------------
def _configure_top(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--url",
        default="http://127.0.0.1:8765/v1/metrics.json",
        help="metrics snapshot endpoint of a running ``repro serve``",
    )
    sub.add_argument(
        "--interval", type=float, default=1.0, help="seconds between repaints"
    )
    sub.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N frames (default: run until interrupted)",
    )
    sub.add_argument(
        "--no-color",
        action="store_true",
        help="plain output without ANSI escapes (also implied by a pipe)",
    )


def _command_top(args: argparse.Namespace) -> int:
    from .obs import run_top

    color = False if args.no_color else None
    try:
        frames = run_top(
            args.url, interval=args.interval, iterations=args.iterations, color=color
        )
    except OSError as error:
        print(f"repro top: cannot reach {args.url}: {error}")
        return 1
    return 0 if frames else 1


# ----------------------------------------------------------------------
# The command registry: the single source of truth of the CLI surface.
# ----------------------------------------------------------------------
COMMANDS: List[CliCommand] = [
    CliCommand(
        name="run",
        help="run a single algorithm",
        doc="Run one algorithm over one of the built-in datasets and print "
        "the summary (running time, average candidate count, memory) plus "
        "the final window's answer.",
        configure=_configure_run,
        run=_command_run,
    ),
    CliCommand(
        name="compare",
        help="compare several algorithms",
        doc="Run several algorithms over the same stream, verify that their "
        "answers agree, and print a comparison table.",
        configure=_configure_compare,
        run=_command_compare,
    ),
    CliCommand(
        name="multi",
        help="run several same-window queries on the shared plane",
        doc="Run several queries with one window shape but different result "
        "sizes ``k`` through the shared multi-query plane (one query group, "
        "one ``k_max`` execution plan) and print per-query statistics plus "
        "the plane's throughput against independent engines.",
        configure=_configure_multi,
        run=_command_multi,
    ),
    CliCommand(
        name="shard",
        help="run a mixed-window workload on the sharded execution plane",
        doc="Run a mixed-window multi-query workload on the sharded "
        "execution plane (:mod:`repro.cluster`): N worker processes, a "
        "placement policy assigning queries to shards, and cluster-wide "
        "statistics merged from per-shard samples.  ``--durability-dir`` "
        "makes every worker journal its state for crash-exact recovery.  "
        "The pool keeps its ``--shards`` width; the library's "
        "``spawn_shard`` / ``retire_shard`` / ``rebalance`` change it by "
        "hand.  ``--baseline`` also runs the workload single-process and "
        "reports the speedup.",
        configure=_configure_shard,
        run=_command_shard,
    ),
    CliCommand(
        name="serve",
        help="run the network serving layer over a live engine",
        doc="Run the serving layer (:mod:`repro.serve`): an asyncio HTTP "
        "facade exposing subscription management, idempotent event "
        "ingestion (at-least-once producers get exactly-once engine "
        "semantics via an event-id dedupe window), per-client result push "
        "over SSE with bounded queues, and admission control — "
        "under the versioned ``/v1`` REST surface.  ``--durability-dir`` "
        "makes the whole service crash-exact: a restart pointed at the "
        "same directory recovers subscriptions, histories, and the "
        "arrival clock.  Runs until SIGINT/SIGTERM, then drains in-flight "
        "slides and closes the engine.",
        configure=_configure_serve,
        run=_command_serve,
    ),
    CliCommand(
        name="top",
        help="live terminal dashboard over a serving endpoint's metrics",
        doc="Poll the ``/v1/metrics.json`` snapshot feed of a running ``repro "
        "serve`` and repaint a compact terminal dashboard "
        "(:mod:`repro.obs.top`): cluster-wide rates, delivery-latency "
        "quantiles from the merged histograms, per-shard counters, and "
        "per-stage pipeline timings.  Runs until interrupted unless "
        "``--iterations`` bounds the frame count.",
        configure=_configure_top,
        run=_command_top,
    ),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Continuous top-k queries over streaming data (SAP reproduction)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
        help="print the installed package version and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub = subparsers.add_parser(command.name, help=command.help)
        command.configure(sub)
        sub.set_defaults(run=command.run)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the test-suite."""
    args = build_parser().parse_args(argv)
    return args.run(args)


def _command_reference() -> str:
    """The subcommand section of the module docstring, generated from
    :data:`COMMANDS` so documentation and parser cannot drift apart."""
    lines = [f"{len(COMMANDS)} subcommands are provided:", ""]
    for command in COMMANDS:
        lines.append(f"``{command.name}``")
        lines.extend(
            textwrap.wrap(
                command.doc, width=72, initial_indent="    ", subsequent_indent="    "
            )
        )
        lines.append("")
    lines.extend(
        [
            "``--version``",
            "    Print the installed package version (from the distribution",
            "    metadata, falling back to ``repro.__version__``) and exit.",
            "",
            "Examples::",
            "",
            "    python -m repro run --dataset STOCK --n 1000 --k 10 --s 50",
            "    python -m repro compare --dataset TIMER --n 1000 --k 20 --s 50 \\",
            "        --algorithms SAP MinTopK k-skyband",
            "    python -m repro multi --dataset STOCK --n 1000 --s 50 --k 5 10 20 50",
            "    python -m repro shard --shards 4 --queries 8 --baseline",
            "    python -m repro serve --port 8765 --max-subscriptions 1000",
            "    python -m repro top --url http://127.0.0.1:8765/v1/metrics.json",
            "    python -m repro --version",
        ]
    )
    return "\n".join(lines)


__doc__ = (__doc__ or "") + "\n" + _command_reference()
