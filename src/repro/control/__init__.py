"""Adaptive runtime control plane: a MAPE-K loop over live engines.

The engine executes queries; this package decides *how* they should be
executed as the stream evolves.  A :class:`AdaptiveController` attached to
a :class:`~repro.engine.StreamEngine` monitors per-slide telemetry into a
ring-buffered :class:`Knowledge` store, analyzes it for latency-budget
violations, candidate-set blowup, and score-distribution drift, plans
tactics from a declarative :class:`Policy`, and executes them against the
running engine at slide boundaries.  Both tactics rebuild one SAP query's
partitioner — ``swap-partitioner`` changes its family, ``retune-eta``
rescales the dynamic partitioners' reference interval η — by draining the
query group and rebuilding its execution plan from live window state, so
every tactic is answer-preserving.

The loop runs per engine.  A sharded engine attaches one controller to
each shard worker (:meth:`repro.cluster.ShardedStreamEngine.attach_controllers`);
the number of shards is not a tactic, it changes only through the
sharded engine's manual ``spawn_shard`` / ``retire_shard`` /
``rebalance`` calls.

See ``examples/adaptive_control.py`` for a runnable walkthrough and
``examples/control_policy.json`` for the policy file format.
"""

from .analyzers import (
    Analyzer,
    CandidateBlowupAnalyzer,
    LatencyBudgetAnalyzer,
    ScoreDriftAnalyzer,
    Symptom,
)
from .controller import AdaptiveController
from .executor import Executor
from .knowledge import AdaptationEvent, Knowledge, SealSample, SlideSample
from .monitor import Monitor
from .planner import Action, Planner
from .policy import Policy, Rule, Tactic

__all__ = [
    "AdaptiveController",
    "AdaptationEvent",
    "Action",
    "Analyzer",
    "CandidateBlowupAnalyzer",
    "Executor",
    "Knowledge",
    "LatencyBudgetAnalyzer",
    "Monitor",
    "Planner",
    "Policy",
    "Rule",
    "ScoreDriftAnalyzer",
    "SealSample",
    "SlideSample",
    "Symptom",
    "Tactic",
]
