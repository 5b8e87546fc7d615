"""The adaptive controller: one MAPE-K loop over a live StreamEngine.

:class:`AdaptiveController` wires the four stages together around a shared
:class:`~repro.control.knowledge.Knowledge` store and hooks into the
engine's ingest path::

    from repro import QuerySpec, StreamEngine
    from repro.control import AdaptiveController, Policy

    engine = StreamEngine(keep_results=False, return_results=False)
    engine.subscribe("watch", QuerySpec(n=1000, k=10, s=50), algorithm="SAP-equal")
    controller = AdaptiveController(Policy.default(latency_budget_seconds=0.01))
    engine.attach_controller(controller)
    engine.push_many(feed)                 # tactics fire at slide boundaries
    for event in controller.events():      # the adaptation audit log
        print(event.slide_index, event.subscription, event.tactic, event.trigger)

While attached, the controller's **monitor** receives per-slide telemetry
from every query group; after each ingest call the engine invokes
:meth:`tick`, which runs **analyzers** over the knowledge store, lets the
**planner** choose tactics under the policy, and has the **executor**
apply them.  Tactics that reconfigure execution only fire at exact slide
boundaries of count-based groups (the only points where the live window
state equals the last reported window), which the engine makes frequent by
aligning ``push_many`` chunks to the controlled slide sizes.

With load shedding disabled (the default), every tactic is
answer-preserving: a controlled engine produces byte-identical results to
an uncontrolled one on the same stream.  Load shedding trades bounded
accuracy for throughput and is accounted explicitly
(:meth:`accuracy_report`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..baselines.mintopk import MinTopK
from ..core.exceptions import AlgorithmStateError
from ..core.object import StreamObject
from ..obs.registry import get_registry
from .analyzers import Analyzer, Symptom
from .executor import Executor
from .knowledge import AdaptationEvent, Knowledge
from .monitor import Monitor
from .planner import Planner
from .policy import Policy

#: Ceiling for slide-aligned chunk sizes: beyond this, aligning chunks to
#: the least common multiple of the controlled slide sizes would buffer an
#: unreasonable amount of stream per dispatch, so the engine keeps its
#: requested chunking (tactics then fire on whatever boundaries occur).
MAX_ALIGNED_CHUNK = 32_768


class AdaptiveController:
    """MAPE-K loop over the query groups of one :class:`StreamEngine`."""

    def __init__(
        self,
        policy: Optional[Policy] = None,
        knowledge: Optional[Knowledge] = None,
    ) -> None:
        self.policy = policy if policy is not None else Policy.default()
        self.knowledge = knowledge if knowledge is not None else Knowledge()
        self.monitor = Monitor(self.knowledge)
        self.analyzers: List[Analyzer] = self.policy.build_analyzers()
        self.planner = Planner(self.policy)
        self.executor = Executor(self.knowledge)
        self._engine = None
        self._groups: List[object] = []
        self._analyzed: Dict[int, int] = {}
        self._shed_stride: Optional[int] = None
        self._admit_counter = 0
        self._registry = None

    # ------------------------------------------------------------------
    # Engine binding (driven by StreamEngine.attach_controller)
    # ------------------------------------------------------------------
    def _bind_engine(self, engine) -> None:
        if self._engine is not None:
            raise AlgorithmStateError(
                "this controller is already attached to an engine"
            )
        self._engine = engine
        self._registry = get_registry()
        self._registry.add_collector(self._collect_metrics)

    def _unbind_engine(self, engine) -> None:
        if self._engine is engine:
            for group in self._groups:
                for subscription in group.members():
                    self.monitor.unwatch(subscription)
            self._engine = None
            self._groups = []
            self._analyzed = {}
            self._shed_stride = None
            if self._registry is not None:
                self._registry.remove_collector(self._collect_metrics)
                self._registry = None

    def _collect_metrics(self, registry) -> None:
        """Pull-time export of the control plane's accounting.

        Counter values mirror the knowledge store's exact monotone state,
        so the collector assigns rather than increments — the per-object
        admit valve stays untouched.
        """
        shedding = self.knowledge.shedding
        registry.counter(
            "repro_shed_objects_total", "Stream objects dropped by load shedding."
        ).value = float(shedding.shed)
        registry.counter(
            "repro_shedding_engagements_total", "Load-shedding engagements."
        ).value = float(shedding.engagements)
        for tactic, count in self.knowledge.tactic_counts.items():
            registry.counter(
                "repro_tactics_total",
                "Adaptation tactics attempted (applied and declined).",
                {"tactic": tactic},
            ).value = float(count)

    def _adopt_group(self, group) -> None:
        group.telemetry = self.monitor
        self._groups.append(group)
        for subscription in group.members():
            self.monitor.watch(subscription)

    def _discard_group(self, group) -> None:
        """Forget a group the engine removed (its last member left)."""
        if group in self._groups:
            self._groups.remove(group)
        self._analyzed.pop(id(group), None)

    def rewatch(self, group) -> None:
        """Re-install telemetry taps after a rebuild swapped algorithms."""
        for subscription in group.members():
            self.monitor.watch(subscription)

    @property
    def attached(self) -> bool:
        return self._engine is not None

    # ------------------------------------------------------------------
    # Ingest-path hooks (driven by the engine)
    # ------------------------------------------------------------------
    def admit(self, obj: StreamObject) -> bool:
        """Load-shedding valve: False drops the object before any window.

        Stride sampling: with an active stride ``m``, every ``m``-th object
        is shed (fraction ``1/m``), which preserves the temporal structure
        of the stream better than dropping bursts.  Shed objects are
        counted here; admitted objects are counted in bulk through
        :meth:`note_admitted` (the engine knows how many it pushed), so the
        common no-shedding path costs nothing per object.
        """
        if self._shed_stride is None:
            return True
        self._admit_counter += 1
        if self._admit_counter % self._shed_stride == 0:
            self.knowledge.shedding.shed += 1
            return False
        return True

    def note_admitted(self, count: int) -> None:
        """Bulk-count objects that reached the windows (accuracy account)."""
        self.knowledge.shedding.admitted += count

    def aligned_chunk(self, requested: int) -> int:
        """A chunk size aligned to the controlled groups' slide boundaries.

        The least common multiple of the count-based groups' slide sizes
        divides the returned chunk, so every chunk ends exactly on a slide
        boundary of every group — the points where :meth:`tick` may apply
        tactics.  Falls back to ``requested`` when alignment would exceed
        :data:`MAX_ALIGNED_CHUNK`.
        """
        lcm = 1
        for group in self._groups:
            if group.time_based or not len(group):
                continue
            lcm = lcm * group.s // math.gcd(lcm, group.s)
            if lcm > MAX_ALIGNED_CHUNK:
                return requested
        if lcm <= 1:
            return requested
        if requested <= lcm:
            return lcm
        return (requested // lcm) * lcm

    # ------------------------------------------------------------------
    # The MAPE tick
    # ------------------------------------------------------------------
    def tick(self) -> List[AdaptationEvent]:
        """Run one Monitor→Analyze→Plan→Execute pass; return new events.

        Called by the engine after every ingest call.  Work happens only
        for groups that reached a *new* slide boundary since the last
        tick, so the per-push overhead of an idle controller is a couple
        of integer comparisons per group.
        """
        events: List[AdaptationEvent] = []
        interval = self.policy.analysis_interval_slides
        for group in self._groups:
            if not len(group) or not group.at_slide_boundary():
                continue
            index = group.last_slide_index()
            last = self._analyzed.get(id(group))
            if last is not None and index - last < interval:
                continue
            self._analyzed[id(group)] = index
            symptoms = self._analyze(group)
            actions = self.planner.plan(
                group,
                symptoms,
                self.knowledge,
                self.shedding_active,
                shed_allowed=self._shed_allowed(),
            )
            recovery = self.planner.plan_recovery(self.knowledge, self.shedding_active)
            if recovery is not None:
                actions.append(recovery)
            if actions:
                events.extend(self.executor.execute(group, actions, self))
        return events

    def _analyze(self, group) -> List[Symptom]:
        symptoms: List[Symptom] = []
        for subscription in group.members():
            for analyzer in self.analyzers:
                symptom = analyzer.analyze(self.knowledge, subscription.name)
                if symptom is not None:
                    symptoms.append(symptom)
        symptoms.sort(key=lambda s: s.severity, reverse=True)
        return symptoms

    # ------------------------------------------------------------------
    # Load-shedding valve
    # ------------------------------------------------------------------
    @property
    def shedding_active(self) -> bool:
        return self._shed_stride is not None

    def _shed_allowed(self) -> bool:
        """Engine-wide shedding gate: stride sampling gaps the arrival
        orders, which MinTopK's window-position arithmetic cannot survive
        (its predicted sets would desynchronise from the batcher and leak),
        so the valve stays shut while any MinTopK query is live."""
        for group in self._groups:
            for subscription in group.members():
                if isinstance(subscription.algorithm, MinTopK):
                    return False
        return True

    def engage_shedding(self, stride: int) -> None:
        if stride < 2:
            raise ValueError(f"shedding stride must be >= 2, got {stride}")
        self._shed_stride = stride
        self._admit_counter = 0
        self.knowledge.shedding.engagements += 1

    def disengage_shedding(self) -> Dict[str, object]:
        """Stop shedding; return the accuracy account at disengagement."""
        self._shed_stride = None
        return self.knowledge.shedding.as_dict()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def events(self) -> List[AdaptationEvent]:
        """The adaptation audit log (applied and declined tactics)."""
        return self.knowledge.events()

    def accuracy_report(self) -> Dict[str, object]:
        """Explicit accounting of the only approximate tactic.

        ``exact`` is True iff no object was ever shed — in which case the
        controlled engine's answers are byte-identical to an uncontrolled
        run on the same stream.
        """
        report = self.knowledge.shedding.as_dict()
        report["active_stride"] = self._shed_stride
        return report

    def describe(self) -> Dict[str, object]:
        """Full state summary (CLI JSON output)."""
        return {
            "policy": self.policy.describe(),
            "attached": self.attached,
            "groups": len(self._groups),
            "knowledge": self.knowledge.describe(),
            "accuracy": self.accuracy_report(),
        }
