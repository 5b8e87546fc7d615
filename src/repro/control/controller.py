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

Every tactic rebuilds a SAP subscription's partitioner from the live
window, so every tactic is answer-preserving: a controlled engine produces
byte-identical results to an uncontrolled one on the same stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.exceptions import AlgorithmStateError
from ..core.window import aligned_chunk
from ..obs.registry import get_registry
from .analyzers import Analyzer, Symptom
from .executor import Executor
from .knowledge import AdaptationEvent, Knowledge
from .monitor import Monitor
from .planner import Planner
from .policy import Policy


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
            if self._registry is not None:
                self._registry.remove_collector(self._collect_metrics)
                self._registry = None

    def _collect_metrics(self, registry) -> None:
        """Pull-time export of the control plane's accounting.

        Counter values mirror the knowledge store's exact monotone state,
        so the collector assigns rather than increments.
        """
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

    def forget(self, name: str) -> None:
        """Drop everything kept about an unsubscribed query: its telemetry
        rings, its cooldown and the analyzers' per-query state, so a later
        query reusing the name starts from nothing."""
        self.knowledge.forget(name)
        for analyzer in self.analyzers:
            analyzer.forget(name)

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
    def aligned_chunk(self, requested: int) -> int:
        """A chunk size aligned to the controlled groups' slide boundaries.

        The least common multiple of the count-based groups' slide sizes
        divides the returned chunk, so every chunk ends exactly on a slide
        boundary of every group — the points where :meth:`tick` may apply
        tactics (see :func:`repro.core.window.aligned_chunk`).  Past the
        alignment ceiling the chunk stays ``requested`` and tactics fire on
        whatever boundaries occur.  Groups without members (one is adopted
        before its first member joins) do not align chunks.
        """
        return aligned_chunk([g for g in self._groups if len(g)], requested)

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
            actions = self.planner.plan(group, symptoms, self.knowledge)
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
    # Reporting
    # ------------------------------------------------------------------
    def events(self) -> List[AdaptationEvent]:
        """The adaptation audit log (applied and declined tactics)."""
        return self.knowledge.events()

    def describe(self) -> Dict[str, object]:
        """Full state summary (CLI JSON output)."""
        return {
            "policy": self.policy.describe(),
            "attached": self.attached,
            "groups": len(self._groups),
            "knowledge": self.knowledge.describe(),
        }
