"""Elastic shard scaling: a MAPE-K loop over the cluster itself.

The per-engine control plane (:mod:`repro.control`) adapts *how one
engine executes*; this module adapts *how many engines there are*.
:class:`ShardAutoscaler` wraps a live
:class:`~repro.cluster.sharded.ShardedStreamEngine` and runs the same
four stages over cluster-level signals:

* **Monitor** — per-shard :class:`~repro.control.ShardPressureSample`
  records: backpressure stalls since the last tick, placement-load
  share, hosted-query count.  When the per-shard
  controllers are attached, their merged
  :class:`~repro.cluster.merge.AggregatedKnowledge` rides along in the
  tick record for the audit log.
* **Analyze** — :class:`~repro.control.ShardPressure` reports at most
  one symptom per tick: ``shard-overload`` (a producer stalled) or
  ``cluster-underload`` (nobody stalled and the emptiest shard below an
  even split).
* **Plan** — the policy's rules map symptoms to the two cluster tactics
  (``spawn-shard`` / ``retire-shard``), subject to the ``min_shards`` /
  ``max_shards`` bounds and a tick cooldown so the pool cannot thrash.
* **Execute** — ``spawn-shard`` grows the pool by one worker and moves
  the overloaded shard's heaviest subscriptions onto it with the live
  :meth:`~repro.cluster.sharded.ShardedStreamEngine.rebalance` (state
  captured at a slide boundary, answers preserved); ``retire-shard``
  drains the highest-numbered worker onto the rest and stops it.
* **Knowledge** — every tick's verdict lands in a bounded event log
  (:meth:`events`), applied or not, with the evidence that drove it.

Rebalancing moves a subscription only at an exact slide boundary, so a
tick that lands mid-slide applies the pool change and reports the moves
it could not make; the next tick retries them.  On a durable cluster
(``durability_dir``) every pool change also rewrites the ``cluster.json``
manifest, so a crash right after scaling recovers at the new width.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..control.analyzers import ShardPressure, ShardPressureSample, Symptom
from ..control.policy import Policy, Rule, Tactic
from ..obs.registry import get_registry
from .router import ShardError
from .sharded import ShardedStreamEngine

#: How many tick records the knowledge log retains.
EVENT_LOG_LIMIT = 256


def default_scaling_policy() -> Policy:
    """Spawn on overload, retire on underload — the whole policy."""
    return Policy(
        rules=[
            Rule(when="shard-overload", tactic=Tactic("spawn-shard")),
            Rule(when="cluster-underload", tactic=Tactic("retire-shard")),
        ]
    )


class ShardAutoscaler:
    """Grows and shrinks a sharded engine's worker pool under pressure."""

    def __init__(
        self,
        engine: ShardedStreamEngine,
        *,
        policy: Optional[Policy] = None,
        pressure: Optional[ShardPressure] = None,
        min_shards: int = 1,
        max_shards: Optional[int] = None,
        cooldown_ticks: int = 2,
    ) -> None:
        if min_shards < 1:
            raise ValueError(f"min_shards must be >= 1, got {min_shards}")
        if max_shards is not None and max_shards < min_shards:
            raise ValueError(
                f"max_shards ({max_shards}) must be >= min_shards ({min_shards})"
            )
        if cooldown_ticks < 0:
            raise ValueError(f"cooldown_ticks must be >= 0, got {cooldown_ticks}")
        self.engine = engine
        self.policy = policy if policy is not None else default_scaling_policy()
        self.pressure = pressure if pressure is not None else ShardPressure()
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.cooldown_ticks = cooldown_ticks
        self._events: Deque[Dict[str, object]] = deque(maxlen=EVENT_LOG_LIMIT)
        self._tick = 0
        self._last_applied: Optional[int] = None
        self._last_bp: Dict[int, float] = {}
        registry = get_registry()
        self._obs_ticks = registry.counter(
            "repro_autoscale_ticks_total", "Autoscaler MAPE passes."
        )
        self._obs_actions = registry.counter(
            "repro_autoscale_actions_total",
            "Applied pool changes.",
            {"tactic": "spawn-shard"},
        )
        self._obs_retires = registry.counter(
            "repro_autoscale_actions_total",
            "Applied pool changes.",
            {"tactic": "retire-shard"},
        )
        self._obs_shards = registry.gauge(
            "repro_cluster_shards", "Live worker processes in the cluster."
        )

    # ------------------------------------------------------------------
    # Monitor
    # ------------------------------------------------------------------
    def monitor(self) -> List[ShardPressureSample]:
        """One pressure sample per shard (backpressure deltas are
        relative to the previous call)."""
        engine = self.engine
        loads = list(engine._loads)
        total = sum(loads) or 1.0
        members: Dict[int, int] = {s: 0 for s in engine._router.shard_ids()}
        for shard in engine._shard_of.values():
            members[shard] = members.get(shard, 0) + 1
        raw = engine._router.pressure_stats()
        samples: List[ShardPressureSample] = []
        for shard_id in engine._router.shard_ids():
            signals = raw.get(shard_id, {})
            bp_total = float(signals.get("bp_waits", 0.0))
            delta = bp_total - self._last_bp.get(shard_id, 0.0)
            self._last_bp[shard_id] = bp_total
            samples.append(
                ShardPressureSample(
                    shard=shard_id,
                    load_share=loads[shard_id] / total,
                    bp_wait_delta=int(delta),
                    subscriptions=members.get(shard_id, 0),
                )
            )
        return samples

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def tick(self) -> Dict[str, object]:
        """One MAPE-K pass; returns (and logs) the tick's record."""
        self._tick += 1
        self._obs_ticks.inc()
        samples = self.monitor()
        symptom = self.pressure.analyze_cluster(samples)
        record: Dict[str, object] = {
            "tick": self._tick,
            "shards": len(samples),
            "symptom": None if symptom is None else symptom.kind,
            "tactic": None,
            "applied": False,
            "detail": None,
        }
        if symptom is not None:
            record["evidence"] = dict(symptom.evidence)
            tactic = self._plan(symptom)
            if tactic is not None:
                record["tactic"] = tactic.kind
                record["applied"], record["detail"] = self._execute(tactic, symptom)
                if record["applied"]:
                    self._last_applied = self._tick
        self._obs_shards.set(self.engine.shards)
        self._events.append(record)
        return record

    def _plan(self, symptom: Symptom) -> Optional[Tactic]:
        if (
            self._last_applied is not None
            and self._tick - self._last_applied <= self.cooldown_ticks
        ):
            return None
        for rule in self.policy.rules_for(symptom.kind):
            tactic = rule.tactic
            if tactic.kind == "spawn-shard":
                if self.max_shards is not None and self.engine.shards >= self.max_shards:
                    continue
                return tactic
            if tactic.kind == "retire-shard":
                if self.engine.shards <= self.min_shards:
                    continue
                return tactic
            # Subscription-level tactics don't apply at cluster scope.
        return None

    def _execute(self, tactic: Tactic, symptom: Symptom):
        if tactic.kind == "spawn-shard":
            return self._spawn(int(symptom.evidence.get("shard", -1)))
        return self._retire()

    def _spawn(self, hot_shard: int):
        engine = self.engine
        new_shard = engine.spawn_shard()
        moved: List[str] = []
        skipped: List[str] = []
        if 0 <= hot_shard < new_shard:
            # Offload the hot shard's heaviest members until its load
            # drops to the new even share; moves need a slide boundary,
            # so any refusal is reported and left for the next tick.
            target_load = sum(engine._loads) / engine.shards
            members = sorted(
                (name for name, s in engine._shard_of.items() if s == hot_shard),
                key=lambda name: -engine._placement.load_of(
                    engine._handles[name].query
                ),
            )
            for name in members:
                if engine._loads[hot_shard] <= target_load:
                    break
                try:
                    engine.rebalance(name, new_shard)
                    moved.append(name)
                except ShardError:
                    skipped.append(name)
        detail = {"new_shard": new_shard, "moved": moved, "skipped": skipped}
        self._obs_actions.inc()
        return True, detail

    def _retire(self):
        engine = self.engine
        try:
            retired = engine.retire_shard()
        except ShardError as exc:
            # A member refused to move (mid-slide); the pool is unchanged
            # or partially drained — either way the next tick retries.
            return False, {"error": str(exc).splitlines()[0]}
        self._obs_retires.inc()
        return True, {"retired_shard": retired}

    # ------------------------------------------------------------------
    # Knowledge
    # ------------------------------------------------------------------
    def events(self) -> List[Dict[str, object]]:
        """The bounded audit log of every tick, oldest first."""
        return list(self._events)

    def describe(self) -> Dict[str, object]:
        return {
            "tick": self._tick,
            "shards": self.engine.shards,
            "min_shards": self.min_shards,
            "max_shards": self.max_shards,
            "cooldown_ticks": self.cooldown_ticks,
            "applied": sum(1 for event in self._events if event["applied"]),
            "policy": self.policy.describe(),
        }
