"""The Execute stage: apply planned tactics to a running engine.

Mechanism only, no judgement: the executor receives the planner's actions
and carries them out, logging every outcome to the knowledge store's
adaptation event log.  Tactics that reconfigure query execution build
fresh algorithm instances and hand them to
:meth:`repro.engine.group.QueryGroup.rebuild`, which drops the affected
plans at the current slide boundary and re-admits the affected members
with their new instances, replaying the live window into them — so a swap
is answer-preserving by construction.

Every tactic rebuilds one SAP subscription with a new partitioner.  A
tactic whose runtime preconditions fail (the member is no longer a SAP
query, or its partitioner has no η to retune) is *declined*, not errored:
the event log records it with ``applied=False`` and the engine keeps
running untouched.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..core.framework import SAPTopK
from ..core.interface import ContinuousTopKAlgorithm
from .knowledge import AdaptationEvent, Knowledge
from .planner import Action, _PARTITIONER_FAMILY


class Executor:
    """Applies tactics; every outcome lands in the adaptation event log."""

    def __init__(self, knowledge: Knowledge) -> None:
        self.knowledge = knowledge

    # ------------------------------------------------------------------
    def execute(self, group, actions: List[Action], controller) -> List[AdaptationEvent]:
        """Apply one tick's actions for one group.

        All tactics of the tick are folded into a single
        :meth:`QueryGroup.rebuild` call, so co-triggered swaps share one
        window replay.
        """
        slide_index = group.last_slide_index() or 0
        events: List[AdaptationEvent] = []
        replacements: Dict[str, ContinuousTopKAlgorithm] = {}
        rebuild_actions: List[Tuple[Action, Dict[str, object]]] = []

        for action in actions:
            replacement, detail, reason = self._build_replacement(action)
            if replacement is None:
                events.append(
                    self._log(slide_index, action, False, {"skipped": reason})
                )
                continue
            replacements[action.subscription_name] = replacement
            rebuild_actions.append((action, detail))

        if replacements:
            started = time.perf_counter()
            rebuild_seconds = group.rebuild(replacements)
            total = time.perf_counter() - started
            for action, detail in rebuild_actions:
                detail = dict(detail)
                detail["rebuild_seconds"] = rebuild_seconds
                detail["executor_seconds"] = total
                events.append(self._log(slide_index, action, True, detail))
            controller.rewatch(group)
        return events

    # ------------------------------------------------------------------
    @staticmethod
    def _build_replacement(
        action: Action,
    ) -> Tuple[Optional[ContinuousTopKAlgorithm], Dict[str, object], str]:
        """(replacement, detail, decline-reason) for one tactic.

        Rebuilding a member dissolves its shared plan and respawns the
        plan's other members from the live window.  A SAP plan's key
        (:meth:`SAPTopK.shared_plan_key`) holds only SAP members, which
        adopt any window, so the respawn is always exact.
        """
        tactic = action.tactic
        algorithm = action.subscription.algorithm
        if not isinstance(algorithm, SAPTopK):
            return None, {}, "not a SAP subscription"
        if tactic.kind == "swap-partitioner":
            target = str(tactic.params["to"])
            family = _PARTITIONER_FAMILY[target]
            replacement = algorithm.with_partitioner(family())
            return (
                replacement,
                {"from": algorithm.partitioner.name, "to": target},
                "",
            )
        partitioner = algorithm.partitioner  # retune-eta
        if not hasattr(partitioner, "retuned"):
            return None, {}, f"partitioner {partitioner.name} has no eta"
        target_scale = float(tactic.params["eta_scale"])
        replacement = algorithm.with_partitioner(partitioner.retuned(target_scale))
        return (
            replacement,
            {"from_eta_scale": partitioner.eta_scale, "to_eta_scale": target_scale},
            "",
        )

    # ------------------------------------------------------------------
    def _log(
        self,
        slide_index: int,
        action: Action,
        applied: bool,
        detail: Dict[str, object],
    ) -> AdaptationEvent:
        merged = dict(action.tactic.params)
        merged.update(detail)
        event = AdaptationEvent(
            slide_index=slide_index,
            subscription=action.subscription_name,
            tactic=action.tactic.kind,
            trigger=action.trigger,
            applied=applied,
            detail=merged,
        )
        self.knowledge.log_event(event)
        return event
