"""The Execute stage: apply planned tactics to a running engine.

Mechanism only, no judgement: the executor receives the planner's actions
and carries them out, logging every outcome to the knowledge store's
adaptation event log.  Tactics that reconfigure query execution build
fresh algorithm instances and hand them to
:meth:`repro.engine.group.QueryGroup.rebuild`, which drops the affected
plans at the current slide boundary and re-admits the affected members
with their new instances, replaying the live window into them — so a swap
is answer-preserving by construction.  Load shedding is an engine-level
valve operated through the controller, with its cost recorded in the
knowledge store's shedding account.

A tactic whose runtime preconditions fail (for example an algorithm swap
to MinTopK when the window's arrival orders are not contiguous, which its
position arithmetic requires) is *declined*, not errored: the event log
records it with ``applied=False`` and the engine keeps running untouched.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..baselines.mintopk import MinTopK
from ..core.framework import SAPTopK
from ..core.interface import ContinuousTopKAlgorithm
from ..registry import create_algorithm
from .knowledge import AdaptationEvent, Knowledge
from .planner import Action, _PARTITIONER_FAMILY


class Executor:
    """Applies tactics; every outcome lands in the adaptation event log."""

    def __init__(self, knowledge: Knowledge) -> None:
        self.knowledge = knowledge

    # ------------------------------------------------------------------
    def execute(self, group, actions: List[Action], controller) -> List[AdaptationEvent]:
        """Apply one tick's actions for one group.

        All rebuild-type tactics of the tick are folded into a single
        :meth:`QueryGroup.rebuild` call, so co-triggered swaps share one
        window replay.  Engine-level tactics (shedding) go through the
        controller's valve.
        """
        slide_index = group.last_slide_index() or 0
        events: List[AdaptationEvent] = []
        replacements: Dict[str, ContinuousTopKAlgorithm] = {}
        rebuild_actions: List[Tuple[Action, Dict[str, object]]] = []

        for action in actions:
            kind = action.tactic.kind
            if kind == "load-shed":
                stride = int(action.tactic.params["stride"])
                controller.engage_shedding(stride)
                events.append(
                    self._log(slide_index, action, True, {"stride": stride})
                )
                continue
            if kind == "load-recover":
                account = controller.disengage_shedding()
                events.append(self._log(slide_index, action, True, account))
                continue
            replacement, detail, reason = self._build_replacement(group, action)
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
    def _build_replacement(
        self, group, action: Action
    ) -> Tuple[Optional[ContinuousTopKAlgorithm], Dict[str, object], str]:
        """(replacement, detail, decline-reason) for one rebuild tactic."""
        tactic = action.tactic
        algorithm = action.subscription.algorithm
        if not self._rebuild_safe(group, action.subscription):
            # Rebuilding dissolves the subscription's shared plan, which
            # collaterally respawns its plan siblings from live window
            # state — MinTopK siblings need contiguous arrival orders for
            # that, just like a direct swap to MinTopK does.
            return (
                None,
                {},
                "a MinTopK plan sibling cannot adopt this window "
                "(arrival orders are not contiguous slide-aligned)",
            )
        if tactic.kind == "swap-partitioner":
            target = str(tactic.params["to"])
            if not isinstance(algorithm, SAPTopK):
                return None, {}, "not a SAP subscription"
            family = _PARTITIONER_FAMILY[target]
            replacement = algorithm.with_partitioner(family())
            return (
                replacement,
                {"from": algorithm.partitioner.name, "to": target},
                "",
            )
        if tactic.kind == "retune-eta":
            if not isinstance(algorithm, SAPTopK):
                return None, {}, "not a SAP subscription"
            partitioner = algorithm.partitioner
            if not hasattr(partitioner, "retuned"):
                return None, {}, f"partitioner {partitioner.name} has no eta"
            target_scale = float(tactic.params["eta_scale"])
            replacement = algorithm.with_partitioner(partitioner.retuned(target_scale))
            return (
                replacement,
                {"from_eta_scale": partitioner.eta_scale, "to_eta_scale": target_scale},
                "",
            )
        if tactic.kind == "swap-algorithm":
            target = str(tactic.params["to"])
            query = action.subscription.query
            if target == "MinTopK" and not self._mintopk_adoptable(group):
                return (
                    None,
                    {},
                    "window arrival orders are not contiguous slide-aligned",
                )
            try:
                replacement = create_algorithm(target, query)
            except (KeyError, ValueError, TypeError) as error:
                return None, {}, f"cannot build {target!r}: {error}"
            return replacement, {"from": algorithm.name, "to": target}, ""
        return None, {}, f"unknown tactic {tactic.kind!r}"

    def _rebuild_safe(self, group, subscription) -> bool:
        """True when rebuilding ``subscription`` cannot corrupt a sibling.

        A rebuild drops the plan containing the subscription and respawns
        the plan's other members from the live window; if any of those
        members runs MinTopK, the window must satisfy MinTopK's adoption
        precondition even though the tactic itself targets a different
        member.  (Joins never respawn a member, so only rebuilds check.)
        """
        for plan in group.plans():
            members = plan.subscriptions()
            if subscription not in members:
                continue
            if any(
                member is not subscription and isinstance(member.algorithm, MinTopK)
                for member in members
            ):
                return self._mintopk_adoptable(group)
        return True

    @staticmethod
    def _mintopk_adoptable(group) -> bool:
        """MinTopK derives window positions from arrival orders: adopting
        it mid-stream requires the live window to be exactly the arrival
        orders ``[index·s, index·s + n - 1]``."""
        index = group.last_slide_index()
        if index is None:
            return False
        contents = group.window_contents()
        if len(contents) != group.n:
            return False
        first, last = contents[0].t, contents[-1].t
        return first == index * group.s and last - first == group.n - 1

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
