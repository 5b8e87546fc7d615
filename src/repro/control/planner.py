"""The Plan stage: map symptoms to applicable tactics under a policy.

The planner owns *selection*, not mechanism: given the symptoms of one
control tick it walks the policy's ordered rules and emits
:class:`Action` records for the executor.  A rule only produces an action
when its tactic is applicable to the subscription it would act on — both
tactics need a SAP subscription, a partitioner swap must change the
partitioner family, an η retune needs a dynamic partitioner — and when the
subscription is outside its adaptation cooldown, so a persistent symptom
cannot thrash the engine with back-to-back rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.framework import SAPTopK
from ..partitioning.dynamic import DynamicPartitioner
from ..partitioning.enhanced import EnhancedDynamicPartitioner
from ..partitioning.equal import EqualPartitioner
from .analyzers import Symptom
from .knowledge import Knowledge
from .policy import Policy, Rule, Tactic

#: Bounds of the η-scale retune: beyond these the reference interval is
#: either too small for the rank-sum test to mean anything or so large the
#: partitioner degenerates to a single partition per window.
ETA_SCALE_MIN = 0.25
ETA_SCALE_MAX = 4.0

#: Partitioner family addressed by each swap-partitioner target.  Exact
#: type comparison matters: the enhanced partitioner subclasses the
#: dynamic one but is a different family.
_PARTITIONER_FAMILY = {
    "equal": EqualPartitioner,
    "dynamic": DynamicPartitioner,
    "enhanced-dynamic": EnhancedDynamicPartitioner,
}


@dataclass(frozen=True)
class Action:
    """One planned tactic, bound to the subscription it acts on."""

    subscription: object  # engine Subscription handle
    tactic: Tactic
    trigger: str
    evidence: Dict[str, object] = field(default_factory=dict)

    @property
    def subscription_name(self) -> str:
        return self.subscription.name


class Planner:
    """Chooses tactics from the declarative policy."""

    def __init__(self, policy: Policy) -> None:
        self.policy = policy

    # ------------------------------------------------------------------
    def plan(
        self, group, symptoms: List[Symptom], knowledge: Knowledge
    ) -> List[Action]:
        """Actions for one group's control tick, at most one per member."""
        members = {sub.name: sub for sub in group.members()}
        actions: List[Action] = []
        planned: set = set()
        for symptom in symptoms:
            subscription = members.get(symptom.subscription)
            if subscription is None or symptom.subscription in planned:
                continue
            if self._in_cooldown(symptom.subscription, knowledge):
                continue
            for rule in self.policy.rules_for(symptom.kind):
                tactic = self._applicable(rule, subscription)
                if tactic is None:
                    continue
                actions.append(
                    Action(
                        subscription=subscription,
                        tactic=tactic,
                        trigger=symptom.kind,
                        evidence=dict(symptom.evidence),
                    )
                )
                planned.add(symptom.subscription)
                break
        return actions

    # ------------------------------------------------------------------
    def _in_cooldown(self, name: str, knowledge: Knowledge) -> bool:
        last = knowledge.last_adaptation_slide(name)
        if last is None:
            return False
        latest = knowledge.latest_slide_index(name)
        if latest is None:
            return True
        return latest - last < self.policy.cooldown_slides

    def _applicable(self, rule: Rule, subscription) -> Optional[Tactic]:
        """The rule's tactic, parameters resolved, or None if inapplicable."""
        tactic = rule.tactic
        algorithm = subscription.algorithm
        if not isinstance(algorithm, SAPTopK):
            return None
        if tactic.kind == "swap-partitioner":
            family = _PARTITIONER_FAMILY[tactic.params["to"]]
            if type(algorithm.partitioner) is family:
                return None
            return tactic
        # retune-eta, the only other tactic a policy admits.
        partitioner = algorithm.partitioner
        if not isinstance(partitioner, DynamicPartitioner):
            return None
        scale = float(tactic.params["scale"])
        target = min(ETA_SCALE_MAX, max(ETA_SCALE_MIN, partitioner.eta_scale * scale))
        if abs(target - partitioner.eta_scale) < 1e-9:
            return None  # already pinned at the bound
        return Tactic("retune-eta", {"scale": scale, "eta_scale": target})
