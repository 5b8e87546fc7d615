"""Declarative adaptation policies: what to watch and which tactic to take.

A policy is plain data — loadable from a JSON file — so that adaptation
behaviour can be changed without touching code.  It has four parts:

``analyzers``
    Configuration of the symptom detectors (latency / candidates / drift);
    omit a section to disable that detector.  The latency analyzer
    additionally needs the top-level ``latency_budget_seconds``.

``rules``
    An ordered list mapping symptom kinds to tactics.  For each symptom
    the planner walks the rules top to bottom and takes the first rule
    that matches *and* whose tactic is applicable to the subscription
    (e.g. an η retune only applies to SAP with a dynamic partitioner).

``cooldown_slides``
    Minimum number of slides between two applied tactics on the same
    subscription, so the loop cannot thrash.

``load_shedding``
    Opt-in gate for the only approximate tactic.  ``enabled`` defaults to
    False — a policy must explicitly accept approximation — and
    ``max_fraction`` bounds the fraction of the stream a ``load-shed``
    rule may drop.

The file format (see ``examples/control_policy.json``)::

    {
      "latency_budget_seconds": 0.01,
      "cooldown_slides": 64,
      "analyzers": {
        "latency":    {"percentile": 0.95, "window": 32, "min_samples": 16},
        "candidates": {"factor": 3.0, "window": 32},
        "drift":      {"alpha": 0.01, "window": 16}
      },
      "rules": [
        {"when": "score-drift",       "tactic": "swap-partitioner", "to": "enhanced-dynamic"},
        {"when": "candidate-blowup",  "tactic": "retune-eta",       "scale": 1.5},
        {"when": "latency-violation", "tactic": "load-shed",        "stride": 8}
      ],
      "load_shedding": {"enabled": false, "max_fraction": 0.25}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .analyzers import (
    Analyzer,
    CandidateBlowupAnalyzer,
    LatencyBudgetAnalyzer,
    ScoreDriftAnalyzer,
)

#: Tactic names a rule may use.  Each acts on one subscription inside an
#: engine; a rule naming any other tactic is refused.
TACTICS = (
    "swap-partitioner",
    "retune-eta",
    "swap-algorithm",
    "load-shed",
)

#: Default configuration of the latency analyzer, shared by
#: :meth:`Policy.default`, the CLI's ``--latency-budget`` override, and
#: the benchmark's quiet policy (copy before mutating).
DEFAULT_LATENCY_ANALYZER = {"percentile": 0.95, "window": 32, "min_samples": 16}

#: Partitioner families addressable by the swap-partitioner tactic.
PARTITIONER_TARGETS = ("equal", "dynamic", "enhanced-dynamic")


@dataclass(frozen=True)
class Tactic:
    """One adaptation action, fully parameterised."""

    kind: str
    params: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        if not self.params:
            return self.kind
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class Rule:
    """``when`` a symptom kind fires, take ``tactic``."""

    when: str
    tactic: Tactic

    @staticmethod
    def from_dict(raw: Dict[str, object]) -> "Rule":
        data = dict(raw)
        try:
            when = data.pop("when")
            kind = data.pop("tactic")
        except KeyError as missing:
            raise ValueError(f"a rule needs both 'when' and 'tactic': {raw}") from missing
        if kind not in TACTICS:
            raise ValueError(f"unknown tactic {kind!r}; known: {TACTICS}")
        if kind == "swap-partitioner":
            target = data.get("to")
            if target not in PARTITIONER_TARGETS:
                raise ValueError(
                    f"swap-partitioner needs 'to' in {PARTITIONER_TARGETS}, got {target!r}"
                )
        if kind == "retune-eta":
            scale = data.get("scale")
            if not isinstance(scale, (int, float)) or scale <= 0:
                raise ValueError(f"retune-eta needs a positive 'scale', got {scale!r}")
        if kind == "swap-algorithm" and not data.get("to"):
            raise ValueError("swap-algorithm needs a 'to' algorithm name")
        if kind == "load-shed":
            stride = data.get("stride", 8)
            if not isinstance(stride, int) or stride < 2:
                raise ValueError(f"load-shed 'stride' must be an int >= 2, got {stride!r}")
            data["stride"] = stride
        return Rule(when=str(when), tactic=Tactic(kind=str(kind), params=data))


@dataclass(frozen=True)
class LoadSheddingConfig:
    enabled: bool = False
    max_fraction: float = 0.25

    @staticmethod
    def from_dict(raw: Optional[Dict[str, object]]) -> "LoadSheddingConfig":
        if not raw:
            return LoadSheddingConfig()
        fraction = float(raw.get("max_fraction", 0.25))
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"max_fraction must be in (0, 1), got {fraction}")
        return LoadSheddingConfig(
            enabled=bool(raw.get("enabled", False)), max_fraction=fraction
        )


@dataclass
class Policy:
    """A fully resolved adaptation policy."""

    rules: List[Rule] = field(default_factory=list)
    cooldown_slides: int = 64
    #: Run the analyzers every this-many slides per group (1 = every slide
    #: boundary).  Analysis windows span dozens of slides, so a small
    #: stride loses nothing while keeping idle-controller overhead low.
    analysis_interval_slides: int = 8
    latency_budget_seconds: Optional[float] = None
    analyzer_config: Dict[str, Dict[str, object]] = field(default_factory=dict)
    load_shedding: LoadSheddingConfig = field(default_factory=LoadSheddingConfig)

    # ------------------------------------------------------------------
    def build_analyzers(self) -> List[Analyzer]:
        """Instantiate the configured symptom detectors."""
        analyzers: List[Analyzer] = []
        latency = self.analyzer_config.get("latency")
        if latency is not None and self.latency_budget_seconds is not None:
            analyzers.append(
                LatencyBudgetAnalyzer(self.latency_budget_seconds, **latency)
            )
        candidates = self.analyzer_config.get("candidates")
        if candidates is not None:
            analyzers.append(CandidateBlowupAnalyzer(**candidates))
        drift = self.analyzer_config.get("drift")
        if drift is not None:
            analyzers.append(ScoreDriftAnalyzer(**drift))
        return analyzers

    def rules_for(self, symptom_kind: str) -> List[Rule]:
        return [rule for rule in self.rules if rule.when == symptom_kind]

    # ------------------------------------------------------------------
    @staticmethod
    def from_dict(raw: Dict[str, object]) -> "Policy":
        known = {
            "rules",
            "cooldown_slides",
            "analysis_interval_slides",
            "latency_budget_seconds",
            "analyzers",
            "load_shedding",
        }
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown policy keys: {unknown}; known: {sorted(known)}")
        cooldown = int(raw.get("cooldown_slides", 64))
        if cooldown < 0:
            raise ValueError(f"cooldown_slides must be >= 0, got {cooldown}")
        interval = int(raw.get("analysis_interval_slides", 8))
        if interval < 1:
            raise ValueError(f"analysis_interval_slides must be >= 1, got {interval}")
        budget = raw.get("latency_budget_seconds")
        if budget is not None:
            budget = float(budget)
            if budget <= 0:
                raise ValueError(f"latency_budget_seconds must be positive, got {budget}")
        analyzers_raw = raw.get("analyzers", {})
        if not isinstance(analyzers_raw, dict):
            raise ValueError("'analyzers' must be a mapping of detector sections")
        rules_raw = raw.get("rules", [])
        if not isinstance(rules_raw, Sequence) or isinstance(rules_raw, (str, bytes)):
            raise ValueError("'rules' must be a list of rule objects")
        return Policy(
            rules=[Rule.from_dict(rule) for rule in rules_raw],
            cooldown_slides=cooldown,
            analysis_interval_slides=interval,
            latency_budget_seconds=budget,
            analyzer_config={k: dict(v) for k, v in analyzers_raw.items()},
            load_shedding=LoadSheddingConfig.from_dict(raw.get("load_shedding")),
        )

    @staticmethod
    def from_file(path: str) -> "Policy":
        with open(path, "r", encoding="utf-8") as handle:
            return Policy.from_dict(json.load(handle))

    @staticmethod
    def default(latency_budget_seconds: Optional[float] = None) -> "Policy":
        """The built-in policy: react to drift and candidate blowup with
        exact tactics; load shedding stays off (answers stay exact).

        The drift rule swaps a dynamic-partitioner SAP query to the equal
        partitioner: the WRT-driven sizing pays off when the score
        distribution is stable enough for its statistical tests to buy
        candidate savings, and under regime switching it keeps paying the
        test cost without the savings (measured in ``BENCH_control.json``).
        Queries already on the equal partitioner are left alone — a policy
        preferring the opposite direction just sets ``"to"`` accordingly.

        Passing ``latency_budget_seconds`` enables the latency analyzer
        *and* a rule consuming its symptom (swap to the cheap equal
        partitioner), so the budget actually drives adaptation instead of
        detecting violations nobody reacts to.
        """
        rules = [
            Rule(
                when="score-drift",
                tactic=Tactic("swap-partitioner", {"to": "equal"}),
            ),
            Rule(when="candidate-blowup", tactic=Tactic("retune-eta", {"scale": 1.5})),
        ]
        analyzer_config: Dict[str, Dict[str, object]] = {
            "candidates": {"factor": 3.0, "window": 32},
            "drift": {"alpha": 0.01, "window": 16},
        }
        if latency_budget_seconds is not None:
            analyzer_config["latency"] = dict(DEFAULT_LATENCY_ANALYZER)
            rules.append(
                Rule(
                    when="latency-violation",
                    tactic=Tactic("swap-partitioner", {"to": "equal"}),
                )
            )
        return Policy(
            rules=rules,
            latency_budget_seconds=latency_budget_seconds,
            analyzer_config=analyzer_config,
        )

    def describe(self) -> Dict[str, object]:
        return {
            "cooldown_slides": self.cooldown_slides,
            "analysis_interval_slides": self.analysis_interval_slides,
            "latency_budget_seconds": self.latency_budget_seconds,
            "analyzers": {k: dict(v) for k, v in self.analyzer_config.items()},
            "rules": [
                {"when": rule.when, "tactic": rule.tactic.describe()}
                for rule in self.rules
            ],
            "load_shedding": {
                "enabled": self.load_shedding.enabled,
                "max_fraction": self.load_shedding.max_fraction,
            },
        }
