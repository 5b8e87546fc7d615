"""Dataset registry used by benchmarks, examples, and integration tests.

The registry maps the paper's dataset names to generator factories so the
experiment harness can iterate over "all five datasets" exactly the way the
evaluation section does.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .planet import PlanetStream
from .source import StreamSource
from .stock import StockStream
from .synthetic import DriftingStream, TimeCorrelatedStream, UncorrelatedStream
from .trip import TripStream


def _timer_factory(seed: int = 7) -> StreamSource:
    # The paper's TIMER period is 1e6 over multi-million object streams; the
    # registry scales the period so benchmark-sized streams still contain
    # several monotone up/down stretches per window.
    return TimeCorrelatedStream(period=4_000, seed=seed)


DATASETS: Dict[str, Callable[[], StreamSource]] = {
    "STOCK": lambda: StockStream(seed=17),
    "TRIP": lambda: TripStream(seed=23),
    "PLANET": lambda: PlanetStream(seed=29),
    "TIMEU": lambda: UncorrelatedStream(seed=11),
    "TIMER": _timer_factory,
    # Beyond the paper: a regime-switching stream (abrupt distribution
    # changes, which move the dynamic partitioners' boundaries).
    "DRIFT": lambda: DriftingStream(seed=19),
}


def dataset_names() -> List[str]:
    """Names of the datasets: the paper's five, then the extensions."""
    return ["STOCK", "TRIP", "PLANET", "TIMEU", "TIMER", "DRIFT"]


def make_dataset(name: str) -> StreamSource:
    """Instantiate a dataset generator by (case-insensitive) name."""
    key = name.upper()
    if key not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    return DATASETS[key]()
