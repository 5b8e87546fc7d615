"""Workload definitions: scaled-down versions of the paper's parameters.

The paper streams gigabytes of data through C++ implementations; this
reproduction runs pure Python, so the harness scales every quantity down
while keeping the *ratios* the paper varies:

* the window covers a fixed fraction of the stream (the paper's default is
  ``n = 0.1%·|D|``; here the stream is short, so the window fraction is
  larger but still leaves dozens of window slides per run);
* the slide is a fraction of the window (paper default ``s = 0.1%·n``,
  swept up to ``10%·n``; tiny absolute slides are infeasible in Python so
  the quick scale starts at 1%);
* ``k`` is swept over the same ratios to the window size as in the paper.

Two scales are provided: ``QUICK_SCALE`` (default, minutes for the whole
suite) and ``FULL_SCALE`` (set ``REPRO_BENCH_SCALE=full``) for longer runs
that sharpen the measured ratios.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from ..core.object import StreamObject
from ..streams import make_dataset


@dataclass(frozen=True)
class BenchScale:
    """Sizes and parameter grids used by the benchmark suite."""

    name: str
    stream_length: int
    #: Default query parameters (n, k, s).
    default_n: int
    default_k: int
    default_s: int
    #: Values swept for the "effect of n / k / s" experiments.
    n_values: Tuple[int, ...]
    k_values: Tuple[int, ...]
    s_values: Tuple[int, ...]
    #: Partition resolutions for the Table 2 sweep.
    m_values: Tuple[int, ...]
    #: High-speed-stream parameters (Tables 5, 7, 9).
    highspeed_n: int = 0
    highspeed_k: int = 0
    highspeed_s: int = 0

    def default_query_params(self) -> Tuple[int, int, int]:
        return self.default_n, self.default_k, self.default_s


QUICK_SCALE = BenchScale(
    name="quick",
    stream_length=8_000,
    default_n=1_000,
    default_k=20,
    default_s=10,
    n_values=(500, 1_000, 2_000),
    k_values=(10, 20, 50),
    s_values=(10, 50, 100),
    m_values=(1, 2, 3, 5, 7, 9, 13, 17),
    highspeed_n=2_500,
    highspeed_k=100,
    highspeed_s=400,
)

FULL_SCALE = BenchScale(
    name="full",
    stream_length=12_000,
    default_n=1_200,
    default_k=50,
    default_s=60,
    n_values=(600, 1_200, 2_400),
    k_values=(10, 50, 200),
    s_values=(12, 60, 240),
    m_values=(1, 3, 5, 7, 9, 13, 17, 25, 33),
    highspeed_n=3_600,
    highspeed_k=200,
    highspeed_s=600,
)


#: Tiny scale for CI smoke jobs: a stream of a few thousand objects still
#: exercises every code path (window fills, partitions seal, fronts
#: retire) in a couple of seconds, but the measured ratios are too noisy
#: to compare against the paper.
SMOKE_SCALE = BenchScale(
    name="smoke",
    stream_length=3_000,
    default_n=400,
    default_k=10,
    default_s=20,
    n_values=(400,),
    k_values=(10,),
    s_values=(20,),
    m_values=(1, 3),
    highspeed_n=600,
    highspeed_k=20,
    highspeed_s=100,
)


def scale_from_env() -> BenchScale:
    """Pick the benchmark scale from ``REPRO_BENCH_SCALE`` (smoke/quick/full)."""
    value = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if value == "full":
        return FULL_SCALE
    if value == "smoke":
        return SMOKE_SCALE
    return QUICK_SCALE


@lru_cache(maxsize=16)
def _cached_stream(dataset: str, length: int) -> Tuple[StreamObject, ...]:
    return tuple(make_dataset(dataset).take(length))


def dataset_stream(dataset: str, length: int) -> List[StreamObject]:
    """Materialise (and cache) ``length`` objects of a named dataset."""
    return list(_cached_stream(dataset, length))


#: Dataset groups used by the individual experiments.
REAL_DATASETS: Tuple[str, ...] = ("STOCK", "TRIP", "PLANET")
SYNTHETIC_DATASETS: Tuple[str, ...] = ("TIMEU", "TIMER")
ALL_DATASETS: Tuple[str, ...] = REAL_DATASETS + SYNTHETIC_DATASETS
