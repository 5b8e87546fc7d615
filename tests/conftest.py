"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.core.object import StreamObject
from repro.core.result import results_agree
from repro.engine import StreamEngine


def make_objects(scores, start_t: int = 0) -> List[StreamObject]:
    """Turn a plain list of scores into stream objects with sequential t."""
    return [StreamObject(score=float(s), t=start_t + i) for i, s in enumerate(scores)]


def assert_all_agree(factories, objects, query) -> list:
    """The differential oracle: subscribe each factory's algorithm to one
    :class:`StreamEngine`, push ``objects`` once and assert that every
    answer sequence agrees with the first factory's (the reference).
    Returns the subscriptions in factory order, for their ``metrics``."""
    engine = StreamEngine()
    runs = [
        engine.subscribe(str(i), algorithm=factory(query))
        for i, factory in enumerate(factories)
    ]
    engine.push_many(objects)
    engine.close()
    reference = runs[0].results()
    for run in runs[1:]:
        assert results_agree(reference, run.results()), (
            f"{run.algorithm.name} (#{run.name}) disagrees with {runs[0].algorithm.name}"
        )
    return runs


def random_scores(count: int, seed: int = 0, low: float = 0.0, high: float = 100.0):
    rng = random.Random(seed)
    return [rng.uniform(low, high) for _ in range(count)]


@pytest.fixture
def small_uniform_stream() -> List[StreamObject]:
    """600 objects with scores independent of arrival order."""
    return make_objects(random_scores(600, seed=42))


@pytest.fixture
def decreasing_stream() -> List[StreamObject]:
    """Anti-correlated stream: scores strictly decrease with arrival order."""
    return make_objects([1000.0 - i for i in range(600)])


@pytest.fixture
def increasing_stream() -> List[StreamObject]:
    """Correlated stream: scores strictly increase with arrival order."""
    return make_objects([float(i) for i in range(600)])
