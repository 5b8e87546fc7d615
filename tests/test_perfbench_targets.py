"""Every program name the benchmark's per-layer tracer wraps still exists.

``perfbench/tracing.py`` replaces program methods and functions by
attribute name, from outside the program, for its ``--trace 1`` rows.  A
renamed or deleted target otherwise only shows up in the traced
benchmark runs.  This test installs the tracer as the benchmark does,
checks that every target resolves — a method in its class's own
``__dict__``, where the tracer looks it up — and that uninstalling puts
every original back.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing

        yield tracing
    finally:
        sys.path.remove(PERFBENCH)


def _binding(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_traced_name_resolves_and_uninstall_restores_it(tracing):
    targets = tracing._targets()
    for span, owner, attr, _ in targets:
        where = owner.__dict__ if isinstance(owner, type) else vars(owner)
        assert attr in where, f"{span}: {owner.__name__}.{attr} is gone"
    originals = {(owner, attr): _binding(owner, attr) for _, owner, attr, _ in targets}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            assert _binding(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert _binding(owner, attr) is original, f"{owner.__name__}.{attr}"
