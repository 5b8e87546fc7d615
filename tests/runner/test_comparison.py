"""Tests of ``repro compare``: several algorithms over one stream, with the
answers checked against the first one listed."""

import pytest

from repro.cli import main
from repro.core.interface import ContinuousTopKAlgorithm
from repro.core.result import TopKResult
from repro.registry import register_factory, unregister_algorithm


class _DeliberatelyWrong(ContinuousTopKAlgorithm):
    """Returns the bottom-k instead of the top-k (for negative testing)."""

    name = "wrong"

    def __init__(self, query):
        super().__init__(query)
        self._window = []

    def process_slide(self, event):
        expired = {o.t for o in event.expirations}
        self._window = [o for o in self._window if o.t not in expired]
        self._window.extend(event.arrivals)
        worst = sorted(self._window, key=lambda o: o.rank_key)[: self.query.k]
        return TopKResult.from_objects(event.index, event.window_end, worst)


@pytest.fixture(autouse=True)
def wrong_algorithm():
    register_factory("wrong", _DeliberatelyWrong)
    yield
    unregister_algorithm("wrong")


def _compare(capsys, *algorithms):
    """Exit code, output and the algorithm column of the table."""
    exit_code = main(
        ["compare", "--objects", "360", "--n", "60", "--k", "4", "--s", "6",
         "--algorithms", *algorithms]
    )
    out = capsys.readouterr().out
    lines = out.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    return exit_code, out, [line[:24].strip() for line in lines[rule + 1:]]


class TestCompareAlgorithms:
    def test_exact_algorithms_agree(self, capsys):
        exit_code, out, names = _compare(capsys, "brute-force", "SAP", "k-skyband")
        assert exit_code == 0
        assert "agreement : True" in out
        assert names == ["brute-force", "SAP[enhanced-dynamic]", "k-skyband"]

    def test_detects_disagreement(self, capsys):
        exit_code, out, names = _compare(capsys, "brute-force", "wrong")
        assert exit_code == 2
        assert "agreement : False" in out
        assert names == ["brute-force", "wrong"]

    def test_single_algorithm(self, capsys):
        exit_code, out, names = _compare(capsys, "brute-force")
        assert exit_code == 0
        assert "agreement : True" in out and names == ["brute-force"]


class TestDuplicateDisplayNames:
    def test_same_named_configurations_both_reported_and_checked(self, capsys):
        # Both runs keep their own row (the second gets a "#2" suffix), so
        # the agreement check actually compares them.
        exit_code, _, names = _compare(capsys, "SAP", "SAP")
        assert exit_code == 0
        assert names == ["SAP[enhanced-dynamic]", "SAP[enhanced-dynamic] #2"]

    def test_duplicate_wrong_algorithm_detected(self, capsys):
        exit_code, _, names = _compare(capsys, "wrong", "wrong", "SAP")
        assert exit_code == 2
        assert names == ["wrong", "wrong #2", "SAP[enhanced-dynamic]"]
