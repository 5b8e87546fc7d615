"""Unit tests for the text chart rendering used by the figure benchmarks."""

ROWS = [
    {"algorithm": "SAP", "value": 100, "seconds": 0.1},
    {"algorithm": "MinTopK", "value": 100, "seconds": 0.4},
    {"algorithm": "SAP", "value": 200, "seconds": 0.2},
    {"algorithm": "MinTopK", "value": 200, "seconds": 0.3},
]


class TestSeriesGrouping:
    def test_group_by_algorithm_and_value(self, harness):
        series = harness.series_from_rows(ROWS)
        assert series == {
            "SAP": {100: 0.1, 200: 0.2},
            "MinTopK": {100: 0.4, 200: 0.3},
        }

    def test_alternative_metric(self, harness):
        rows = [dict(row, candidates=row["seconds"] * 10) for row in ROWS]
        series = harness.series_from_rows(rows, value_key="candidates")
        assert series["SAP"][100] == 1.0


class TestRendering:
    def test_chart_contains_all_algorithms_and_values(self, harness):
        chart = harness.render_sweep("Fig X", ROWS)
        assert "Fig X" in chart
        assert "parameter value = 100" in chart and "parameter value = 200" in chart
        assert chart.count("SAP") == 2 and chart.count("MinTopK") == 2

    def test_bars_scaled_to_worst_per_value(self, harness):
        chart = harness.render_sweep("Fig X", ROWS)
        lines = chart.splitlines()
        first_block = lines[lines.index("parameter value = 100") : lines.index("parameter value = 100") + 3]
        sap_bar = next(line for line in first_block if "SAP" in line)
        mintopk_bar = next(line for line in first_block if "MinTopK" in line)
        assert sap_bar.count("#") < mintopk_bar.count("#")

    def test_empty_series(self, harness):
        assert harness.render_series_chart("nothing", {}) == "nothing"

    def test_values_printed_with_unit(self, harness):
        chart = harness.render_sweep("Fig X", ROWS, unit="s")
        assert "0.4000s" in chart
