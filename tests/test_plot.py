"""ASCII figure renderers."""

from repro.core.plot import bar_chart, line_chart


class TestLineChart:
    def test_empty(self):
        assert line_chart({}) == "(no data)"

    def test_contains_markers_and_legend(self):
        chart = line_chart({"a": [(1, 1), (2, 2)], "b": [(1, 2), (2, 1)]})
        assert "*" in chart
        assert "o" in chart
        assert "* a" in chart
        assert "o b" in chart

    def test_axis_labels(self):
        chart = line_chart({"s": [(0, 0), (10, 100)]}, y_label="GB/s",
                           x_label="bytes", title="ramp")
        assert chart.splitlines()[0] == "ramp"
        assert "GB/s" in chart
        assert "bytes" in chart
        assert "100" in chart  # y max
        assert "10" in chart   # x max

    def test_monotone_series_renders_monotone(self):
        """A strictly rising series never has a later point drawn on a
        lower row than an earlier one."""
        pts = [(x, x * x) for x in range(1, 9)]
        chart = line_chart({"sq": pts})
        rows = [line for line in chart.splitlines() if "|" in line]
        positions = []
        for row_idx, row in enumerate(rows):
            for col_idx, ch in enumerate(row):
                if ch == "*":
                    positions.append((col_idx, row_idx))
        positions.sort()
        row_sequence = [r for _c, r in positions]
        assert row_sequence == sorted(row_sequence, reverse=True)

    def test_log_x_marked(self):
        chart = line_chart({"s": [(1, 1), (1024, 2)]}, log_x=True)
        assert "(log x)" in chart

    def test_flat_series_safe(self):
        chart = line_chart({"flat": [(0, 5), (1, 5), (2, 5)]})
        assert "*" in chart


class TestBarChart:
    def test_empty(self):
        assert bar_chart({}) == "(no data)"

    def test_longest_bar_is_max(self):
        chart = bar_chart({"small": 1.0, "big": 8.0})
        lines = {line.split("|")[0].strip(): line.count("#")
                 for line in chart.splitlines() if "|" in line}
        assert lines["big"] == 50
        assert lines["small"] == 6

    def test_values_printed(self):
        chart = bar_chart({"x": 3.25}, unit=" GB/s")
        assert "3.25 GB/s" in chart

    def test_zero_values_safe(self):
        chart = bar_chart({"a": 0.0, "b": 0.0})
        assert "a" in chart
