"""Unit tests of the benchmark-harness rendering utilities."""

from __future__ import annotations

from repro.bench import (
    FIG6_PAPER,
    FIG7_PAPER,
    TABLE_III_PAPER,
    fmt_time,
    render_table,
)
from tests.oracles.harness import fmt_speedup, render_series


class TestFormatting:
    def test_fmt_time_scales(self):
        assert fmt_time(2.5) == "2.500 s"
        assert fmt_time(0.002) == "2.00 ms"
        assert fmt_time(5e-6) == "5.0 us"

    def test_fmt_speedup(self):
        assert fmt_speedup(8.349) == "8.35x"


class TestRenderTable:
    def test_contains_cells(self):
        out = render_table("T", ["a", "bb"], [[1, 22], [333, 4]])
        assert "T" in out and "333" in out and "bb" in out

    def test_column_alignment(self):
        out = render_table("T", ["col"], [["x"], ["longer"]])
        lines = out.splitlines()
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1  # all rows padded to equal width

    def test_render_series(self):
        out = render_series(
            "S", "n", [1, 2], {"cpu": [1.0, 2.0], "mic": [0.5, 0.25]}
        )
        assert "cpu" in out and "mic" in out and "500.00 ms" in out


class TestPaperData:
    def test_fig7_consistency(self):
        # The quoted headline speedups are recoverable from the bars.
        serial, kernel, pattern = FIG7_PAPER[2621442]
        assert abs(serial / kernel - 6.05) < 0.05
        assert abs(serial / pattern - 8.35) < 0.05

    def test_fig6_monotone(self):
        values = list(FIG6_PAPER.values())
        assert values == sorted(values)

    def test_table3_matches_formula(self):
        for cells in TABLE_III_PAPER.values():
            # Every mesh is icosahedral: 10 * 4^k + 2.
            k = 0
            while 10 * 4**k + 2 < cells:
                k += 1
            assert 10 * 4**k + 2 == cells
