"""Helpers of the case catalogue and the table renderers that only the
tests call."""

from __future__ import annotations

from typing import Sequence

from repro.bench import fmt_time, render_table
from repro.swm.scenarios import PERTURBED_PREFIX, resolve, scenario
from repro.swm.testcases import TestCase


def canonical_name(case: TestCase | str | int) -> str:
    """The stable identity a case token resolves to.

    Catalogue aliases collapse to the canonical scenario name; perturbed
    tokens resolve to their parameter-encoding case name; built cases
    report their own name.
    """
    if isinstance(case, TestCase):
        return case.name
    if isinstance(case, str) and case.strip().lower().startswith(
        f"{PERTURBED_PREFIX}:"
    ):
        return resolve(case).name
    return scenario(case).name


def render_series(
    title: str,
    x_label: str,
    xs: Sequence[object],
    series: dict[str, Sequence[float]],
    fmt=fmt_time,
) -> str:
    """Figure data as a table: one row per x, one column per series."""
    headers = [x_label, *series.keys()]
    rows = [[x, *(fmt(series[name][i]) for name in series)] for i, x in enumerate(xs)]
    return render_table(title, headers, rows)


def fmt_speedup(x: float) -> str:
    return f"{x:.2f}x"
