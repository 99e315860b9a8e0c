"""Shared benchmark-harness utilities (table/series renderers, paper data)."""

from .paper import FIG6_PAPER, FIG7_PAPER, FIG9_PAPER, TABLE_III_PAPER
from .tables import fmt_time, render_table

__all__ = [
    "FIG6_PAPER",
    "FIG7_PAPER",
    "FIG9_PAPER",
    "TABLE_III_PAPER",
    "fmt_time",
    "render_table",
]
