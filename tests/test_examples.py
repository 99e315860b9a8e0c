"""Smoke tests: every example script runs end-to-end at small scale."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(script: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = _run("quickstart.py", "2")
    assert "Error vs the exact steady solution" in out
    assert "mass drift" in out


def test_quickstart_sparse_backend():
    out = _run("quickstart.py", "2", "sparse")
    assert "backend = sparse" in out
    assert "Error vs the exact steady solution" in out


def test_mountain_wave():
    out = _run("mountain_wave.py", "1", "2")
    assert "Total height h + b" in out
    assert "max relative" in out


def test_hybrid_scheduling():
    out = _run("hybrid_scheduling.py", "40962")
    assert "Table I" in out
    assert "pattern-driven" in out
    assert "makespan" in out


@pytest.mark.slow
def test_scaling_study():
    out = _run("scaling_study.py")
    assert "strong scaling" in out
    assert "bitwise identical to serial: True" in out


def test_rossby_wave():
    out = _run("rossby_wave.py", "4", "3")
    assert "phase speed" in out
    assert "ratio" in out
