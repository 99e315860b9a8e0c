"""Checks of the end-to-end benchmark harness itself.

Run explicitly (it is outside the tier-1 ``testpaths``)::

    python -m pytest benchmarks/e2e/test_harness.py

It drives ``run.py --quick`` (level 3, K <= 3, two repeats: a smoke test of
every code path, not a measurement) and validates what comes out against
``BENCHMARK.json`` and the limits the benchmark contract sets.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

sys.path.insert(0, str(HERE))


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = subprocess.run(
        RUN + ["--quick", "--seed", "7", "--out", str(out)], cwd=ROOT,
        capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    document = json.loads(out.read_text())
    document["_path"] = str(out)
    return document


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_is_within_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert len(spec["workloads"]) == 4
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_benchmark_json_names_the_workloads_the_harness_runs(spec):
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# --------------------------------------------------------------- the quick run
def test_quick_run_reports_every_end_to_end_metric(spec, quick):
    assert quick["schema"] == 1
    machine = quick["machine"]
    for key in ("usable_cores", "python", "numpy", "scipy", "git_commit", "seed"):
        assert key in machine
    assert machine["seed"] == 7 and machine["quick"] is True
    assert list(quick["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, workload in quick["workloads"].items():
        assert workload["ops_attempted"] >= 3, name
        assert workload["ops_failed"] == 0, (name, workload["errors"])
        assert workload["failed_share"] == 0
        assert re.fullmatch(r"[0-9a-f]{64}", workload["state_digest"]), name
        assert workload["host"]["sentinel_ms"] > 0
        for metric in spec["end_to_end"]:
            m = workload["metrics"][metric["name"]]
            assert m["unit"] == metric["unit"]
            assert math.isfinite(m["value"]) and m["value"] > 0, (name, metric)
            assert m["samples"], (name, metric)
    ensemble = quick["workloads"]["ensemble8_plan_l5"]["metrics"]
    assert ensemble["member_steps_per_s"]["value"] == pytest.approx(
        8 * ensemble["steps_per_s"]["value"]
    )


def test_quick_run_measures_every_per_layer_metric(spec, quick):
    assert list(quick["per_layer"]) == [m["name"] for m in spec["per_layer"]]
    assert quick["probe_errors"] == {
        "unavailable": {}, "failed": {}, "not_in_benchmark_json": []
    }
    for metric in spec["per_layer"]:
        m = quick["per_layer"][metric["name"]]
        assert m["unit"] == metric["unit"]
        assert m["value"] is not None and math.isfinite(m["value"]), metric["name"]
    value = {k: m["value"] for k, m in quick["per_layer"].items()}
    assert value["mesh.cells"] == 642 and value["mesh.edges"] == 1920
    assert value["parallel.halo.exchanges_per_step"] == int(
        value["parallel.halo.exchanges_per_step"]
    )
    # The attribution is void when the wrapped kernels do not add up to the
    # step.  10 % is the limit at level 5; at 642 cells a step is ~1.5 ms and
    # Python glue weighs more, so the smoke test allows 25 %.
    assert abs(value["swm.step_residual_pct"]) <= 25.0
    assert value["engine.plan.compile_s"] < value["engine.sparse.compile_s"]


def test_quick_run_writes_the_trace(quick):
    directory = ROOT / quick["trace"]["trace_dir"]
    spans = [json.loads(line) for line in (directory / "trace.jsonl").read_text().splitlines()]
    assert len(spans) == quick["trace"]["spans"] > 100
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["end"] >= s["start"] and s["workload"] == "serial_plan_l5"
        assert s["parent"] is None or s["parent"] in by_id
        assert s["self"] <= (s["end"] - s["start"]) + 1e-9
    wrapped = [s for s in spans if s["name"] == "swm.step.wrapped"]
    kernels = [s for s in spans if s["name"].startswith("engine.kernel.")
               and s["parent"] == wrapped[0]["id"]]
    assert len(kernels) == 4 + 4 + 4 + 3 + 4  # Algorithm 1, one RK-4 step
    chrome = json.loads((directory / "trace.json").read_text())
    assert len(chrome["traceEvents"]) == len(spans)


# --------------------------------------------------------- the driver contract
@pytest.mark.parametrize("trace", [0, 1])
def test_one_workload_run_prints_the_contract_line(spec, trace):
    done = subprocess.run(
        RUN + ["--quick", "--workload", "durable_tc5_l5", "--seed", "3",
               "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = last_json(done.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = spec["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f" {metric['name']} " in done.stdout  # printed by name as well


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serial_plan_l5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert not (tmp_path / ".bench_build").exists()


# ------------------------------------------------------------------- compare
def test_compare_of_a_file_with_itself_exits_zero(quick):
    done = subprocess.run(RUN + ["--compare", quick["_path"], quick["_path"]],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "regressed" not in done.stdout
    assert "steps_per_s" in done.stdout and "host.sentinel_ms" in done.stdout


def test_compare_verdicts():
    from compare import verdict

    def m(value, samples=None):
        return {"value": value, "samples": samples or [value]}

    assert verdict(m(100.0), m(101.0), "higher", 0.1) == "unchanged"
    assert verdict(m(100.0), m(80.0), "higher", 0.1) == "regressed"
    assert verdict(m(100.0), m(120.0), "higher", 0.1) == "improved"
    assert verdict(m(2.0), m(2.5), "lower", 0.1) == "regressed"
    noisy = [70.0, 85.0, 100.0, 115.0, 130.0]
    assert verdict(m(100.0, noisy), m(101.0, noisy), "higher", 0.1) == "unresolved"
    assert verdict(m(100.0, noisy), m(200.0, [180.0, 200.0, 250.0]), "higher", 0.1) == "improved"


def test_compare_exits_nonzero_on_a_regression(spec, quick, tmp_path):
    worse = json.loads(Path(quick["_path"]).read_text())
    metric = worse["workloads"]["serial_plan_l5"]["metrics"]["peak_rss_mb"]
    metric["value"] *= 2
    metric["samples"] = [metric["value"]]
    path = tmp_path / "worse.json"
    path.write_text(json.dumps(worse))
    done = subprocess.run(RUN + ["--compare", quick["_path"], str(path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "regressed" in done.stdout


# ------------------------------------------------------- probe fault tolerance
def test_a_probe_whose_target_is_gone_yields_null_not_failure(monkeypatch, tmp_path):
    import probes
    from spans import SpanRecorder

    def gone(ctx):
        ctx.put("layer.before", 1.0)
        from repro.no_such_module import NoSuchClass  # noqa: F401

    def reshaped(ctx):
        dict(no_such_field=1)["other"]

    def broken(ctx):
        raise RuntimeError("a real error")

    def fine(ctx):
        ctx.put("layer.fine", 2.0)

    monkeypatch.setattr(probes, "PROBES", [gone, reshaped, broken, fine])
    ctx = probes.Context(SpanRecorder("w"), 0, 3, tmp_path, {})
    probes.run_all(ctx)
    assert set(ctx.unavailable) == {"gone", "reshaped"}
    assert set(ctx.failed) == {"broken"}
    assert ctx.metrics == {"layer.before": 1.0, "layer.fine": 2.0}
    assert ctx.attempted == 4


def test_span_self_time_excludes_children():
    from spans import SpanRecorder

    rec = SpanRecorder("w")
    with rec.span("outer") as outer:
        with rec.span("inner") as inner:
            pass
    self_times = rec.self_times()
    inner_s = inner["end"] - inner["start"]
    assert self_times[inner["id"]] == pytest.approx(inner_s)
    assert self_times[outer["id"]] == pytest.approx(
        (outer["end"] - outer["start"]) - inner_s
    )
