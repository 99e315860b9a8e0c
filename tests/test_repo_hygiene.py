"""Repository hygiene: no build artifacts may ever be tracked again.

PR 2 accidentally committed 47 ``__pycache__/*.pyc`` files; this module is
the regression guard.  It asks git itself (``git ls-files``), so it catches
tracked artifacts regardless of what happens to be on disk.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Path fragments that must never appear in the tracked file list.
FORBIDDEN = ("__pycache__", ".pyc", ".pytest_cache", ".hypothesis", ".benchmarks")

#: Patterns the .gitignore must carry so the artifacts cannot return.
REQUIRED_IGNORES = (
    "__pycache__/",
    "*.pyc",
    ".pytest_cache/",
    ".hypothesis/",
    ".benchmarks/",
)


def _tracked_files() -> list[str]:
    if shutil.which("git") is None or not (REPO / ".git").exists():
        pytest.skip("not a git checkout")
    result = subprocess.run(
        ["git", "ls-files"], cwd=REPO, capture_output=True, text=True, timeout=60
    )
    if result.returncode != 0:
        pytest.skip(f"git ls-files failed: {result.stderr.strip()}")
    return result.stdout.splitlines()


def test_no_tracked_build_artifacts():
    offenders = [
        path
        for path in _tracked_files()
        for fragment in FORBIDDEN
        if fragment in path
    ]
    assert not offenders, (
        f"{len(offenders)} build artifacts are tracked by git "
        f"(e.g. {offenders[:3]}); `git rm --cached` them"
    )


def test_gitignore_covers_artifacts():
    gitignore = (REPO / ".gitignore").read_text().splitlines()
    missing = [pat for pat in REQUIRED_IGNORES if pat not in gitignore]
    assert not missing, f".gitignore lacks {missing}"


def test_every_golden_file_is_consumed():
    """``tests/golden/`` holds exactly the files the golden matrix reads.

    A stale golden — left behind by a renamed case or a dropped backend —
    passes every test while looking like coverage; conversely a cell whose
    file was never generated fails only when that cell runs.  Comparing
    the directory listing against the matrix's own
    ``expected_golden_files()`` catches both directions.
    """
    import sys

    sys.path.insert(0, str(REPO / "tests"))
    try:
        from test_golden import GOLDEN_DIR, expected_golden_files
    finally:
        sys.path.pop(0)

    on_disk = {p.name for p in GOLDEN_DIR.glob("*.json")}
    expected = expected_golden_files()
    stale = sorted(on_disk - expected)
    missing = sorted(expected - on_disk)
    assert not stale, (
        f"orphaned golden files no test reads: {stale}; delete them or "
        f"add their cells to tests/test_golden.py"
    )
    assert not missing, (
        f"golden files the matrix expects are missing: {missing}; "
        f"regenerate with REPRO_GOLDEN_REGEN=1 pytest tests/test_golden.py"
    )


def test_every_source_package_has_an_init():
    """Every directory under src/repro that ships tracked .py files must be
    a real package — a missing ``__init__.py`` makes the modules silently
    unimportable by ``pip install`` consumers while still passing the
    path-based test suite."""
    tracked = _tracked_files()
    package_dirs = {
        str(Path(path).parent)
        for path in tracked
        if path.startswith("src/repro/") and path.endswith(".py")
    }
    missing = sorted(
        d for d in package_dirs if f"{d}/__init__.py" not in tracked
    )
    assert not missing, (
        f"source directories without a tracked __init__.py: {missing}"
    )


def _scopes_containing(predicate) -> set[tuple[str, str]]:
    """``(file, scope)`` of every outermost scope of ``src/repro`` (module
    level function, or method as ``Class.name`` — a helper nested in a
    function belongs to it) holding an AST node ``predicate`` accepts."""
    import ast

    found = set()
    root = REPO / "src" / "repro"
    for path in sorted(root.rglob("*.py")):
        scopes = []
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            prefix = f"{top.name}." if isinstance(top, ast.ClassDef) else ""
            scopes += [(prefix + getattr(m, "name", "<module>"), m) for m in members]
        for name, scope in scopes:
            if any(predicate(n) for n in ast.walk(scope)):
                found.add((str(path.relative_to(root)), name))
    return found


def test_the_rk_stages_are_written_once():
    """Exactly one function in ``src/repro`` loops over the four RK stages
    or subscripts the RK weight tables: ``swm/timestep.rk4_step``, the step
    program every executor runs.  Five drifting copies were collapsed into
    it; a new executor passes it ranks and a ``HaloTransport`` instead of
    writing a sixth."""
    import ast

    weights = {"RK_ACCUMULATE_WEIGHTS", "RK_SUBSTEP_WEIGHTS"}

    def steps_the_stages(node: ast.AST) -> bool:
        if isinstance(node, ast.For):
            it = node.iter
            return (
                isinstance(it, ast.Call)
                and getattr(it.func, "id", None) == "range"
                and [getattr(a, "value", None) for a in it.args] == [4]
            )
        if isinstance(node, ast.Subscript):
            value = node.value
            return getattr(value, "id", getattr(value, "attr", None)) in weights
        return False

    found = _scopes_containing(steps_the_stages)
    assert found == {("swm/timestep.py", "rk4_step")}, (
        f"RK stage loops / weight subscripts outside the one step program: "
        f"{sorted(found - {('swm/timestep.py', 'rk4_step')})}; run "
        f"repro.swm.timestep.rk4_step with a HaloTransport instead"
    )


def test_there_is_one_run_loop():
    """``ShallowWaterModel.run`` is the only run driver: the only function
    that fires the per-step ``process.crash`` site or records invariants
    into a history, and the only module that asks which executor
    ``config.parallel`` names.  Six step counters, three ``RunResult``
    builders and three mode dispatches had drifted apart (lockstep ignored
    the retry knobs; invariants, callbacks and guards were "serial only")."""
    import ast

    import repro.parallel

    def called(node, name):
        return isinstance(node, ast.Call) and name == getattr(
            node.func, "attr", getattr(node.func, "id", None)
        )

    def crash_site(node):
        return called(node, "fault_site") and [
            getattr(a, "value", None) for a in node.args
        ] == ["process.crash"]

    def invariant_record(node):
        return called(node, "append") and any(
            called(a, "invariants") for a in node.args
        )

    def asks_the_mode(node):
        if not isinstance(node, ast.Compare):
            return False
        operands = [node.left, *node.comparators]
        return any(
            isinstance(o, ast.Attribute) and o.attr == "parallel"
            and getattr(o.value, "id", None) != "args"  # argparse, not SWConfig
            for o in operands
        ) and any(isinstance(o, ast.Constant) for o in operands)

    the_loop = ("swm/model.py", "ShallowWaterModel.run")
    # Per-member verdicts are a different contract from the watchdog's: the
    # ensemble keeps its judge loop (documented in EnsembleRun.execute).
    per_member = ("ensemble/run.py", "EnsembleRun.execute")
    assert _scopes_containing(crash_site) == {the_loop}
    assert _scopes_containing(invariant_record) == {the_loop, per_member}
    elsewhere = {
        where for where in _scopes_containing(asks_the_mode)
        if where[0] != "swm/model.py" and where != ("swm/config.py", "SWConfig.validate")
    }
    assert not elsewhere, (
        f"config.parallel compared to a mode name in {sorted(elsewhere)}; build "
        f"a ShallowWaterModel and call run()/advance() instead"
    )
    assert not hasattr(repro.parallel, "gathered_run_result")


def test_the_parallel_layer_has_one_wait_primitive():
    """Nothing under ``src/repro/parallel`` constructs a ``Barrier`` or a
    ``Condition``: ranks meet only through ``shm.SyncBoard``'s polled
    counters.  A parked wait costs a 200-500 us wake-up at every one of the
    16 syncs of a step, which is what made two ranks lose to one."""
    import ast

    found = []
    root = REPO / "src" / "repro" / "parallel"
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in ("Barrier", "Condition"):
                    found.append(f"{path.relative_to(root)}:{node.lineno} {name}(")
    assert not found, (
        f"sleeping wait primitives in the parallel layer: {found}; wait on "
        f"repro.parallel.shm.SyncBoard instead"
    )


def test_threads_and_pinning_live_in_the_one_worker_helper():
    """Under ``src/repro/{ensemble,engine,swm}`` only ``ensemble/run._sweep``
    starts a thread or sets an affinity mask: the ensemble's member blocks
    are the one place the numerical core runs on more than the calling
    thread, and how many threads is read from ``os.sched_getaffinity`` —
    there is no field, flag or environment variable to count."""
    import ast
    import dataclasses

    from repro.swm.config import SWConfig

    names = {"sched_setaffinity", "ThreadPoolExecutor", "Thread"}

    def starts_or_pins(node: ast.AST) -> bool:
        return getattr(node, "attr", getattr(node, "id", None)) in names

    found = {
        where for where in _scopes_containing(starts_or_pins)
        if where[0].split("/")[0] in ("ensemble", "engine", "swm")
    }
    assert found == {("ensemble/run.py", "_sweep")}, sorted(found)
    assert len(dataclasses.fields(SWConfig)) == 29, "a new knob on SWConfig"


def test_one_function_writes_operator_archives():
    """One function of ``src/repro/engine`` lays out and publishes an
    operator ``.npz`` (``np.savez*`` + ``os.replace``).  Two copies of the
    writer shared one temporary name, so two threads building one entry
    renamed each other's file away."""
    import ast

    def publishes(node: ast.AST) -> bool:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return False
        module = getattr(node.func.value, "id", None)
        return (module, node.func.attr) in (
            ("np", "savez"), ("np", "savez_compressed"), ("os", "replace")
        )

    found = {
        where for where in _scopes_containing(publishes)
        if where[0].startswith("engine/")
    }
    assert found == {("engine/sparse.py", "_write_archive")}, sorted(found)


#: Total lines of tracked ``src/**/*.py``.  This number only ever goes down:
#: lower it with every PR that deletes a path, never raise it to make room.
#: ROADMAP: "every deletion so far was paid back in docstrings, counters and
#: shims" — a budget is what stops the next one being paid back too.
SRC_LINE_BUDGET = 18_733


def test_src_stays_inside_its_line_budget():
    sources = [
        p for p in _tracked_files() if p.startswith("src/") and p.endswith(".py")
    ]
    total = sum(len((REPO / p).read_text().splitlines()) for p in sources)
    assert total <= SRC_LINE_BUDGET, (
        f"src/ is {total} lines of Python, over the {SRC_LINE_BUDGET} budget; "
        f"delete a path the measurements have ruled out instead of raising it"
    )


def test_the_overlap_split_stays_deleted():
    """The interior/boundary diagnostics split lost under both halo
    schedules (EXPERIMENTS.md "PR 19", "PR 21"); every stage of every
    executor ends in the one diagnostics sweep serial runs."""
    import inspect

    import repro.engine.plan as plan
    from repro.swm.timestep import RK4Integrator

    assert not [name for name in dir(plan) if "overlap" in name.lower()]
    # An instance attribute set in __init__ is invisible to hasattr on the class.
    assert not hasattr(RK4Integrator, "overlap")
    assert "overlap" not in inspect.getsource(RK4Integrator)


def test_importing_the_api_loads_no_mesh_builder_or_graph_library():
    """``scipy.spatial`` (0.2 s) is needed only by a cold mesh build and
    ``networkx`` only by the dataflow analyses; every run pays whatever
    ``import repro.api`` pulls in as ``setup_s``."""
    import sys

    code = (
        "import sys, repro.api; "
        "print([m for m in ('scipy.spatial', 'networkx') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
