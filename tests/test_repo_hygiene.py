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


def _mentions_outside_retired_fields(*words: str) -> list[str]:
    """``file:line word`` of every line of ``src/repro`` (code, string or
    comment) naming one of ``words``, outside ``SWConfig.RETIRED_FIELDS``."""
    import ast

    found = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        text = path.read_text()
        retired = {
            line
            for node in ast.walk(ast.parse(text, filename=str(path)))
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["RETIRED_FIELDS"]
            for line in range(node.lineno, node.end_lineno + 1)
        }
        found += [
            f"{path.relative_to(REPO)}:{lineno} {word}"
            for lineno, line in enumerate(text.splitlines(), 1)
            if lineno not in retired
            for word in words
            if word in line
        ]
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
    that passes the per-step chaos crash point or records invariants
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
        return called(node, "crash_point")

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
    """Under ``src/repro/{ensemble,engine,swm}`` only ``engine/lanes.py``
    starts a thread or sets an affinity mask: the ensemble's member blocks
    and a serial plan's second-core ``K`` products run on its one pinned
    lane per CPU, and how many is read from ``os.sched_getaffinity`` —
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
    assert {where[0] for where in found} == {"engine/lanes.py"}, sorted(found)
    assert len(dataclasses.fields(SWConfig)) == 25, "a new knob on SWConfig"


def test_no_run_path_packs_a_member_block():
    """No module of ``src/repro`` calls ``State.stack`` or ``.member(``:
    ensemble members step as serial states, so the batched plan is reached
    only from the frozen ``benchmarks/e2e`` probes and the tests until the
    benchmark thaw deletes it."""
    import ast

    def packs_or_unpacks(node: ast.AST) -> bool:
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        if not isinstance(func, ast.Attribute):
            return False
        return func.attr == "member" or (
            func.attr == "stack" and getattr(func.value, "id", None) == "State"
        )

    assert _scopes_containing(packs_or_unpacks) == set()


def test_the_member_axis_stays_out_of_engine_and_state():
    """Ensemble members are serial runs all the way down: no module of
    ``src/repro/engine`` or ``src/repro/swm`` names a member count or the
    multi-vector CSR kernel, ``kernel_plan`` takes no ``batch``, and the
    ensemble driver never swaps ``plan`` in the config it was given (member
    k is the serial run of *that* config)."""
    import ast
    import inspect

    from repro.engine.plan import kernel_plan

    assert list(inspect.signature(kernel_plan).parameters) == ["mesh", "config"]
    root = REPO / "src" / "repro"
    named = [
        f"{path.relative_to(root)}:{lineno}"
        for package in ("engine", "swm")
        for path in sorted((root / package).rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "n_members" in line or "csr_matvecs" in line
    ]
    assert named == []

    def replaces_plan(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "replace"
            and any(k.arg == "plan" for k in node.keywords)
        )

    found = {w for w in _scopes_containing(replaces_plan) if w[0] == "ensemble/run.py"}
    assert found == set(), sorted(found)


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


def test_restart_files_belong_to_durable_runs():
    """A watchdog rollback returns to an anchor the run loop keeps in
    memory, so ``ShallowWaterModel.run`` takes no restart directory or
    retention, and outside ``resilience/durable.py`` no module of
    ``src/repro`` calls ``save_checkpoint``, spells an ``auto-`` restart
    name or names the durable driver ``_drive``.  The deleted
    ``AutoCheckpointer`` wrote, fsynced, pruned and re-read restart files
    in a temporary directory only to roll back."""
    import ast
    import inspect
    import re

    from repro.swm.model import ShallowWaterModel

    params = set(inspect.signature(ShallowWaterModel.run).parameters)
    assert not params & {"checkpoint_dir", "checkpoint_keep"}, sorted(params)

    def saves(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and "save_checkpoint" == getattr(
            node.func, "attr", getattr(node.func, "id", None)
        )

    durable = "resilience/durable.py"
    found = {where for where in _scopes_containing(saves) if where[0] != durable}
    assert found == set(), sorted(found)
    root = REPO / "src" / "repro"
    named = [
        f"{path.relative_to(root)}:{lineno}"
        for path in sorted(root.rglob("*.py"))
        if str(path.relative_to(root)) != durable
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"auto-[{*0-9]|\b_drive\b", line)
    ]
    assert named == []


#: Total lines of tracked ``src/**/*.py``.  This number only ever goes down:
#: lower it with every PR that deletes a path, never raise it to make room.
#: ROADMAP: "every deletion so far was paid back in docstrings, counters and
#: shims" — a budget is what stops the next one being paid back too.
SRC_LINE_BUDGET = 16_757


def test_src_stays_inside_its_line_budget():
    sources = [
        p for p in _tracked_files() if p.startswith("src/") and p.endswith(".py")
    ]
    total = sum(len((REPO / p).read_text().splitlines()) for p in sources)
    assert total <= SRC_LINE_BUDGET, (
        f"src/ is {total} lines of Python, over the {SRC_LINE_BUDGET} budget; "
        f"delete a path the measurements have ruled out instead of raising it"
    )


#: Top-level names of ``src/repro`` that no code which runs names, each kept
#: for the reason given.  A helper only the tests call belongs in
#: ``tests/oracles/`` instead.
KEPT_WITHOUT_A_CALLER = {
    "classify_op": "docs/backends.md doctests it: how the CSR compiler sorts ops",
    "clear_plan_memory_cache": "resets module-private plan state for the cache tests",
    "load_history": "reads back what HistoryWriter.save writes",
    "member_initial_state": "docs/ensemble.md doctests it: one member's IC alone",
    "read_jsonl": "docs/observability.md doctests it: reads what write_jsonl writes",
    "total_work": "the serial time of a dataflow diagram, beside its critical path",
    "tune_split_fraction": "the Fig. 7 split autotuner (docs/performance_model.md)",
}


def test_src_is_what_runs():
    """Every top-level function and class of ``src/repro`` is named by code
    that runs — a ``src/`` module (its own other scopes included),
    ``benchmarks/`` or ``examples/`` — or exported by ``repro.api``.  A
    package ``__init__`` re-exporting a name, and an ``__all__`` listing it,
    are no uses."""
    import ast

    from repro import api

    defined, named = {}, set(api.__all__)
    for root in ("src", "benchmarks", "examples"):
        for path in sorted((REPO / root).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            reexports = root == "src" and path.name == "__init__.py"
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    named.update(a.name for a in node.names)
            if root == "src":
                defined.update(
                    (top.name, f"{path.relative_to(REPO)}:{top.lineno}")
                    for top in tree.body
                    if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and not top.name.startswith("__")
                )
    uncalled = {name for name in defined if name not in named}
    assert sorted(
        f"{defined[name]} {name}" for name in uncalled - set(KEPT_WITHOUT_A_CALLER)
    ) == [], "move it to tests/oracles/, delete it, or say why it stays"
    assert sorted(set(KEPT_WITHOUT_A_CALLER) - uncalled) == [], (
        "an allow-listed name gained a caller or is gone: drop its entry"
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


def test_plan_stages_have_one_program_and_composition_is_no_option():
    """A plan stage carries one closure: ``engine/plan.py`` has no ``routed``
    attribute, argument or keyword.  Which chains compose is the compiler's call:
    ``plan_fuse`` survives under ``src/`` only in ``RETIRED_FIELDS``."""
    import ast

    def names(node: ast.AST) -> set[str]:
        found = {getattr(node, attr, None) for attr in ("id", "attr", "arg")}
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        return found

    plan = REPO / "src" / "repro" / "engine" / "plan.py"
    routed = [
        node.lineno for node in ast.walk(ast.parse(plan.read_text()))
        if "routed" in names(node)
    ]
    assert not routed, f"routed twins in engine/plan.py at lines {routed}"

    mentions = _mentions_outside_retired_fields("plan_fuse")
    assert not mentions, f"plan_fuse outside RETIRED_FIELDS: {mentions}"


def test_the_runtime_split_executor_stays_deleted():
    """The paper's host/device split lives in the simulator (``hybrid/``)
    and its row-cut contract in ``tests/test_compile_oracles.py``; no
    workload installed a split placement, and each one sent the kernels
    off the compiled plan.  Nothing under ``src/repro/{engine,swm,ensemble}``
    names a placement, and the one injected fault is the run loop's crash
    point: no simulated device or transfer can be made to fail."""
    import io
    import tokenize

    from repro.resilience import faults

    assert not (REPO / "src" / "repro" / "engine" / "split.py").exists()
    assert faults.__all__ == ["FaultInjected", "crash_at", "crash_point"]
    found = []
    for package in ("engine", "swm", "ensemble"):
        for path in sorted((REPO / "src" / "repro" / package).rglob("*.py")):
            tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            found += [
                f"{path.relative_to(REPO)}:{tok.start[0]} {tok.string}"
                for tok in tokens
                if tok.type == tokenize.NAME and "placement" in tok.string.lower()
            ]
    assert not found, f"placement identifiers in the numerical core: {found}"


def test_retry_budgets_are_read_where_they_apply():
    """There is no process-global recovery policy to install, and one retry
    budget is left: the pool's respawns of dead workers read
    ``SWConfig.halo_retries``.  Neither the lockstep halo exchange (an
    in-process copy) nor the simulated PCIe transfer can fail, so neither
    retries, and a kernel dispatch is a timer around a call, with no fault
    site and no fallback backend.  The three knobs no run read are retired
    fields."""
    import ast

    from repro.swm.config import SWConfig

    readers = sorted(
        str(path.relative_to(REPO / "src" / "repro"))
        for path in (REPO / "src" / "repro").rglob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == "halo_retries"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert readers == ["parallel/pool.py"]
    assert not (REPO / "src" / "repro" / "resilience" / "recovery.py").exists()
    assert {"backend_retries", "halo_backoff_s", "transfer_retries"} <= set(
        SWConfig.RETIRED_FIELDS
    )
    found = _mentions_outside_retired_fields(
        "recovery_policy", "RecoveryPolicy", "backend_fallback", "halo_backoff",
        "engine.dispatch", "TRANSFER_RETRIES", "FaultPlan", "FaultSpec",
        "kill_at", '"halo.exchange"', '"hybrid.transfer"',
    )
    assert not found, f"a deleted recovery path is named again: {found}"


def test_no_rank_compiles_a_stencil(monkeypatch):
    """A rank's operators are rows of the global ones (``engine/sparse.
    _restrict``): under sparse-config pool and lockstep runs, fused or not,
    every ``_COMPILERS`` call is made in the parent process on the global
    mesh, never on a ``LocalMesh`` and never in a pool worker.  A fresh
    mesh makes the parent compile; a spy that raises fails a worker's
    start-up, which the pool raises as ``WorkerPoolError``."""
    import os

    import numpy as np

    from repro import api
    from repro.constants import GRAVITY
    from repro.engine import sparse
    from repro.geometry import lloyd_relax, normalize
    from repro.mesh import Mesh
    from repro.parallel import LocalMesh

    rng = np.random.default_rng(34)
    points = lloyd_relax(normalize(rng.standard_normal((150, 3))), iterations=30)
    mesh = Mesh.from_points(points.points, name="no-rank-compiles")
    parent, calls = os.getpid(), []

    def spy(name, compile_):
        def compiled(m):
            if os.getpid() != parent or isinstance(m, LocalMesh):
                raise AssertionError(f"a rank compiled {name}")
            calls.append(name)
            return compile_(m)

        return compiled

    for name, compile_ in list(sparse._COMPILERS.items()):
        monkeypatch.setitem(sparse._COMPILERS, name, spy(name, compile_))
    case = api.resolve_case("tc2")
    dt = api.suggested_dt(mesh, case, GRAVITY, cfl=0.5)
    for plan in (True, False):
        for parallel in ("pool", "lockstep"):
            config = api.SWConfig(
                dt=dt, backend="sparse", plan=plan, parallel=parallel, ranks=3,
                thickness_adv_order=4, hyperviscosity=1.0e10,
            )
            api.run(case, mesh=mesh, config=config, steps=2)
    assert "tangential_velocity" in calls and "d2fdx2" in calls


def test_the_pool_parent_builds_no_local_mesh():
    """The pool parent holds index plans only, from ``halo.decompose``: in
    ``parallel/pool.py`` only ``_worker_main`` names ``LocalMesh``, and no
    scope names ``build_local_mesh``, ``local_index_plan`` or
    ``partition_cells``.  After a pool run (composed matrices included) no
    ``LocalMesh`` keys the parent's operator, composed-matrix or plan
    caches: it built no rank geometry and no rank operator."""
    from repro.api import SWConfig, resolve_case, run
    from repro.engine import plan, sparse
    from repro.mesh.cache import cached_mesh
    from repro.parallel import LocalMesh

    def names(*words):
        def match(node) -> bool:
            return getattr(node, "id", getattr(node, "attr", None)) in words

        return {w for w in _scopes_containing(match) if w[0] == "parallel/pool.py"}

    assert names("LocalMesh") == {("parallel/pool.py", "_worker_main")}
    assert names("build_local_mesh", "local_index_plan", "partition_cells") == set()

    def rank_keys() -> set[int]:
        caches = (sparse._MEMORY_OPS, plan._COMPOSED_MEM, plan._PLANS.by_mesh)
        return {id(k) for c in caches for k in c.keys() if isinstance(k, LocalMesh)}

    before = rank_keys()
    config = SWConfig(
        dt=60.0, backend="sparse", plan=True, parallel="pool", ranks=2,
        thickness_adv_order=4, hyperviscosity=1.0e10,
    )
    run(resolve_case("tc2"), mesh=cached_mesh(2), config=config, steps=2)
    assert rank_keys() <= before


def test_importing_the_api_loads_no_mesh_builder_or_graph_library(tmp_path):
    """``scipy.spatial`` (0.2 s) is needed only by a cold mesh build,
    ``scipy.sparse`` (80 ms, 22 MB) only to compose a matrix the cache
    misses, and ``networkx`` by nothing: the Fig. 4 diagram keeps its own
    adjacency.  Nor does a run need the simulated hybrid node
    (``repro.hybrid``, ``repro.machine``, ~30 ms): the plan compiler's
    scheduler lives in ``repro.dataflow.analysis``.  Every run pays
    whatever it imports as ``setup_s``, so a
    fresh interpreter runs two level-2 steps serially, on a 2-rank pool at
    orders 2 and 4, as a 2-member ensemble and durably (at order 4) on a
    cached mesh, its composed matrix cached, then lists what came in — the
    order-4 pool parent loads that matrix and its ranks slice it, so nobody
    composes; importing the API alone misses the plan compile and pool
    spawn."""
    import sys

    from repro.engine.plan import clear_plan_memory_cache, compiled_plan
    from repro.engine.sparse import operator_cache_path
    from repro.mesh.cache import cache_dir, cached_mesh
    from repro.swm.config import SWConfig

    clear_plan_memory_cache()  # so the composed matrix is read or written here
    order4 = SWConfig(dt=60.0, backend="sparse", plan=True, thickness_adv_order=4)
    assert compiled_plan(cached_mesh(2), order4).composed == ("h_edge_order4",)
    assert operator_cache_path(cached_mesh(2), "plan_h_edge_order4").exists()
    code = f"""
import sys
from repro import api
from repro.constants import GRAVITY
from repro.swm.config import SWConfig
mesh = api.build_mesh(2)
dt = api.suggested_dt(mesh, api.resolve_case("galewsky"), GRAVITY)
plan = dict(dt=dt, backend="sparse", plan=True)
api.run("galewsky", mesh=mesh, config=SWConfig(**plan), steps=2)
api.run("galewsky", mesh=mesh, steps=2,
        config=SWConfig(**plan, parallel="pool", ranks=2))
api.run("galewsky", mesh=mesh, steps=2,
        config=SWConfig(**plan, parallel="pool", ranks=2, thickness_adv_order=4))
api.run_ensemble("galewsky", mesh=mesh, config=SWConfig(**plan), steps=2,
                 ensemble=2, perturb_seed=1)
api.run("galewsky", mesh=mesh, steps=2, run_dir={str(tmp_path / "durable")!r},
        config=SWConfig(**plan, thickness_adv_order=4))
print([m for m in ('scipy.spatial', 'scipy.sparse', 'networkx', 'repro.hybrid',
                   'repro.machine') if m in sys.modules])
"""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env={
            "PYTHONPATH": str(REPO / "src"),
            "PATH": "/usr/bin:/bin",
            "REPRO_CACHE_DIR": str(cache_dir()),
        },
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip().splitlines()[-1] == "[]"


def test_pool_workers_import_scipy_sparse_only_through_the_parent(tmp_path):
    """An order-2 pool never imports ``scipy.sparse``.  An order-4 pool on a
    mesh with no operator archives composes its matrices in the parent,
    before it forks; its workers slice them and never look the package up.
    A fresh interpreter logs the pid of every process that looks
    ``scipy.sparse`` up."""
    import sys

    from repro.mesh.cache import cache_dir, cached_mesh

    cached_mesh(2)
    log = tmp_path / "lookups"
    code = f"""
import os, sys

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.sparse":
            with open({str(log)!r}, "a") as f:
                f.write(f"{{os.getpid()}}\\n")

sys.meta_path.insert(0, Spy())
from repro import api
from repro.constants import GRAVITY
from repro.swm.config import SWConfig
mesh = api.build_mesh(2)
dt = api.suggested_dt(mesh, api.resolve_case("galewsky"), GRAVITY)
pool = dict(dt=dt, backend="sparse", plan=True, parallel="pool", ranks=2)
api.run("galewsky", mesh=mesh, steps=2, config=SWConfig(**pool))
print(os.path.exists({str(log)!r}))
from repro.mesh.cache import cached_mesh
fresh = cached_mesh(2, lloyd_iterations=0, use_disk=False)
api.run("galewsky", mesh=fresh, steps=2, config=SWConfig(**pool, thickness_adv_order=4))
print(os.getpid())
"""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env={
            "PYTHONPATH": str(REPO / "src"),
            "PATH": "/usr/bin:/bin",
            "REPRO_CACHE_DIR": str(cache_dir()),
        },
    )
    assert result.returncode == 0, result.stderr[-2000:]
    order2_looked_up, parent = result.stdout.strip().splitlines()[-2:]
    assert order2_looked_up == "False"
    assert log.read_text().split() == [parent]


def test_scipy_sparse_is_imported_only_to_compose():
    """Under ``src/repro`` one function imports ``scipy.sparse``
    (``engine/sparse.scipy_sparse``), and it is called only by the two
    compose builders and the conversion they use; the kernel loader falls
    back to the package when the extension file is not where it looks.  A warm run calls the compiled
    kernels and never pays the package's 80 ms and 22 MB."""
    import ast

    def imports_it(node: ast.AST) -> bool:
        if isinstance(node, ast.Import):
            return any(a.name.startswith("scipy.sparse") for a in node.names)
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            return module.startswith("scipy.sparse") or (
                module == "scipy" and any(a.name == "sparse" for a in node.names)
            )
        return False

    def calls_it(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and "scipy_sparse" == getattr(
            node.func, "id", getattr(node.func, "attr", None)
        )

    assert _scopes_containing(imports_it) == {
        ("engine/sparse.py", "scipy_sparse"),
        ("engine/sparse.py", "_load_sparsetools"),
    }
    assert _scopes_containing(calls_it) == {
        ("engine/sparse.py", "CSR.to_scipy"),
        ("engine/plan.py", "_Compiler._emit_D1"),
        ("engine/plan.py", "_Compiler._hyperviscosity_stage"),
    }


def test_networkx_is_no_dependency():
    """Nothing under ``src/`` imports ``networkx`` and ``pyproject.toml``
    does not list it; the tests that compare against it skip without it."""
    import ast

    found = []
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.relative_to(REPO)}:{node.lineno}"
                for name in names if name.split(".")[0] == "networkx"
            ]
    assert not found, f"networkx imported at {found}"
    assert "networkx" not in (REPO / "pyproject.toml").read_text()


#: sha256 over ``benchmarks/e2e``'s files (relative path and bytes, sorted).
#: The benchmark is measured on a parent and a change commit alike, so a PR
#: that edits it moves the yardstick it is judged with: a change to the
#: benchmark is its own PR, and that PR updates this digest.
E2E_DIGEST = "0f2c4fae5ef03286f9f94e74227c502e2457ad51ca9a8526edc2b8496416bc0d"


def _e2e_modules() -> list[Path]:
    """The benchmark's own modules (its self-test names a missing module)."""
    return [
        p for p in sorted((REPO / "benchmarks" / "e2e").glob("*.py"))
        if not p.name.startswith("test_")
    ]


def test_no_file_of_the_frozen_benchmark_changes():
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((REPO / "benchmarks" / "e2e").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
            digest.update(path.relative_to(REPO).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    assert digest.hexdigest() == E2E_DIGEST, (
        "benchmarks/e2e changed: the benchmark must stay as its parent "
        "commit measured it (see E2E_DIGEST)"
    )


def test_the_benchmark_imports_only_names_that_exist():
    """Every ``import repro...`` / ``from repro... import name`` of the
    benchmark resolves: a probe whose import fails reports ``null``, and
    the traced run then ends in a malformed result line."""
    import ast
    import importlib

    missing = []
    for path in _e2e_modules():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                wanted = [(a.name, None) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                wanted = [(node.module, a.name) for a in node.names]
            else:
                continue
            for module, name in wanted:
                if module.split(".")[0] != "repro":
                    continue
                where = f"{path.name}:{node.lineno} {module}{'.' + name if name else ''}"
                try:
                    mod = importlib.import_module(module)
                    if name is not None and not hasattr(mod, name):
                        importlib.import_module(f"{module}.{name}")
                except ImportError:
                    missing.append(where)
    assert missing == []


def test_the_roofline_probe_finds_the_three_plan_segments(mesh3):
    """``probes.roofline`` indexes ``compiled_plan(...).stages()`` by
    segment and reads each stage's ``kind``, ``name`` and ``op``."""
    from repro.engine.plan import compiled_plan
    from repro.swm import SWConfig

    stages = compiled_plan(mesh3, SWConfig(dt=100.0, backend="sparse", plan=True)).stages()
    assert set(stages) == {"tend", "diagnostics", "reconstruct"}
    for segment in stages.values():
        assert segment and all(
            hasattr(stage, attr) for stage in segment for attr in ("kind", "name", "op")
        )
