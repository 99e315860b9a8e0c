"""Corrupted on-disk cache entries are quarantined and rebuilt, never fatal.

The self-healing contract of :mod:`repro.resilience.integrity`: truncating
or bit-flipping any cached ``.npz`` (mesh archive, compiled sparse
operator, composed plan matrix) must never crash a future run — the entry
is moved to ``quarantine/``, counted as ``resilience.cache.quarantined``
(tagged by cache kind), and rebuilt with correct results.  Before this
layer a truncated archive raised ``zipfile.BadZipFile`` out of ``np.load``
on every run that touched it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience.integrity import (
    QUARANTINE_DIRNAME,
    checked_load,
    quarantine,
    seal,
    verify,
)


@pytest.fixture()
def cache_sandbox(tmp_path, monkeypatch):
    """Redirect every disk cache into tmp and clear the memory layers."""
    from repro.engine.plan import clear_plan_memory_cache
    from repro.engine.sparse import clear_operator_memory_cache
    from repro.mesh.cache import clear_memory_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    clear_plan_memory_cache()
    clear_operator_memory_cache()
    yield tmp_path
    clear_memory_cache()
    clear_plan_memory_cache()
    clear_operator_memory_cache()


def _quarantined(registry: MetricsRegistry, kind: str) -> float:
    total = 0.0
    for s in registry.series("resilience.cache.quarantined"):
        if s.tags.get("kind") == kind:
            total += s.value
    return total


def _bitflip(path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _truncate(path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 3])


# ------------------------------------------------------------- unit layer
class TestIntegrityPrimitives:
    def test_seal_verify_roundtrip(self, tmp_path):
        path = tmp_path / "entry.npz"
        path.write_bytes(b"payload bytes")
        assert verify(path) is None  # legacy: no sidecar yet
        sidecar = seal(path)
        assert sidecar.name == "entry.npz.crc"
        assert verify(path) is True

    def test_verify_detects_damage(self, tmp_path):
        path = tmp_path / "entry.npz"
        path.write_bytes(b"payload bytes")
        seal(path)
        _bitflip(path)
        assert verify(path) is False

    def test_verify_detects_truncation_same_crc_impossible(self, tmp_path):
        path = tmp_path / "entry.npz"
        path.write_bytes(b"x" * 100)
        seal(path)
        path.write_bytes(b"x" * 50)  # length check catches it
        assert verify(path) is False

    def test_unparseable_sidecar_is_suspect(self, tmp_path):
        path = tmp_path / "entry.npz"
        path.write_bytes(b"payload")
        seal(path)
        path.with_name("entry.npz.crc").write_text("not a sidecar")
        assert verify(path) is False

    def test_quarantine_moves_file_sidecar_and_counts(self, tmp_path):
        path = tmp_path / "entry.npz"
        path.write_bytes(b"payload")
        seal(path)
        registry = MetricsRegistry()
        with use_registry(registry):
            dest = quarantine(path, kind="operator")
        qdir = tmp_path / QUARANTINE_DIRNAME
        assert dest == qdir / "entry.npz"
        assert not path.exists()
        assert dest.exists()
        assert (qdir / "entry.npz.crc").exists()
        assert _quarantined(registry, "operator") == 1.0

    def test_quarantine_collision_gets_numeric_suffix(self, tmp_path):
        for expect in ("entry.npz", "entry.npz.1"):
            path = tmp_path / "entry.npz"
            path.write_bytes(b"payload")
            with use_registry(MetricsRegistry()):
                dest = quarantine(path, kind="mesh")
            assert dest.name == expect

    def test_checked_load_policies(self, tmp_path):
        class Stale(Exception):
            pass

        path = tmp_path / "entry.npz"
        path.write_bytes(b"payload")
        seal(path)
        # Missing file: None, nothing counted.
        registry = MetricsRegistry()
        with use_registry(registry):
            assert checked_load(tmp_path / "nope.npz", lambda p: 1, "k") is None
            # Healthy file: loader result passes through.
            assert checked_load(path, lambda p: "ok", "k") == "ok"
            # Stale (loader None or a declared stale error): rebuild in
            # place, no quarantine.
            assert checked_load(path, lambda p: None, "k") is None
            assert path.exists()

            def raise_stale(p):
                raise Stale()

            assert checked_load(path, raise_stale, "k", stale=(Stale,)) is None
            assert path.exists()
        assert _quarantined(registry, "k") == 0.0
        # Unreadable despite a good sidecar: quarantined.
        with use_registry(registry):

            def boom(p):
                raise ValueError("unreadable")

            assert checked_load(path, boom, "k") is None
        assert not path.exists()
        assert _quarantined(registry, "k") == 1.0

    def test_reader_never_sees_a_file_before_its_seal(self, tmp_path, monkeypatch):
        """``publish`` renames and seals as one step to ``checked_load``: a
        reader arriving in between (in any process) waits for the seal
        instead of quarantining the good file against the old sidecar."""
        import threading
        import time

        import repro.resilience.integrity as integrity

        path = tmp_path / "entry.npz"
        path.write_bytes(b"old payload")
        seal(path)
        renamed = threading.Event()

        def slow_seal(p):
            renamed.set()
            time.sleep(0.2)
            return seal(p)

        monkeypatch.setattr(integrity, "seal", slow_seal)
        tmp = tmp_path / "entry.tmp"
        tmp.write_bytes(b"new payload of another length")
        writer = threading.Thread(target=integrity.publish, args=(tmp, path))
        writer.start()
        assert renamed.wait(10)
        registry = MetricsRegistry()
        with use_registry(registry):
            got = checked_load(path, lambda p: p.read_bytes(), "k")
        writer.join()
        assert got == b"new payload of another length"
        assert _quarantined(registry, "k") == 0.0


# ------------------------------------------------------ operator archives
class TestOperatorSelfHeal:
    @pytest.mark.parametrize("damage", [_bitflip, _truncate])
    def test_corrupt_operator_rebuilds(self, cache_sandbox, damage):
        from repro.engine.sparse import (
            clear_operator_memory_cache,
            operator_cache_path,
            sparse_operator,
        )
        from repro.mesh.cache import cached_mesh

        mesh = cached_mesh(2, lloyd_iterations=0)
        good = sparse_operator(mesh, "cell_divergence", use_disk=True)
        path = operator_cache_path(mesh, "cell_divergence")
        assert path.with_name(path.name + ".crc").exists()
        damage(path)
        clear_operator_memory_cache()
        registry = MetricsRegistry()
        with use_registry(registry):
            rebuilt = sparse_operator(mesh, "cell_divergence", use_disk=True)
        assert (good.to_scipy() != rebuilt.to_scipy()).nnz == 0
        assert _quarantined(registry, "operator") == 1.0
        assert list((path.parent / QUARANTINE_DIRNAME).glob("*.npz"))
        # The rebuilt archive is sealed and loads cleanly again.
        clear_operator_memory_cache()
        with use_registry(MetricsRegistry()) as reg2:
            sparse_operator(mesh, "cell_divergence", use_disk=True)
        assert _quarantined(reg2, "operator") == 0.0

    def test_legacy_unsealed_archive_still_loads(self, cache_sandbox):
        from repro.engine.sparse import (
            clear_operator_memory_cache,
            operator_cache_path,
            sparse_operator,
        )
        from repro.mesh.cache import cached_mesh

        mesh = cached_mesh(2, lloyd_iterations=0)
        good = sparse_operator(mesh, "vertex_curl", use_disk=True)
        path = operator_cache_path(mesh, "vertex_curl")
        path.with_name(path.name + ".crc").unlink()  # pre-integrity entry
        clear_operator_memory_cache()
        loaded = sparse_operator(mesh, "vertex_curl", use_disk=True)
        assert (good.to_scipy() != loaded.to_scipy()).nnz == 0


# ---------------------------------------------------------- plan archives
class TestPlanSelfHeal:
    def test_corrupt_composed_matrix_rebuilds(self, cache_sandbox):
        from repro.engine.plan import (
            clear_plan_memory_cache,
            compiled_plan,
        )
        from repro.engine.sparse import (
            clear_operator_memory_cache,
            operator_cache_path,
        )
        from repro.mesh.cache import cached_mesh
        from repro.swm.config import SWConfig

        mesh = cached_mesh(2, lloyd_iterations=0)
        cfg = SWConfig(dt=60.0, backend="sparse", plan=True, thickness_adv_order=4)
        compiled_plan(mesh, cfg)
        path = operator_cache_path(mesh, "plan_h_edge_order4")
        assert path.exists()
        _truncate(path)
        clear_plan_memory_cache()
        clear_operator_memory_cache()
        registry = MetricsRegistry()
        with use_registry(registry):
            plan = compiled_plan(mesh, cfg)
        assert "h_edge_order4" in plan.composed
        assert _quarantined(registry, "plan") == 1.0


# ---------------------------------------------------------- mesh archives
class TestMeshSelfHeal:
    @pytest.mark.parametrize("damage", [_truncate, _bitflip])
    def test_corrupt_mesh_archive_rebuilds(self, cache_sandbox, damage):
        """Regression: a truncated mesh npz used to raise BadZipFile."""
        from repro.mesh.cache import (
            cached_mesh,
            clear_memory_cache,
            mesh_cache_path,
        )

        mesh = cached_mesh(2, lloyd_iterations=0)
        path = mesh_cache_path(2, lloyd_iterations=0)
        assert path.with_name(path.name + ".crc").exists()
        damage(path)
        clear_memory_cache()
        registry = MetricsRegistry()
        with use_registry(registry):
            rebuilt = cached_mesh(2, lloyd_iterations=0)
        assert rebuilt.nCells == mesh.nCells
        assert np.array_equal(rebuilt.xCell, mesh.xCell)
        assert _quarantined(registry, "mesh") == 1.0
        assert list((path.parent / QUARANTINE_DIRNAME).glob("*.npz"))


# ------------------------------------------------- stored archive format
def _members(path) -> dict:
    with np.load(path) as d:
        return {k: d[k] for k in d.files}


def _compression(path) -> set[int]:
    import zipfile

    with zipfile.ZipFile(path) as z:
        return {info.compress_type for info in z.infolist()}


class TestStoredArchives:
    """Cache archives are written stored (float64 does not deflate, and
    inflating cost every cold start); entries written deflated by earlier
    revisions load as they are."""

    def test_fresh_writes_are_stored(self, cache_sandbox):
        import zipfile

        from repro.engine.plan import compiled_plan
        from repro.engine.sparse import operator_cache_path, sparse_operator
        from repro.mesh.cache import cached_mesh, mesh_cache_path
        from repro.swm.config import SWConfig

        mesh = cached_mesh(2, lloyd_iterations=0)
        sparse_operator(mesh, "cell_divergence", use_disk=True)
        cfg = SWConfig(dt=60.0, backend="sparse", plan=True, thickness_adv_order=4)
        assert "h_edge_order4" in compiled_plan(mesh, cfg).composed
        for path in (
            mesh_cache_path(2, lloyd_iterations=0),
            operator_cache_path(mesh, "cell_divergence"),
            operator_cache_path(mesh, "plan_h_edge_order4"),
        ):
            assert _compression(path) == {zipfile.ZIP_STORED}, path.name

    def test_deflated_sealed_archives_load_without_rebuild(
        self, cache_sandbox, monkeypatch
    ):
        import zipfile

        import repro.engine.sparse as sparse
        from repro.mesh.cache import cached_mesh, clear_memory_cache, mesh_cache_path
        from repro.mesh.mesh import Mesh

        mesh = cached_mesh(2, lloyd_iterations=0)
        op = sparse.sparse_operator(mesh, "vertex_curl", use_disk=True)
        paths = (
            mesh_cache_path(2, lloyd_iterations=0),
            sparse.operator_cache_path(mesh, "vertex_curl"),
        )
        written = {}
        for path in paths:  # rewrite each entry the way earlier revisions did
            written[path] = _members(path)
            path.unlink()
            np.savez_compressed(path, **written[path])
            seal(path)
            assert _compression(path) == {zipfile.ZIP_DEFLATED}
        clear_memory_cache()
        sparse.clear_operator_memory_cache()

        def no_rebuild(*args, **kwargs):
            raise AssertionError("a cached entry was rebuilt")

        monkeypatch.setattr(Mesh, "build", no_rebuild)
        monkeypatch.setitem(sparse._COMPILERS, "vertex_curl", no_rebuild)
        registry = MetricsRegistry()
        with use_registry(registry):
            loaded = cached_mesh(2, lloyd_iterations=0)
            curl = sparse.sparse_operator(loaded, "vertex_curl", use_disk=True)
        assert not list(registry.series("resilience.cache.quarantined"))
        loaded.save(cache_sandbox / "resaved.npz")
        resaved = _members(cache_sandbox / "resaved.npz")
        assert resaved.keys() == written[paths[0]].keys()
        for key, value in written[paths[0]].items():
            assert np.array_equal(resaved[key], value), key
        for key in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(curl, key), getattr(op, key))
        for path in paths:  # loaded as they are, not rewritten
            assert _compression(path) == {zipfile.ZIP_DEFLATED}
            assert verify(path) is True


# ------------------------------------------------------ concurrent writers
class TestConcurrentWriters:
    """Two writers of one cache entry (threads or interpreters): each
    publishes from a temporary name of its own, so neither renames the
    other's file away."""

    @staticmethod
    def _same_csr(a, b) -> bool:
        return (
            np.array_equal(a.data, b.data)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.indptr, b.indptr)
        )

    class _NoMemo(dict):
        """A memory cache that never hits: every caller goes to disk."""

        def get(self, key, default=None):
            return {}

        setdefault = get

    def test_threads_building_one_operator(
        self, cache_sandbox, monkeypatch, on_threads
    ):
        import repro.engine.sparse as sparse
        from repro.mesh.cache import cached_mesh

        mesh = cached_mesh(3, lloyd_iterations=0)
        monkeypatch.setattr(sparse, "_MEMORY_OPS", self._NoMemo())
        for op in ("cell_divergence", "tangential_velocity", "vertex_curl"):
            built, errors = on_threads(lambda i: sparse.sparse_operator(mesh, op), 4)
            assert errors == []
            assert len(built) == 4
            assert all(self._same_csr(built[0], m) for m in built[1:])
            reloaded = sparse.sparse_operator(mesh, op)  # from the archive
            assert self._same_csr(built[0], reloaded)
        assert not list(cache_sandbox.rglob("*.tmp*"))

    def test_threads_composing_one_plan_matrix(
        self, cache_sandbox, monkeypatch, on_threads
    ):
        import repro.engine.plan as plan
        from repro.engine.sparse import CSR, sparse_operator
        from repro.mesh.cache import cached_mesh

        mesh = cached_mesh(3, lloyd_iterations=0)
        grad = sparse_operator(mesh, "edge_gradient_of_cell").to_scipy()
        div = sparse_operator(mesh, "cell_divergence").to_scipy()
        monkeypatch.setattr(plan, "_COMPOSED_MEM", self._NoMemo())
        built, errors = on_threads(
            lambda i: plan._composed_operator(
                mesh, "grad_div", lambda m: CSR.from_scipy((grad @ div).tocsr())
            ),
            4,
        )
        assert errors == []
        assert len(built) == 4
        assert all(self._same_csr(built[0], m) for m in built[1:])
        assert not list(cache_sandbox.rglob("*.tmp*"))

    def test_two_interpreters_building_one_mesh(self, tmp_path, monkeypatch):
        """Two processes miss one uncached level-2 mesh at once, build it,
        publish it at the same moment (each waits for the other before it
        saves) and re-read it while the other may still be publishing: both
        succeed, the sealed archive verifies and nothing is quarantined."""
        import subprocess
        import sys
        from pathlib import Path

        from repro.mesh.cache import mesh_cache_path

        meet = tmp_path / "meet"
        meet.mkdir()
        cache = tmp_path / "cache"
        code = (
            "import os, time\n"
            "from repro.mesh.cache import cached_mesh, clear_memory_cache\n"
            "from repro.mesh.mesh import Mesh\n"
            "from repro.obs.metrics import get_registry\n"
            "save, meet = Mesh.save, sys.argv[1]\n"
            "def met(self, path):\n"
            "    open(os.path.join(meet, str(os.getpid())), 'w').close()\n"
            "    deadline = time.monotonic() + 60\n"
            "    while len(os.listdir(meet)) < 2 and time.monotonic() < deadline:\n"
            "        time.sleep(0.0005)\n"
            "    save(self, path)\n"
            "Mesh.save = met\n"
            "for _ in range(5):\n"
            "    clear_memory_cache()\n"
            "    mesh = cached_mesh(2)\n"
            "series = get_registry().series('resilience.cache.quarantined')\n"
            "print(mesh.nCells, int(sum(s.value for s in series)))\n"
        )
        env = {
            "PYTHONPATH": str(Path(__file__).parent.parent / "src"),
            "PATH": "/usr/bin:/bin",
            "REPRO_CACHE_DIR": str(cache),
        }
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", "import sys\n" + code, str(meet)],
                env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err[-2000:]
            assert out.split() == ["162", "0"]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        assert verify(mesh_cache_path(2)) is True
        assert not list(cache.rglob("*.tmp*"))
        assert not (cache / QUARANTINE_DIRNAME).exists()
