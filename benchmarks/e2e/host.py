"""Host description and the sentinel.

The sentinel is fixed work that never touches ``repro``: a CSR matvec, a
gather and a reduction on arrays of about the size a level-5 step handles.
Its time says how fast this host was at that moment.  On the shared 2-vCPU VM
the benchmark was written on, that changes by 30 to 40 % for minutes at a
time, so every end-to-end timing is scaled by a sentinel sample taken right
beside it (see README, "Noise"); the raw timings are recorded as well.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import time
from pathlib import Path


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or ``None`` outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_block(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "usable_cores": usable_cores(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Time of one sentinel sample on a quiet spell of the box the benchmark was
#: written on.  Timing metrics are scaled by ``sample / REFERENCE_MS``, so on a
#: host of that speed the adjusted numbers are the raw ones.
REFERENCE_MS = 9.5


class Sentinel:
    """The fixed kernel every end-to-end timing is read against.

    A 10-entries-per-row sparse product in gather form -- random gather,
    streaming multiply, row reduction -- on level-5-sized arrays.  It is
    numpy only and writes into buffers it allocates once: run inside a
    measurement child it must not free large blocks (scipy's matvec returns a
    fresh one), because that moves glibc's mmap and trim thresholds and with
    them the speed of the workload's own allocations.
    """

    N = 30720
    LANES = 10
    PASSES = 6

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(12345)
        self._idx = rng.integers(0, self.N, size=(self.N, self.LANES))
        self._weights = rng.random((self.N, self.LANES))
        self._x = rng.random(self.N)
        self._gathered = np.empty((self.N, self.LANES))
        self._sums = np.empty(self.N)

    def _once(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(self.PASSES):
            np.take(self._x, self._idx, out=self._gathered)
            np.multiply(self._gathered, self._weights, out=self._gathered)
            np.sum(self._gathered, axis=1, out=self._sums)
        return time.perf_counter() - t0

    def sample_ms(self, tries: int = 3) -> float:
        """Best of a few passes: about 25 ms of work."""
        return min(self._once() for _ in range(tries)) * 1e3


def llc_bytes() -> int | None:
    """Size of the largest cache level Linux reports for cpu0."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        if digits.isdigit():
            size = int(digits) * scale
            best = size if best is None else max(best, size)
    return best


def mem_available_bytes() -> int | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def triad(passes: int = 3) -> dict:
    """Sustained streaming bandwidth on one array of 4x the LLC.

    A numpy triad ``a = b + s * c`` is two passes (``a = s * c``, ``a += b``).
    They run here in place on a single array (``a *= s``, ``a += a``): each
    pass still streams the whole array in and out, four array streams in all,
    but only one array has to be faulted in -- on this kind of VM first touch
    costs 5 to 25 us a page, and three 1 GiB arrays took 13 to 22 s.  The
    array shrinks to an eighth of the available memory when 4x the LLC would
    not fit; both sizes are returned so the reader can see which applied.
    """
    import numpy as np

    llc = llc_bytes() or (32 << 20)
    nbytes = 4 * llc
    avail = mem_available_bytes()
    if avail is not None:
        nbytes = min(nbytes, avail // 8)
    n = max(nbytes // 8, 1 << 20)
    a = np.ones(n)
    best = float("inf")
    for _ in range(passes):
        t0 = time.perf_counter()
        np.multiply(a, 1.0001, out=a)
        np.add(a, a, out=a)
        best = min(best, time.perf_counter() - t0)
    return {
        "gbps": 4 * n * 8 / best / 1e9,
        "array_mb": n * 8 / 2**20,
        "llc_mb": llc / 2**20,
    }
