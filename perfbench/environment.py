"""What a run records about its host: versions, thread pins, speed, memory."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Optional

#: Thread-count variables of the BLAS/OpenMP runtimes NumPy may load.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread unless the caller chose otherwise.

    Must run before NumPy is imported.  The parallel workload puts two
    worker processes on a two-core host; BLAS threads on top of them would
    oversubscribe it and make timings depend on thread scheduling.
    """
    for name in THREAD_VARS:
        os.environ.setdefault(name, "1")


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=10.0, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def git_state(root: Path) -> Dict[str, Any]:
    """HEAD SHA and dirty flag, or nulls when ``root`` is not a git checkout.

    Git is only asked when ``root`` itself holds ``.git``, so an exported
    source tree is never matched against some enclosing repository.
    """
    if not (root / ".git").exists():
        return {"git_sha": None, "dirty": None}
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha.strip() if sha else None,
        "dirty": bool(status.strip()) if status is not None else None,
    }


def record(root: Path) -> Dict[str, Any]:
    """The environment a run's numbers belong to."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        **{name: os.environ.get(name) for name in THREAD_VARS},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        **git_state(root),
    }


#: Probe time (ms) of the reference host that timings are scaled to: a
#: round number between the fast (1.5 ms) and slow (2.3 ms) phases of the
#: 2-core x86 host the benchmark's bounds were set on.
REFERENCE_PROBE_MS = 2.0


def probe_ms() -> float:
    """Time (ms) of a fixed pure-Python loop: the host's speed right now."""
    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return 1e3 * (perf_counter() - start)


def host_probe_ms(repeats: int) -> float:
    """Median of ``repeats`` probes (one slow probe is an interruption)."""
    return statistics.median(probe_ms() for _ in range(repeats))


def peak_rss_mb() -> float:
    """This process's peak resident set size (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status(pid: int) -> Dict[str, str]:
    """``/proc/<pid>/status`` as a dict (Linux)."""
    fields = {}
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    return fields


def status_mb(fields: Dict[str, str], key: str) -> float:
    """A ``kB`` field of ``/proc/<pid>/status`` in MB."""
    return float(fields[key].split()[0]) / 1024.0


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Besides any engine worker still alive, this is the resource tracker
    that ``multiprocessing`` starts when the parallel engine creates shared
    memory: it otherwise outlives the run, ending only once it sees this
    process exit.  Stopping it unlinks nothing the engine has not already
    released.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()
