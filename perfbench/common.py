"""Helpers shared by the benchmark's workloads.

Everything here works on the checkout the benchmark runs from: the
program is imported from ``<root>/src`` and scratch files live under
``<root>/.perfbench_work``, so a run reads and writes nothing outside
the checkout.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: A run starts no new unit of work after this many seconds, so a hung
#: program still ends the run well inside three minutes.
RUN_BUDGET_S = 150.0

#: shared-memory segments of Python's ``multiprocessing.shared_memory``.
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "psm_"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def require_program() -> None:
    """Put ``<root>/src`` on ``sys.path``, or fail when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the program on the path,
    temp files inside the run's scratch directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


@contextmanager
def run_directory() -> Iterator[Path]:
    """A fresh scratch directory for one run, removed afterwards.

    Child processes started inside get ``<dir>/tmp`` as their TMPDIR,
    so the run can check that nothing was left there.
    """
    run_dir = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    (run_dir / "tmp").mkdir(parents=True)
    previous = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    try:
        yield run_dir
    finally:
        if previous is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = previous
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


def shm_segments() -> set:
    """Names of the live ``multiprocessing.shared_memory`` segments."""
    try:
        return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def child_pids(pid: Optional[int] = None) -> List[int]:
    """PIDs of the live (non-zombie) children of ``pid`` (default: self).

    Python's shared-memory resource tracker is not counted: it is a
    per-interpreter helper that lives until its parent exits, not a
    worker the program forgot to stop.
    """
    pid = os.getpid() if pid is None else pid
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) != pid or fields[0] == "Z":
            continue
        if b"resource_tracker" in cmdline:
            continue
        found.append(int(entry.name))
    return found


def leftover_files(directory: Path) -> List[str]:
    """Relative paths of every file still under ``directory``."""
    if not directory.exists():
        return []
    return sorted(
        str(p.relative_to(directory)) for p in directory.rglob("*") if p.is_file()
    )


def _peak_rss_kb(pid: int) -> int:
    """A live process's peak resident set (``VmHWM``) in KiB, 0 if gone."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def tree_peak_rss_mb() -> float:
    """Peak RSS in MB of this process plus each of its live children.

    Read while a unit's pool workers are still alive, this is the
    memory one Figure 9 run (interpreter + engine-pool workers) or one
    service (server + pool workers) held at its peaks.  Pages a forked
    worker shares with its parent count in both.
    """
    pids = [os.getpid()] + child_pids()
    return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean_of_medians(samples: Dict[object, List[float]]) -> float:
    """The mean over inputs of each input's median sample.

    A run measures several seeded inputs; the median damps timing noise
    within one input and the mean averages the inputs' different sizes.
    """
    return float(statistics.fmean(median(v) for v in samples.values() if v))


def interval_union(intervals: Iterable[Sequence[float]]) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def resolved_engine(network: object) -> str:
    """The DP engine ``engine="auto"`` picks for ``network``.

    Asks the program's own selector; a program without one reports
    ``"unknown"`` rather than failing the run.
    """
    try:
        from repro.core.optimal import _resolve_engine

        return str(_resolve_engine("auto", 0.0, network))
    except (ImportError, TypeError, ValueError):
        return "unknown"


def tree_bytes(directory: Path, pattern: str = "*") -> int:
    """Total size of the files under ``directory`` matching ``pattern``."""
    return sum(p.stat().st_size for p in directory.rglob(pattern) if p.is_file())


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def self_times(records: Iterable[Dict[str, object]], id_key: str = "id",
               parent_key: str = "parent") -> Dict[object, float]:
    """Each span's wall time minus the wall time of its direct children.

    The spans a workload collects are sequential within their parent
    (one thread per tracer), so children never overlap and the
    difference is the time the span spent in its own code.
    """
    spans = list(records)
    own = {r[id_key]: float(r["wall_s"] or 0.0) for r in spans}
    for record in spans:
        parent = record.get(parent_key)
        if parent in own:
            own[parent] -= float(record["wall_s"] or 0.0)
    return own


def git_sha() -> Optional[str]:
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (out.stdout.strip() or None) if out.returncode == 0 else None


def manifest(seed: int, workload: str, **fields: object) -> Dict[str, object]:
    """The per-run provenance record printed before the result line."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **fields,
    }


def emit(document: Dict[str, object]) -> None:
    print(json.dumps(document, sort_keys=True), flush=True)
