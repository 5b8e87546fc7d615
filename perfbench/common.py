"""Shared helpers: importing the program under test, statistics, memory,
and the environment stamp every result carries."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for durability directories and trace files.
OUT_DIR = BENCH_DIR / "out"


#: Algorithm of every query that shares a k_max plan.  Shared plans of the
#: default ``"SAP"`` (enhanced-dynamic partitioner) return answers that
#: differ from brute force on these inputs, and a workload must run
#: without failed operations; the dynamic partitioner's plans are exact.
#: Lone queries keep the default ``"SAP"``.
SHARED_SAP = "SAP-dynamic"


#: Fixed string hashing in every benchmark process: randomized hashing
#: changes set and dict layouts, and with them run times, from process to
#: process.
HASH_SEED = "0"


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC not in where.parents:
        raise SetupError(f"repro was imported from {where}, not from {SRC}")
    return repro


def child_env() -> Dict[str, str]:
    """Environment for helper processes: the checkout's ``src`` first, and
    string hashing fixed as in the benchmark process."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, int(-(-fraction * len(ordered) // 1)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# memory of the process(es) hosting the engine
# ----------------------------------------------------------------------
def _status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def rss_mb(pid: int) -> float:
    return _status_kb(pid, "VmRSS") / 1024.0


def reset_peak(pid: int) -> float:
    """Reset the kernel's peak-RSS mark of ``pid``; returns current RSS."""
    with open(f"/proc/{pid}/clear_refs", "w") as handle:
        handle.write("5")
    return rss_mb(pid)


def peak_mb(pid: int) -> float:
    return _status_kb(pid, "VmHWM") / 1024.0


def child_pids(pid: int) -> List[int]:
    """Live child processes of ``pid``."""
    children: List[int] = []
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        children.extend(int(value) for value in path.read_text().split())
    return sorted(children)


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the program's source files (stands in for the commit
    when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def env_stamp(seed: int) -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version is not None,
        "numpy_version": numpy_version,
        "python": platform.python_version(),
        "commit": _commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }
