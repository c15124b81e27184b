"""Shared helpers: locating the source tree, statistics, /proc sampling.

Everything here is independent of the workloads, so the launcher, the
fleet server and the compare command import it without pulling in the
model stack.
"""

from __future__ import annotations

import math
import os
import platform
import sys
from pathlib import Path

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The package source the benchmark builds on.
SRC = ROOT / "src"

#: Request latency limit (ms) on the reported high percentile.  The
#: generator's own lag is held to the same bound: a generator that could
#: not even issue its requests within the limit measured itself, so a
#: fixed phase over it makes the run invalid.  In-process the generator shares the event loop with the
#: service, so its lag also carries the program's own stalls (a 64-row
#: partial_fit blocks the loop for about 20 ms).
LATENCY_LIMIT_MS = 25.0
#: Candidate percentiles for "the highest percentile with at least ten
#: samples beyond it".
_TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source tree, bad arguments)."""


def import_repro():
    """Put the checkout's ``src/`` first on the path and import ``repro``.

    Refuses to fall back to any other installed copy: a benchmark that
    silently measured a different build would compare nothing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no source tree at {SRC}; run from a full checkout")
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")
    return repro


def child_env() -> dict:
    """Environment for serving subprocesses: the checkout's ``src/`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.setdefault("PYTHONHASHSEED", "0")
    return env


# -- statistics ------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


def tail_percentile(n: int) -> float:
    """Highest candidate percentile that leaves at least ten samples beyond it."""
    for pct in _TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def timing_summary(values) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    values = list(values)
    if not values:
        return {"n": 0}
    pct = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": median(values),
        "tail_pct": pct,
        "tail": quantile(values, pct / 100.0),
        "max": max(values),
    }


# -- /proc sampling ----------------------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by ``pid`` (all threads)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name: state is index 0; utime/stime are
    # fields 14/15 of the full line, i.e. 11/12 here.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current resident set (Linux 4.0+)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid``, found by scanning ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return sorted(children)


# -- environment stamp -------------------------------------------------------------


def environment_stamp() -> dict:
    """What a result depends on besides the code: host size and versions."""
    import numpy as np

    from repro import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "kernel_mode": kernels.current_mode(),
        "kernel_backends": kernels.active_backends(),
    }
