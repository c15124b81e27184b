"""Thread-safe metrics registry: counters, timers, fixed-bucket histograms.

Design constraints, in priority order:

1. **Off by default, near-zero when off.**  Every instrumentation site in
   the library goes through the module-level helpers in
   :mod:`repro.telemetry`; when the active registry is disabled those
   helpers return after one attribute check, so the hot kernels pay a
   function call and a boolean per *batch* (no site is on a per-sample or
   per-element path).
2. **No dependencies.**  Standard library only; snapshots are plain dicts
   of JSON-serialisable scalars, validated by
   :mod:`repro.telemetry.schema`.
3. **Thread-safe.**  A deployed service updates metrics from worker
   threads; one lock per registry guards all mutation.  Reads
   (:meth:`MetricsRegistry.snapshot`) take the same lock and copy, so a
   snapshot is internally consistent.

Metric identity is a flat string name plus optional labels.  Labels are
mangled into the name (``inference.fused.fallbacks{reason=over_budget}``)
rather than kept as a separate axis: the library's cardinality is tiny and
a flat namespace keeps the export format trivially diffable.
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "merge_snapshots",
    "metric_name",
    "TimerHandle",
]

#: Default histogram bucket upper bounds (values above the last bound land
#: in a final overflow bucket).  Spans the unit-ish magnitudes the library
#: observes (similarity gaps, seconds); callers pass custom buckets when
#: their quantity lives elsewhere.
DEFAULT_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0)


def metric_name(name: str, **labels: object) -> str:
    """Mangle ``name`` + labels into the flat registry key.

    Labels are sorted so call sites can pass them in any order and still
    hit the same metric.
    """
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class _TimerStat:
    __slots__ = ("count", "total_seconds", "max_seconds")

    def __init__(self):
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds


class _HistogramStat:
    __slots__ = ("buckets", "counts", "count", "total")

    def __init__(self, buckets: tuple[float, ...]):
        self.buckets = buckets
        # One cell per bound plus a final overflow cell.
        self.counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.total = 0.0

    def record(self, value: float) -> None:
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value


class TimerHandle:
    """Context manager that records one timing into its registry on exit.

    The clock is :func:`time.perf_counter` (monotonic, sub-microsecond),
    so wall-clock adjustments never produce negative durations.
    """

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "TimerHandle":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._registry.record_timing(self._name, time.perf_counter() - self._start)
        return False


class _NullTimer:
    """Shared do-nothing timer returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """A named collection of counters, timers, and histograms.

    Parameters
    ----------
    enabled:
        Initial state.  A disabled registry ignores every update (the
        module-level helpers check :attr:`enabled` before even calling in,
        but direct users get the same guarantee here).
    """

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._timers: dict[str, _TimerStat] = {}
        self._histograms: dict[str, _HistogramStat] = {}

    # -- updates ---------------------------------------------------------------

    def count(self, name: str, value: int = 1, **labels: object) -> None:
        """Add ``value`` to the named counter (created at zero on first use)."""
        if not self.enabled:
            return
        key = metric_name(name, **labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + int(value)

    def timer(self, name: str, **labels: object):
        """A context manager timing its ``with`` body into the named timer."""
        if not self.enabled:
            return NULL_TIMER
        return TimerHandle(self, metric_name(name, **labels))

    def record_timing(self, name: str, seconds: float) -> None:
        """Record one already-measured duration (used by :class:`TimerHandle`)."""
        if not self.enabled:
            return
        with self._lock:
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = _TimerStat()
            stat.record(float(seconds))

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> None:
        """Record ``value`` into the named fixed-bucket histogram.

        The bucket layout is fixed by the *first* observation of a metric;
        later calls reuse it (passing different buckets for the same name
        is a programming error and raises).
        """
        if not self.enabled:
            return
        key = metric_name(name, **labels)
        with self._lock:
            stat = self._get_histogram(key, buckets)
            stat.record(float(value))

    def merge_histogram(
        self,
        name: str,
        buckets: tuple[float, ...],
        counts: list[int],
        total: float,
        **labels: object,
    ) -> None:
        """Merge pre-aggregated bucket counts into the named histogram.

        The batch-granularity fast path for hot loops (the serving layer
        records one merge per *batch* instead of one :meth:`observe` per
        request): the caller buckets its values however it likes — e.g.
        vectorised with NumPy — and hands over ``len(buckets) + 1`` cell
        counts (last cell = overflow) plus the summed total.  One lock
        acquisition regardless of how many observations the batch holds.
        """
        if not self.enabled:
            return
        if len(counts) != len(buckets) + 1:
            raise ValueError(
                f"expected {len(buckets) + 1} bucket counts (incl. overflow), "
                f"got {len(counts)}"
            )
        key = metric_name(name, **labels)
        with self._lock:
            stat = self._get_histogram(key, buckets)
            for index, cell in enumerate(counts):
                stat.counts[index] += int(cell)
            merged = int(sum(counts))
            stat.count += merged
            stat.total += float(total)

    def _get_histogram(self, key: str, buckets: tuple[float, ...]) -> _HistogramStat:
        """Fetch-or-create under the caller's lock; enforces fixed buckets."""
        stat = self._histograms.get(key)
        if stat is None:
            stat = self._histograms[key] = _HistogramStat(tuple(float(b) for b in buckets))
        elif stat.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {key!r} was created with buckets {stat.buckets}, "
                f"cannot re-register with {tuple(buckets)}"
            )
        return stat

    # -- reads -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serialisable, internally consistent copy of every metric."""
        with self._lock:
            counters = dict(self._counters)
            timers = {
                name: {
                    "count": stat.count,
                    "total_seconds": stat.total_seconds,
                    "max_seconds": stat.max_seconds,
                }
                for name, stat in self._timers.items()
            }
            histograms = {
                name: {
                    "buckets": list(stat.buckets),
                    "counts": list(stat.counts),
                    "count": stat.count,
                    "total": stat.total,
                }
                for name, stat in self._histograms.items()
            }
        return {"counters": counters, "timers": timers, "histograms": histograms}

    def counter_value(self, name: str, **labels: object) -> int:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(metric_name(name, **labels), 0)

    def reset(self) -> None:
        """Drop every metric (the registry stays enabled/disabled as-is)."""
        with self._lock:
            self._counters.clear()
            self._timers.clear()
            self._histograms.clear()


def merge_snapshots(snapshots) -> dict:
    """Combine :meth:`MetricsRegistry.snapshot` dicts from several sources.

    The reduce step for registries kept in several processes (each records
    its own telemetry, one place merges them): counters add, timers add
    counts/totals and keep the max, histograms add cell counts — but only
    across identical bucket layouts (mismatched layouts raise
    ``ValueError``, the same contract as :meth:`MetricsRegistry.observe`).
    """
    merged = {"counters": {}, "timers": {}, "histograms": {}}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + int(value)
        for name, stat in snapshot.get("timers", {}).items():
            into = merged["timers"].setdefault(
                name, {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
            )
            into["count"] += int(stat["count"])
            into["total_seconds"] += float(stat["total_seconds"])
            into["max_seconds"] = max(into["max_seconds"], float(stat["max_seconds"]))
        for name, stat in snapshot.get("histograms", {}).items():
            into = merged["histograms"].get(name)
            if into is None:
                merged["histograms"][name] = {
                    "buckets": list(stat["buckets"]),
                    "counts": list(stat["counts"]),
                    "count": int(stat["count"]),
                    "total": float(stat["total"]),
                }
                continue
            if list(stat["buckets"]) != into["buckets"]:
                raise ValueError(
                    f"histogram {name!r} has mismatched bucket layouts across snapshots"
                )
            into["counts"] = [
                existing + int(new) for existing, new in zip(into["counts"], stat["counts"])
            ]
            into["count"] += int(stat["count"])
            into["total"] += float(stat["total"])
    return merged
