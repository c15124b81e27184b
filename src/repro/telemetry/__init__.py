"""Pipeline-wide telemetry: counters, timers, histograms, JSON snapshots.

Dependency-free observability for the serving path.  Instrumented modules
call the helpers here::

    from repro import telemetry

    telemetry.count("encoder.encode.samples", batch.shape[0])
    with telemetry.timer("persistence.save_seconds"):
        ...

All helpers route to the *active* :class:`MetricsRegistry`.  The default
registry is **disabled**, and a disabled helper returns after a single
boolean check — the instrumented kernels measurably pay <1% on a small
predict micro-workload (gated in CI via
:func:`repro.telemetry.stats.measure_disabled_overhead`).

Enable telemetry three ways:

* ``telemetry.enable()`` / ``telemetry.disable()`` — toggle the active
  registry in place (long-running services).
* ``with telemetry.enabled() as registry:`` — swap in a fresh enabled
  registry for the block and restore the previous one after; the idiom
  for tests and for one-shot reports (``repro stats``, the telemetry
  block of the serving and streaming reports).
* ``with telemetry.activated(registry):`` — route the helpers to an
  explicit registry you own.

The workload runner and overhead gate live in
:mod:`repro.telemetry.stats` (imported lazily by the CLI so that the hot
modules importing this package never pull the classifier stack in).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    NULL_TIMER,
    MetricsRegistry,
    merge_snapshots,
    metric_name,
)
from repro.telemetry.schema import (
    STATS_SCHEMA_VERSION,
    validate_snapshot,
    validate_stats_payload,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "STATS_SCHEMA_VERSION",
    "activated",
    "count",
    "disable",
    "disabled",
    "enable",
    "enabled",
    "get_registry",
    "is_enabled",
    "merge_histogram",
    "merge_snapshots",
    "metric_name",
    "observe",
    "reset",
    "snapshot",
    "timer",
    "validate_snapshot",
    "validate_stats_payload",
]

#: The process-wide default registry (disabled until someone opts in).
_DEFAULT_REGISTRY = MetricsRegistry(enabled=False)
_active = _DEFAULT_REGISTRY


def get_registry() -> MetricsRegistry:
    """The registry the module-level helpers currently route to."""
    return _active


def is_enabled() -> bool:
    """Whether the active registry is recording."""
    return _active.enabled


def enable() -> None:
    """Turn the active registry on in place."""
    _active.enabled = True


def disable() -> None:
    """Turn the active registry off in place (metrics are kept, not reset)."""
    _active.enabled = False


def count(name: str, value: int = 1, **labels: object) -> None:
    """Increment a counter on the active registry (no-op while disabled)."""
    registry = _active
    if registry.enabled:
        registry.count(name, value, **labels)


def observe(name: str, value: float, buckets=DEFAULT_BUCKETS, **labels: object) -> None:
    """Record a histogram observation on the active registry."""
    registry = _active
    if registry.enabled:
        registry.observe(name, value, buckets=buckets, **labels)


def merge_histogram(
    name: str,
    buckets: tuple[float, ...],
    counts: list[int],
    total: float,
    **labels: object,
) -> None:
    """Merge pre-aggregated bucket counts into a histogram (batch fast path)."""
    registry = _active
    if registry.enabled:
        registry.merge_histogram(name, buckets, counts, total, **labels)


def timer(name: str, **labels: object):
    """A timing context manager on the active registry (null while disabled)."""
    registry = _active
    if registry.enabled:
        return registry.timer(name, **labels)
    return NULL_TIMER


def snapshot() -> dict:
    """Snapshot the active registry."""
    return _active.snapshot()


def reset() -> None:
    """Reset the active registry's metrics."""
    _active.reset()


@contextmanager
def activated(registry: MetricsRegistry):
    """Route the module-level helpers to ``registry`` for the block."""
    global _active
    previous = _active
    _active = registry
    try:
        yield registry
    finally:
        _active = previous


@contextmanager
def enabled(fresh: bool = True):
    """Enable telemetry for the block; yields the recording registry.

    With ``fresh=True`` (the default) a brand-new enabled registry is
    swapped in, so the block observes only its own activity and the
    previous registry — including its enabled/disabled state — is restored
    on exit.  With ``fresh=False`` the current registry is enabled in
    place for the block (accumulating into whatever it already holds).
    """
    if fresh:
        with activated(MetricsRegistry(enabled=True)) as registry:
            yield registry
        return
    registry = _active
    previous_state = registry.enabled
    registry.enabled = True
    try:
        yield registry
    finally:
        registry.enabled = previous_state


@contextmanager
def disabled():
    """Force telemetry off for the block (restores the prior state after)."""
    registry = _active
    previous_state = registry.enabled
    registry.enabled = False
    try:
        yield registry
    finally:
        registry.enabled = previous_state
