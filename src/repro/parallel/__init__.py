"""Multi-process execution layer: sharded training and parallel sweeps.

Counter-based LookHD training and the fault-injection BER sweep are
both embarrassingly parallel; this package holds the one executor they
share plus the sharded trainer built on it:

* :mod:`repro.parallel.executor` — worker lifecycle, deterministic shard
  planning, zero-copy ``multiprocessing.shared_memory`` array shipping,
  typed worker-error propagation, in-process fallback;
* :mod:`repro.parallel.trainer` — :class:`ParallelTrainer`, bit-identical
  to the sequential :class:`~repro.lookhd.trainer.LookHDTrainer`.

Entry points: ``LookHDClassifier.fit(..., n_workers=N)``,
``repro faults --workers N``, ``repro train --workers N``.
"""

from repro.parallel.executor import (
    AttachedArray,
    MapStats,
    ProcessExecutor,
    SharedArray,
    SharedArraySpec,
    WorkerError,
    default_start_method,
    plan_shards,
    reap_processes,
    resolve_n_workers,
    shared_memory_available,
    watch_process,
)
from repro.parallel.trainer import ParallelTrainer

__all__ = [
    "AttachedArray",
    "MapStats",
    "ParallelTrainer",
    "ProcessExecutor",
    "SharedArray",
    "SharedArraySpec",
    "WorkerError",
    "default_start_method",
    "plan_shards",
    "reap_processes",
    "resolve_n_workers",
    "shared_memory_available",
    "watch_process",
]
