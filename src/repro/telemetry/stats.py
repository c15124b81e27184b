"""The ``repro stats`` workload: exercise the pipeline, emit a snapshot.

Runs a small, pinned-seed synthetic workload through every instrumented
layer — counter training, fused inference, a forced budget fallback, a
forced raw-table encoder path, online learning, and a persistence round
trip — with telemetry enabled, then returns the schema-validated report.
The point is not performance (that is ``perfbench/``) but *coverage*: one
command that proves every signal the telemetry layer claims to capture is
actually being captured.

Also home to :func:`measure_disabled_overhead`, the CI gate that keeps the
instrumentation honest about its "near zero when off" promise: it times
the public (instrumented) fused predict path against a hand-inlined,
telemetry-free reimplementation of the same kernel on a small predict
micro-workload and reports the relative overhead.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro import kernels, telemetry
from repro.datasets.synthetic import SyntheticSpec, make_synthetic_classification
from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.inference import FusedFallbackWarning
from repro.lookhd.online import OnlineLookHD
from repro.lookhd.persistence import load_classifier, save_classifier
from repro.telemetry.schema import STATS_SCHEMA_VERSION, validate_stats_payload


@dataclass(frozen=True)
class StatsWorkload:
    """Geometry of the instrumented coverage workload (small on purpose)."""

    dim: int = 256
    levels: int = 4
    chunk_size: int = 4
    n_features: int = 32
    n_classes: int = 4
    n_train: int = 240
    n_test: int = 120
    seed: int = 11

    def config_dict(self) -> dict:
        return asdict(self)


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _make_dataset(workload: StatsWorkload):
    return make_synthetic_classification(
        SyntheticSpec(
            n_features=workload.n_features,
            n_classes=workload.n_classes,
            n_train=workload.n_train,
            n_test=workload.n_test,
            seed=workload.seed,
        ),
        name="stats",
    )


def run_stats_workload(workload: StatsWorkload | None = None) -> dict:
    """Run the coverage workload; returns the validated ``repro stats`` payload."""
    workload = workload if workload is not None else StatsWorkload()
    data = _make_dataset(workload)
    train_x, train_y = data.train_features, data.train_labels
    test_x = data.test_features

    with telemetry.enabled() as registry:
        # 1. The paper pipeline: counter training + fused score-table serving.
        clf = LookHDClassifier(
            LookHDConfig(
                dim=workload.dim,
                levels=workload.levels,
                chunk_size=workload.chunk_size,
                seed=workload.seed,
            )
        )
        clf.fit(train_x, train_y)
        clf.predict(test_x)  # builds the score table, counts fused queries
        # Mutate the model so the version counter forces a table rebuild.
        probe = clf.encoder.encode(test_x[0])
        clf.compressed_model.retrain_update(0, min(1, workload.n_classes - 1), probe)
        clf.predict(test_x[:8])

        # 2. A zero-budget engine: every predict falls back with a reason.
        fallback_clf = LookHDClassifier(
            LookHDConfig(
                dim=workload.dim,
                levels=workload.levels,
                chunk_size=workload.chunk_size,
                seed=workload.seed,
                score_table_budget_bytes=0,
            )
        )
        fallback_clf.fit(train_x, train_y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FusedFallbackWarning)
            fallback_clf.predict(test_x[:8])

        # 3. A zero-budget encoder: the raw-table (bind-on-the-fly) path.
        clf.encoder.prebind_budget_bytes = 0
        clf.encoder.invalidate_prebound()
        clf.encoder.encode(test_x[:8])

        # 4. Online learning + its histogram.
        online = OnlineLookHD(clf.encoder, int(np.max(train_y)) + 1)
        online.partial_fit(train_x[:120], train_y[:120])
        online.predict(test_x[:8])

        # 5. Persistence round trip (timers + checksum verifications).
        with tempfile.TemporaryDirectory() as tmp:
            path = save_classifier(clf, Path(tmp) / "stats-model.npz")
            load_classifier(path)

        snapshot = registry.snapshot()

    payload = {
        "schema_version": STATS_SCHEMA_VERSION,
        "benchmark": "stats",
        "workload": workload.config_dict(),
        "environment": _environment(),
        "telemetry": snapshot,
    }
    return validate_stats_payload(payload)


# -- disabled-mode overhead gate -----------------------------------------------


def measure_disabled_overhead(
    repeats: int = 7,
    n_test: int = 8_000,
    dim: int = 1_000,
) -> dict:
    """Overhead of disabled telemetry on a small predict micro-workload.

    Times the instrumented public fused predict path against a local,
    telemetry-free call of the kernel it serves from (the compiled
    :func:`repro.kernels.fused_predict` when loaded, else quantize →
    addresses → score-table gather/sum → argmax) and returns best-of-
    ``repeats`` wall times plus their relative difference.  Best-of (not
    median) is used because the quantity under test is a fixed per-batch
    instruction overhead, and minima strip scheduler noise.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    data = make_synthetic_classification(
        SyntheticSpec(n_features=40, n_classes=6, n_train=600, n_test=n_test, seed=5),
        name="overhead",
    )
    clf = LookHDClassifier(LookHDConfig(dim=dim, levels=4, chunk_size=5, seed=5))
    clf.fit(data.train_features, data.train_labels)
    test = data.test_features
    engine = clf.fused_engine()
    table = engine.score_table
    assert table is not None, "overhead workload must serve the fused path"
    encoder = clf.encoder
    n_classes = engine.n_classes

    def instrumented() -> np.ndarray:
        return clf.predict(test)

    def baseline() -> np.ndarray:
        if kernels.current_mode() == "compiled":
            layout = encoder.layout
            return kernels.fused_predict(
                np.ascontiguousarray(test, dtype=np.float64),
                encoder.quantizer.searchsorted_boundaries(),
                encoder.quantizer.levels, layout.chunk_size, layout.n_chunks, table,
            )[1]
        addresses = encoder.addresses(test)
        out = np.zeros((addresses.shape[0], n_classes), dtype=np.float64)
        for chunk in range(addresses.shape[1]):
            out += table[chunk][addresses[:, chunk]]
        return np.argmax(out, axis=1)

    if not np.array_equal(instrumented(), baseline()):
        raise RuntimeError("overhead baseline diverged from the instrumented path")

    # Each sample runs enough calls to last ~25 ms: a single compiled
    # predict of the batch takes ~2 ms, too short for a steady minimum.
    start = time.perf_counter()
    baseline()
    calls = max(1, int(np.ceil(0.025 / max(time.perf_counter() - start, 1e-6))))
    instrumented_times, baseline_times = [], []
    for _ in range(repeats):
        # Interleave so drift (thermal, caches) hits both paths equally.
        start = time.perf_counter()
        for _ in range(calls):
            baseline()
        baseline_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(calls):
            instrumented()
        instrumented_times.append(time.perf_counter() - start)

    best_baseline = min(baseline_times) / calls
    best_instrumented = min(instrumented_times) / calls
    return {
        "baseline_seconds": best_baseline,
        "instrumented_seconds": best_instrumented,
        "overhead_fraction": best_instrumented / max(best_baseline, 1e-12) - 1.0,
        "repeats": repeats,
        "n_test": n_test,
        "dim": dim,
    }


def write_stats_file(
    out_path: str | Path,
    workload: StatsWorkload | None = None,
    overhead: dict | None = None,
    stream=None,
) -> Path:
    """Run the stats workload and write the report JSON; returns the path."""
    if stream is None:
        stream = sys.stdout
    payload = run_stats_workload(workload)
    if overhead is not None:
        payload["overhead"] = overhead
        validate_stats_payload(payload)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    counters = payload["telemetry"]["counters"]
    for name in sorted(counters):
        print(f"[stats] {name} = {counters[name]}", file=stream)
    for name, stanza in sorted(payload["telemetry"]["timers"].items()):
        print(
            f"[stats] {name}: count={stanza['count']} "
            f"total={stanza['total_seconds']:.6f}s max={stanza['max_seconds']:.6f}s",
            file=stream,
        )
    return out_path
