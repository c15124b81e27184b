"""Structural schema for the ``BENCH_*.json`` artifacts.

Hand-rolled (no jsonschema dependency): CI and tests call
:func:`validate_bench_payload` to guarantee the files every PR writes stay
machine-readable and comparable across the repo's history.
"""

from __future__ import annotations

from repro.telemetry.schema import validate_snapshot
from repro.utils.schema import SchemaChecks, is_number

SCHEMA_VERSION = 1

#: Timing stanzas required per workload, by benchmark kind.
_REQUIRED_TIMINGS = {
    "inference": ("encode_reference", "encode_fused", "predict_reference", "predict_fused"),
    "training": ("train_reference", "train_lookup"),
}
_REQUIRED_SPEEDUPS = {
    "inference": ("encode", "predict"),
    "training": ("train",),
}
_TIMING_FIELDS = ("seconds_median", "seconds_best", "samples_per_second", "repeats")

_schema = SchemaChecks("bench")


def _check_timing(name: str, stanza: object) -> None:
    _schema.require(isinstance(stanza, dict), f"timing {name!r} must be an object")
    for field in _TIMING_FIELDS:
        _schema.require(field in stanza, f"timing {name!r} missing {field!r}")
        _schema.require(
            is_number(stanza[field]),
            f"timing {name!r} field {field!r} must be a number",
        )
    _schema.require(stanza["seconds_median"] >= 0, f"timing {name!r} has negative time")


#: Numeric fields required in every scaling point (beyond n_workers /
#: outputs_sha256 / outputs_match / in_process, which are checked apart).
_SCALING_POINT_NUMBERS = (
    "seconds_median",
    "samples_per_second",
    "speedup_vs_workers1",
    "busy_seconds",
    "setup_seconds",
    "merge_seconds",
    "utilisation",
)


def _check_scaling(label: str, scaling: object, checks: dict) -> None:
    """Validate a workload's ``scaling`` block (training-scaling profiles).

    Every point must carry the bit-identity hash, and the workload-level
    ``checks.parallel_outputs_match`` must be True — a scaling artifact
    whose parallel trainer diverged from the sequential one is invalid,
    not merely slow.
    """
    _schema.require(isinstance(scaling, dict), f"workload {label!r} scaling must be an object")
    worker_counts = scaling.get("worker_counts")
    _schema.require(
        isinstance(worker_counts, list) and worker_counts,
        f"workload {label!r} scaling.worker_counts must be a non-empty list",
    )
    for count in worker_counts:
        _schema.require(
            isinstance(count, int) and not isinstance(count, bool) and count >= 1,
            f"workload {label!r} scaling.worker_counts entries must be ints >= 1",
        )
    cpu_count = scaling.get("cpu_count")
    _schema.require(
        isinstance(cpu_count, int) and not isinstance(cpu_count, bool) and cpu_count >= 1,
        f"workload {label!r} scaling.cpu_count must be an int >= 1",
    )
    points = scaling.get("points")
    _schema.require(
        isinstance(points, list) and len(points) == len(worker_counts),
        f"workload {label!r} scaling.points must have one entry per worker count",
    )
    for point in points:
        _schema.require(
            isinstance(point, dict),
            f"workload {label!r} scaling point must be an object",
        )
        _schema.require(
            point.get("n_workers") in worker_counts,
            f"workload {label!r} scaling point n_workers not in worker_counts",
        )
        where = f"workload {label!r} scaling point w={point.get('n_workers')}"
        for field in _SCALING_POINT_NUMBERS:
            value = point.get(field)
            _schema.require(is_number(value), f"{where} {field} must be a number")
            _schema.require(value >= 0, f"{where} {field} must be >= 0")
        _schema.require(
            isinstance(point.get("outputs_sha256"), str),
            f"{where} missing outputs_sha256",
        )
        _schema.require(
            isinstance(point.get("outputs_match"), bool),
            f"{where} missing outputs_match",
        )
        _schema.require(
            isinstance(point.get("in_process"), bool),
            f"{where} missing in_process",
        )
    _schema.require(
        checks.get("parallel_outputs_match") is True,
        f"workload {label!r} parallel trainer diverged from sequential "
        "(checks.parallel_outputs_match must be True)",
    )


def validate_bench_payload(payload: object, benchmark: str | None = None) -> dict:
    """Validate a loaded ``BENCH_*.json`` payload; returns it on success.

    Raises ``ValueError`` describing the first violation found.
    """
    _schema.require(isinstance(payload, dict), "payload must be a JSON object")
    _schema.require(
        payload.get("schema_version") == SCHEMA_VERSION,
        f"schema_version must be {SCHEMA_VERSION}",
    )
    kind = payload.get("benchmark")
    _schema.require(
        kind in _REQUIRED_TIMINGS,
        f"benchmark must be one of {sorted(_REQUIRED_TIMINGS)}",
    )
    if benchmark is not None:
        _schema.require(kind == benchmark, f"expected benchmark {benchmark!r}, found {kind!r}")
    _schema.require(isinstance(payload.get("profile"), str), "profile must be a string")
    environment = payload.get("environment")
    _schema.require(isinstance(environment, dict), "environment must be an object")
    for field in ("python", "numpy", "platform"):
        _schema.require(
            isinstance(environment.get(field), str),
            f"environment.{field} must be a string",
        )

    workloads = payload.get("workloads")
    _schema.require(isinstance(workloads, list) and workloads, "workloads must be a non-empty list")
    for entry in workloads:
        _schema.require(isinstance(entry, dict), "each workload must be an object")
        _schema.require(isinstance(entry.get("name"), str), "workload missing name")
        label = entry["name"]
        config = entry.get("config")
        _schema.require(isinstance(config, dict), f"workload {label!r} missing config object")
        for field in ("dim", "levels", "chunk_size", "n_features", "n_classes", "seed"):
            _schema.require(
                isinstance(config.get(field), int),
                f"workload {label!r} config.{field} must be an int",
            )
        timings = entry.get("timings")
        _schema.require(isinstance(timings, dict), f"workload {label!r} missing timings")
        for name in _REQUIRED_TIMINGS[kind]:
            _schema.require(name in timings, f"workload {label!r} missing timing {name!r}")
        # Every stanza present — required or extra (e.g. train_parallel_w4)
        # — must be well-formed.
        for name, stanza in timings.items():
            _check_timing(f"{label}.{name}", stanza)
        speedups = entry.get("speedups")
        _schema.require(isinstance(speedups, dict), f"workload {label!r} missing speedups")
        for name in _REQUIRED_SPEEDUPS[kind]:
            value = speedups.get(name)
            _schema.require(
                is_number(value) and value > 0,
                f"workload {label!r} speedups.{name} must be a positive number",
            )
        checks = entry.get("checks")
        _schema.require(isinstance(checks, dict), f"workload {label!r} missing checks")
        _schema.require(
            checks.get("outputs_match") is True,
            f"workload {label!r} fused/reference outputs diverged",
        )
        _schema.require(
            isinstance(checks.get("outputs_sha256"), str),
            f"workload {label!r} missing outputs_sha256 checksum",
        )
        if "scaling" in entry:
            _schema.require(
                kind == "training",
                f"workload {label!r} has a scaling block outside a training bench",
            )
            _check_scaling(label, entry["scaling"], checks)
    # Optional so pre-telemetry payloads keep validating; the current
    # runner always embeds an instrumented-pass snapshot.
    if "telemetry" in payload:
        try:
            validate_snapshot(payload["telemetry"])
        except ValueError as error:
            _schema.require(False, f"telemetry block invalid: {error}")
    return payload
