"""Structural schema for the ``BENCH_streaming.json`` artifact.

Hand-rolled like :mod:`repro.serving.schema` (no jsonschema dependency).
Beyond structure, the schema *is* the streaming acceptance gate: a
payload whose streaming learner failed to recover to within
:data:`RECOVERY_TOLERANCE` of the full-pass oracle after abrupt drift,
whose boundary divergence exceeded the sketch's error guarantee, or
whose live serving section dropped an update or diverged from the
offline replica fails validation — CI and tests call
:func:`validate_streaming_payload` so a regression cannot write a
plausible-looking artifact.
"""

from __future__ import annotations

from repro.telemetry.schema import validate_snapshot
from repro.utils.schema import SchemaChecks

STREAMING_SCHEMA_VERSION = 1

#: Acceptance gate: post-drift accuracy gap (full-pass oracle minus
#: streaming learner, tail-averaged) must not exceed this.
RECOVERY_TOLERANCE = 0.02

_WORKLOAD_INT_FIELDS = (
    "dim",
    "levels",
    "chunk_size",
    "n_features",
    "n_classes",
    "seed",
    "n_batches",
    "batch_size",
    "sketch_capacity",
    "window",
)
_MODES = ("incremental", "abrupt")
_SKETCH_INT_FIELDS = ("capacity", "n", "retained", "levels", "compactions", "max_rank_error")

_schema = SchemaChecks("streaming")


def _check_fraction(value: object, message: str) -> None:
    _schema.number(value, message)
    _schema.require(0.0 <= value <= 1.0, message)


def _validate_mode(name: str, mode: object, workload: dict) -> None:
    _schema.require(isinstance(mode, dict), f"modes.{name} must be an object")
    accuracy = mode.get("accuracy")
    _schema.require(isinstance(accuracy, dict), f"modes.{name}.accuracy must be an object")
    for series in ("streaming", "oracle"):
        values = accuracy.get(series)
        _schema.require(
            isinstance(values, list) and len(values) == workload["n_batches"],
            f"modes.{name}.accuracy.{series} must list one value per batch",
        )
        for value in values:
            _check_fraction(
                value, f"modes.{name}.accuracy.{series} entries must be in [0, 1]"
            )
    _schema.count(mode.get("tail_batches"), f"modes.{name}.tail_batches must be a count")
    _schema.require(
        0 < mode["tail_batches"] <= workload["n_batches"],
        f"modes.{name}.tail_batches must be in (0, n_batches]",
    )
    for field in ("streaming_tail_accuracy", "oracle_tail_accuracy"):
        _check_fraction(mode.get(field), f"modes.{name}.{field} must be in [0, 1]")
    _schema.number(mode.get("recovery_gap"), f"modes.{name}.recovery_gap must be a number")
    _schema.require(
        abs(
            mode["recovery_gap"]
            - (mode["oracle_tail_accuracy"] - mode["streaming_tail_accuracy"])
        )
        < 1e-9,
        f"modes.{name}.recovery_gap must equal oracle minus streaming tail accuracy",
    )
    divergence = mode.get("boundary_divergence")
    bound = mode.get("divergence_bound")
    _schema.number(divergence, f"modes.{name}.boundary_divergence must be a number")
    _schema.require(divergence >= 0, f"modes.{name}.boundary_divergence must be >= 0")
    _schema.number(bound, f"modes.{name}.divergence_bound must be a number")
    _schema.require(bound > 0, f"modes.{name}.divergence_bound must be positive")
    _schema.require(
        divergence <= bound,
        f"modes.{name}: streaming boundary placement diverged beyond the "
        f"sketch error guarantee ({divergence} > {bound})",
    )
    sketch = mode.get("sketch")
    _schema.require(isinstance(sketch, dict), f"modes.{name}.sketch must be an object")
    for field in _SKETCH_INT_FIELDS:
        _schema.count(sketch.get(field), f"modes.{name}.sketch.{field} must be a count")
    _schema.number(
        sketch.get("rank_error_bound"),
        f"modes.{name}.sketch.rank_error_bound must be a number",
    )
    _schema.require(
        sketch["capacity"] == workload["sketch_capacity"],
        f"modes.{name}.sketch.capacity must match workload.sketch_capacity",
    )
    _schema.count(
        mode.get("quantizer_version"), f"modes.{name}.quantizer_version must be a count"
    )
    _schema.require(
        mode["quantizer_version"] >= 1,
        f"modes.{name}.quantizer_version must be >= 1 (boundaries never learned?)",
    )


def validate_streaming_payload(payload: object) -> dict:
    """Validate a loaded ``BENCH_streaming.json`` payload; returns it on success.

    Raises ``ValueError`` describing the first violation found.
    """
    _schema.require(isinstance(payload, dict), "payload must be a JSON object")
    _schema.require(
        payload.get("schema_version") == STREAMING_SCHEMA_VERSION,
        f"schema_version must be {STREAMING_SCHEMA_VERSION}",
    )
    _schema.require(payload.get("benchmark") == "streaming", "benchmark must be 'streaming'")

    workload = payload.get("workload")
    _schema.require(isinstance(workload, dict), "workload must be an object")
    for field in _WORKLOAD_INT_FIELDS:
        _schema.require(
            isinstance(workload.get(field), int) and not isinstance(workload[field], bool),
            f"workload.{field} must be an int",
        )
    _schema.number(workload.get("drift_magnitude"), "workload.drift_magnitude must be a number")
    _schema.require(workload["drift_magnitude"] >= 0, "workload.drift_magnitude must be >= 0")
    _schema.number(workload.get("decay"), "workload.decay must be a number")
    _schema.require(0.0 < workload["decay"] <= 1.0, "workload.decay must be in (0, 1]")

    modes = payload.get("modes")
    _schema.require(isinstance(modes, dict), "modes must be an object")
    for name in _MODES:
        _validate_mode(name, modes.get(name), workload)
    _schema.require(
        modes["abrupt"]["recovery_gap"] <= RECOVERY_TOLERANCE,
        "streaming learner failed to recover to within "
        f"{RECOVERY_TOLERANCE:.0%} of the full-pass oracle after abrupt drift "
        f"(gap {modes['abrupt']['recovery_gap']})",
    )

    serving = payload.get("serving")
    _schema.require(isinstance(serving, dict), "serving must be an object")
    for field in ("updates", "predicts", "dropped"):
        _schema.count(serving.get(field), f"serving.{field} must be a count")
    _schema.require(serving["updates"] >= 1, "serving.updates must be >= 1")
    _schema.require(serving["predicts"] >= 1, "serving.predicts must be >= 1")
    _schema.require(serving["dropped"] == 0, "live partial_fit dropped admitted requests")
    flush_reasons = serving.get("flush_reasons")
    _schema.require(
        isinstance(flush_reasons, dict) and flush_reasons,
        "serving.flush_reasons must be a non-empty object",
    )
    for reason, count in flush_reasons.items():
        _schema.require(isinstance(reason, str), "flush reasons must be strings")
        _schema.count(count, f"serving.flush_reasons[{reason!r}] must be a count")
    _schema.require(
        flush_reasons.get("update") == serving["updates"],
        "serving.flush_reasons['update'] must equal serving.updates",
    )
    _schema.require(
        serving.get("live_matches_offline") is True,
        "live-served model diverged from the offline sequential replica",
    )

    checks = payload.get("checks")
    _schema.require(isinstance(checks, dict), "checks must be an object")
    for gate in (
        "abrupt_recovery_within_tolerance",
        "divergence_within_bound",
        "serving_zero_dropped",
        "serving_live_bit_identity",
    ):
        _schema.require(checks.get(gate) is True, f"checks.{gate} must be true")

    environment = payload.get("environment")
    _schema.require(isinstance(environment, dict), "environment must be an object")
    for field in ("python", "numpy", "platform"):
        _schema.require(
            isinstance(environment.get(field), str), f"environment.{field} must be a string"
        )

    _schema.require("telemetry" in payload, "payload must embed a telemetry snapshot")
    try:
        validate_snapshot(payload["telemetry"])
    except ValueError as error:
        _schema.require(False, f"telemetry block invalid: {error}")
    return payload
