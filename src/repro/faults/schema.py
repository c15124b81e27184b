"""Structural schema for ``BENCH_faults.json`` reports.

Hand-rolled like :mod:`repro.bench.schema` (no jsonschema dependency):
tests and CI validate every report so the fault harness's output stays
machine-readable and comparable across the repo's history.
"""

from __future__ import annotations

from repro.utils.schema import SchemaChecks, is_number

FAULTS_SCHEMA_VERSION = 1

_CURVE_FIELDS = ("ber", "accuracy_mean", "accuracy_std", "accuracy_min", "accuracy_drop")
_REQUIRED_MODELS = ("plain", "compressed", "decorrelated")
_NOISE_FIELDS = ("noise_to_signal", "rank_flip_rate")

_schema = SchemaChecks("faults")


def _check_noise(label: str, stats: object) -> None:
    _schema.require(isinstance(stats, dict), f"{label} must be an object")
    for field in _NOISE_FIELDS:
        _schema.number(stats.get(field), f"{label}.{field} must be a number", low=0.0)


def validate_faults_payload(payload: object) -> dict:
    """Validate a loaded ``BENCH_faults.json`` payload; returns it on success.

    Raises ``ValueError`` describing the first violation found.
    """
    _schema.require(isinstance(payload, dict), "payload must be a JSON object")
    _schema.require(
        payload.get("schema_version") == FAULTS_SCHEMA_VERSION,
        f"schema_version must be {FAULTS_SCHEMA_VERSION}",
    )
    _schema.require(payload.get("benchmark") == "faults", "benchmark must be 'faults'")

    config = payload.get("config")
    _schema.require(isinstance(config, dict), "config must be an object")
    bers = config.get("bers")
    _schema.require(isinstance(bers, list) and bers, "config.bers must be a non-empty list")
    for ber in bers:
        _schema.number(ber, "config.bers entries must be numbers", low=0.0, high=1.0)
    for field in ("dim", "levels", "chunk_size", "n_classes", "trials", "seed"):
        _schema.require(isinstance(config.get(field), int), f"config.{field} must be an int")
    targets = config.get("targets")
    _schema.require(
        isinstance(targets, list) and targets and all(isinstance(t, str) for t in targets),
        "config.targets must be a non-empty list of strings",
    )

    environment = payload.get("environment")
    _schema.require(isinstance(environment, dict), "environment must be an object")
    for field in ("python", "numpy", "platform"):
        _schema.require(
            isinstance(environment.get(field), str),
            f"environment.{field} must be a string",
        )

    models = payload.get("models")
    _schema.require(isinstance(models, list) and models, "models must be a non-empty list")
    names = []
    for entry in models:
        _schema.require(isinstance(entry, dict), "each model must be an object")
        name = entry.get("name")
        _schema.require(isinstance(name, str), "model missing name")
        names.append(name)
        _schema.number(
            entry.get("clean_accuracy"), f"model {name!r} clean_accuracy", low=0.0, high=1.0
        )
        _schema.require(
            isinstance(entry.get("exposed_bits"), int),
            f"model {name!r} exposed_bits must be an int",
        )
        curve = entry.get("curve")
        _schema.require(
            isinstance(curve, list) and curve,
            f"model {name!r} curve must be a non-empty list",
        )
        _schema.require(
            len(curve) == len(bers),
            f"model {name!r} curve must have one point per swept BER",
        )
        for point in curve:
            _schema.require(isinstance(point, dict), f"model {name!r} curve points must be objects")
            for field in _CURVE_FIELDS:
                _schema.number(point.get(field), f"model {name!r} curve point {field}")
            _schema.number(point.get("accuracy_mean"), "accuracy_mean", low=0.0, high=1.0)
            _schema.require(
                isinstance(point.get("trials"), int) and point["trials"] >= 1,
                f"model {name!r} curve point trials must be a positive int",
            )
        safe = entry.get("max_safe_ber")
        _schema.require(
            safe is None or is_number(safe),
            f"model {name!r} max_safe_ber must be a number or null",
        )
        if entry.get("noise_clean") is not None:
            _check_noise(f"model {name!r} noise_clean", entry["noise_clean"])
        if entry.get("noise_at_max_ber") is not None:
            _check_noise(f"model {name!r} noise_at_max_ber", entry["noise_at_max_ber"])
    for required in _REQUIRED_MODELS:
        _schema.require(required in names, f"models must include the {required!r} variant")

    feature_noise = payload.get("feature_noise")
    _schema.require(isinstance(feature_noise, list), "feature_noise must be a list")
    for entry in feature_noise:
        _schema.require(isinstance(entry, dict), "feature_noise entries must be objects")
        _schema.number(entry.get("sigma"), "feature_noise sigma", low=0.0)
        accuracy = entry.get("accuracy")
        _schema.require(
            isinstance(accuracy, dict) and accuracy,
            "feature_noise entry missing accuracy map",
        )
        for variant, value in accuracy.items():
            _schema.number(value, f"feature_noise accuracy[{variant!r}]", low=0.0, high=1.0)

    checks = payload.get("checks")
    _schema.require(isinstance(checks, dict), "checks must be an object")
    _schema.number(checks.get("chance_accuracy"), "checks.chance_accuracy", low=0.0, high=1.0)
    _schema.number(
        checks.get("accuracy_drop_budget"), "checks.accuracy_drop_budget", low=0.0, high=1.0
    )
    return payload
