"""Structural schema for ``BENCH_resilience.json`` reports.

Hand-rolled like :mod:`repro.faults.schema` (no jsonschema dependency).
Beyond shape checking, this schema *is* the chaos gate: the recovery
booleans — detection, repair, post-repair bit-identity, and the
supervised-training bit-identity — must be ``True`` for the payload to
validate, so CI fails the moment self-healing regresses, not when a
human reads the numbers.
"""

from __future__ import annotations

from repro.utils.schema import SchemaChecks

RESILIENCE_SCHEMA_VERSION = 1

#: Recovery outcomes the schema requires to be literally ``True``.
_REQUIRED_TRUE_CHECKS = (
    "derived_fault_detected",
    "derived_fault_repaired",
    "post_repair_bit_identical",
    "training_counters_bit_identical",
)

_schema = SchemaChecks("resilience")


def validate_resilience_payload(payload: object) -> dict:
    """Validate a loaded ``BENCH_resilience.json`` payload; returns it.

    Raises ``ValueError`` describing the first violation found — including
    any failed recovery gate (a chaos run that did not detect, repair, and
    restore bit-identity does not produce a valid report).
    """
    _schema.require(isinstance(payload, dict), "payload must be a JSON object")
    _schema.require(
        payload.get("schema_version") == RESILIENCE_SCHEMA_VERSION,
        f"schema_version must be {RESILIENCE_SCHEMA_VERSION}",
    )
    _schema.require(payload.get("benchmark") == "resilience", "benchmark must be 'resilience'")
    _schema.require(
        payload.get("profile") in ("full", "smoke"),
        "profile must be 'full' or 'smoke'",
    )

    config = payload.get("config")
    _schema.require(isinstance(config, dict), "config must be an object")
    for field in ("dim", "levels", "chunk_size", "n_classes", "seed", "n_requests", "n_workers"):
        _schema.require(isinstance(config.get(field), int), f"config.{field} must be an int")
    _schema.number(config.get("fault_ber"), "config.fault_ber", low=0.0, high=1.0)
    _schema.require(
        isinstance(config.get("fault_target"), str), "config.fault_target must be a string"
    )

    environment = payload.get("environment")
    _schema.require(isinstance(environment, dict), "environment must be an object")
    for field in ("python", "numpy", "platform"):
        _schema.require(
            isinstance(environment.get(field), str),
            f"environment.{field} must be a string",
        )

    serving = payload.get("serving")
    _schema.require(isinstance(serving, dict), "serving must be an object")
    _schema.require(isinstance(serving.get("requests"), int), "serving.requests must be an int")
    _schema.require(serving["requests"] >= 1, "serving.requests must be >= 1")
    _schema.number(serving.get("availability"), "serving.availability", low=0.0, high=1.0)
    _schema.require(isinstance(serving.get("detected"), bool), "serving.detected must be a bool")
    _schema.require(isinstance(serving.get("repaired"), bool), "serving.repaired must be a bool")
    _schema.require(
        isinstance(serving.get("post_repair_bit_identical"), bool),
        "serving.post_repair_bit_identical must be a bool",
    )
    if serving.get("detection_seconds") is not None:
        _schema.number(serving["detection_seconds"], "serving.detection_seconds", low=0.0)
    if serving.get("repair_seconds") is not None:
        _schema.number(serving["repair_seconds"], "serving.repair_seconds", low=0.0)
    injection = serving.get("injection")
    _schema.require(isinstance(injection, dict), "serving.injection must be an object")
    _schema.require(
        isinstance(injection.get("target"), str), "serving.injection.target must be a string"
    )
    _schema.require(
        isinstance(injection.get("elements_flipped"), int)
        and injection["elements_flipped"] >= 1,
        "serving.injection.elements_flipped must be a positive int",
    )
    scrub = serving.get("scrub")
    _schema.require(isinstance(scrub, dict), "serving.scrub must be an object")
    for field in ("ticks", "blocks_verified", "errors_detected", "repairs"):
        _schema.require(isinstance(scrub.get(field), int), f"serving.scrub.{field} must be an int")

    training = payload.get("training")
    _schema.require(isinstance(training, dict), "training must be an object")
    _schema.require(isinstance(training.get("n_workers"), int), "training.n_workers must be an int")
    _schema.require(
        isinstance(training.get("parallel_executed"), bool),
        "training.parallel_executed must be a bool",
    )
    _schema.require(
        isinstance(training.get("respawns"), int) and training["respawns"] >= 0,
        "training.respawns must be a non-negative int",
    )
    _schema.require(
        isinstance(training.get("counters_bit_identical"), bool),
        "training.counters_bit_identical must be a bool",
    )
    _schema.require(
        isinstance(training.get("class_vectors_bit_identical"), bool),
        "training.class_vectors_bit_identical must be a bool",
    )
    if training["parallel_executed"]:
        _schema.require(
            training["respawns"] >= 1,
            "training.respawns must be >= 1 when the worker kill actually ran "
            "(parallel_executed is true)",
        )

    overhead = payload.get("overhead")
    _schema.require(isinstance(overhead, dict), "overhead must be an object")
    _schema.number(overhead.get("baseline_seconds"), "overhead.baseline_seconds", low=0.0)
    _schema.number(
        overhead.get("scrub_attached_seconds"), "overhead.scrub_attached_seconds", low=0.0
    )
    _schema.number(overhead.get("overhead_fraction"), "overhead.overhead_fraction")
    _schema.number(overhead.get("budget"), "overhead.budget", low=0.0)
    _schema.require(
        isinstance(overhead.get("within_budget"), bool),
        "overhead.within_budget must be a bool",
    )

    checks = payload.get("checks")
    _schema.require(isinstance(checks, dict), "checks must be an object")
    for field in _REQUIRED_TRUE_CHECKS:
        _schema.require(
            checks.get(field) is True,
            f"checks.{field} must be true — the chaos run did not recover",
        )
    _schema.require(
        isinstance(checks.get("scrub_overhead_within_budget"), bool),
        "checks.scrub_overhead_within_budget must be a bool",
    )
    return payload
