"""Structural schema for the ``BENCH_serving.json`` artifact.

Hand-rolled on :mod:`repro.utils.schema` (no jsonschema dependency).
Beyond structure, the schema *is* the serving acceptance gate: a payload
whose microbatched predictions diverged from single-request ``predict``,
or that dropped an admitted request, fails validation — CI and tests call
:func:`validate_serving_payload` so a regression cannot write a
plausible-looking artifact.
"""

from __future__ import annotations

from repro.telemetry.schema import validate_snapshot
from repro.utils.schema import SchemaChecks, is_number

#: v3: ``workload.mode`` ("closed" | "open"), ``service.n_shards``, the
#: closed-loop ``results.timeline`` block (warmup-excluded steady rps),
#: the open-loop ``results.open_loop`` rate sweep (coordinated-omission-
#: safe percentiles), and the ``results.sharding`` block + gates for runs
#: driven through :class:`~repro.serving.shard.ShardedServer`.
SERVING_SCHEMA_VERSION = 3

#: Valid ``workload.mode`` values: ``closed`` — each worker holds one
#: request in flight (latency under self-throttling); ``open`` — requests
#: arrive on a fixed seeded schedule regardless of completions (latency
#: under offered load, immune to coordinated omission).
MODES = ("closed", "open")

_WORKLOAD_INT_FIELDS = (
    "dim",
    "levels",
    "chunk_size",
    "n_features",
    "n_classes",
    "seed",
    "n_requests",
    "concurrency",
    "n_tenants",
)
_LATENCY_FIELDS = ("p50", "p99", "mean", "max")
_OPEN_LOOP_LATENCY_FIELDS = ("p50", "p90", "p99", "p999", "mean", "max")
_REQUEST_FIELDS = ("sent", "completed", "rejected", "dropped")
_TENANT_COUNT_FIELDS = ("sent", "completed", "rejected", "dropped")
_ACCEPTOR_COUNT_FIELDS = (
    "forwarded",
    "answered",
    "failed",
    "retried",
    "respawns",
    "cancelled",
    "dropped",
)

_schema = SchemaChecks("serving")


def _check_positive_number(value: object, message: str) -> None:
    _schema.require(
        is_number(value) and value > 0,
        message,
    )


def _validate_fleet(results: dict, checks: dict, n_tenants: int, requests: dict) -> None:
    """Fleet-mode gates: per-tenant balance + bit-identity, swap availability.

    These are the multi-tenant acceptance criteria: every tenant's
    request accounting must balance to zero dropped and its sent,
    completed and rejected counts must sum to the run totals, every tenant's
    microbatched predictions must be bit-identical to its single-model
    sequential oracle, and a hot-swap performed under load must have
    availability 1.0 (every request answered across the flip).
    """
    fleet = results.get("fleet")
    _schema.require(isinstance(fleet, dict), "fleet payloads must carry results.fleet")
    tenants = fleet.get("tenants")
    _schema.require(
        isinstance(tenants, dict) and len(tenants) == n_tenants,
        f"results.fleet.tenants must describe all {n_tenants} tenants",
    )
    totals = dict.fromkeys(("sent", "completed", "rejected"), 0)
    for tenant, stats in tenants.items():
        _schema.require(isinstance(tenant, str) and tenant, "tenant names must be strings")
        _schema.require(isinstance(stats, dict), f"fleet.tenants[{tenant!r}] must be an object")
        for field in _TENANT_COUNT_FIELDS:
            _schema.count(
                stats.get(field), f"fleet.tenants[{tenant!r}].{field} must be a count"
            )
        _schema.require(
            stats["dropped"] == 0, f"tenant {tenant!r} dropped admitted requests"
        )
        _schema.require(
            stats.get("match_single") is True,
            f"tenant {tenant!r} predictions diverged from its single-model oracle",
        )
        for field in totals:
            totals[field] += stats[field]
    for field, total in totals.items():
        _schema.require(
            total == requests[field],
            f"per-tenant {field} counts must sum to requests.{field}",
        )
    _schema.require(isinstance(fleet.get("registry"), dict), "fleet.registry must be an object")

    swap = results.get("swap")
    _schema.require(isinstance(swap, dict), "fleet payloads must carry results.swap")
    _schema.require(isinstance(swap.get("performed"), bool), "swap.performed must be a bool")
    if swap["performed"]:
        _schema.require(
            isinstance(swap.get("version_before"), int)
            and isinstance(swap.get("version_after"), int)
            and swap["version_after"] == swap["version_before"] + 1,
            "a performed swap must bump the tenant version by exactly 1",
        )
        _schema.require(
            swap.get("availability") == 1.0,
            "swap availability must be 1.0 (zero-downtime gate)",
        )
        _schema.require(
            checks.get("swap_zero_downtime") is True,
            "checks.swap_zero_downtime must gate true for a performed swap",
        )
    _schema.require(
        checks.get("per_tenant_bit_identity") is True,
        "checks.per_tenant_bit_identity must be true",
    )


def _validate_timeline(results: dict) -> None:
    """Closed-loop throughput-over-time block: the anti-ramp-skew gate.

    ``steady_rps`` (warmup buckets excluded) is the headline number; the
    raw bucket series stays in the artifact so a reader can see the ramp
    the headline excludes.
    """
    timeline = results.get("timeline")
    _schema.require(
        isinstance(timeline, dict), "closed-loop payloads must carry results.timeline"
    )
    _check_positive_number(
        timeline.get("bucket_seconds"), "timeline.bucket_seconds must be positive"
    )
    buckets = timeline.get("buckets_rps")
    _schema.require(
        isinstance(buckets, list) and buckets,
        "timeline.buckets_rps must be a non-empty list",
    )
    for value in buckets:
        _schema.require(
            is_number(value) and value >= 0,
            "timeline.buckets_rps entries must be numbers >= 0",
        )
    _schema.count(
        timeline.get("warmup_buckets"), "timeline.warmup_buckets must be a count"
    )
    _schema.require(
        timeline["warmup_buckets"] < len(buckets),
        "timeline.warmup_buckets must leave at least one steady bucket",
    )
    for field in ("steady_rps", "overall_rps"):
        _check_positive_number(timeline.get(field), f"timeline.{field} must be positive")


def _validate_open_loop(results: dict) -> None:
    """Open-loop rate sweep: per-rate coordinated-omission-safe percentiles."""
    open_loop = results.get("open_loop")
    _schema.require(
        isinstance(open_loop, dict), "open-loop payloads must carry results.open_loop"
    )
    rates = open_loop.get("rates")
    _schema.require(
        isinstance(rates, list) and rates,
        "open_loop.rates must be a non-empty list of rate blocks",
    )
    for block in rates:
        _schema.require(isinstance(block, dict), "open_loop rate blocks must be objects")
        _check_positive_number(block.get("rate"), "rate blocks need a positive rate")
        _check_positive_number(
            block.get("achieved_rps"), "rate blocks need a positive achieved_rps"
        )
        _schema.count(block.get("requests"), "rate blocks need a requests count")
        _schema.require(block["requests"] > 0, "rate blocks must cover >= 1 request")
        lag = block.get("max_lag_seconds")
        _schema.require(
            is_number(lag) and lag >= 0,
            "rate blocks need max_lag_seconds >= 0",
        )
        latency = block.get("latency_seconds")
        _schema.require(isinstance(latency, dict), "rate blocks need latency_seconds")
        for field in _OPEN_LOOP_LATENCY_FIELDS:
            value = latency.get(field)
            _schema.require(
                is_number(value) and value >= 0,
                f"open-loop latency_seconds.{field} must be a number >= 0",
            )
        _schema.require(
            latency["p50"] <= latency["p90"] <= latency["p99"] <= latency["p999"]
            <= latency["max"],
            "open-loop latency percentiles must be ordered",
        )


def _validate_sharding(results: dict, checks: dict, n_shards: int) -> None:
    """Sharded-run gates: acceptor accounting balances, bit-identity holds,
    and a chaos kill (when performed) recovered with availability 1.0."""
    sharding = results.get("sharding")
    _schema.require(
        isinstance(sharding, dict), "sharded payloads must carry results.sharding"
    )
    acceptor = sharding.get("acceptor")
    _schema.require(isinstance(acceptor, dict), "sharding.acceptor must be an object")
    for field in _ACCEPTOR_COUNT_FIELDS:
        _schema.count(acceptor.get(field), f"sharding.acceptor.{field} must be a count")
    _schema.require(acceptor["dropped"] == 0, "the acceptor dropped forwarded requests")
    _schema.require(
        checks.get("shard_outputs_match") is True,
        "sharded predictions diverged from single-process serving",
    )
    chaos = sharding.get("chaos")
    _schema.require(isinstance(chaos, dict), "sharding.chaos must be an object")
    _schema.require(isinstance(chaos.get("performed"), bool), "chaos.performed must be a bool")
    if chaos["performed"]:
        _schema.count(chaos.get("shard"), "chaos.shard must be a shard index")
        _schema.require(chaos["shard"] < n_shards, "chaos.shard must be a valid shard index")
        _schema.require(
            acceptor["respawns"] >= 1,
            "a performed chaos kill must be answered by >= 1 respawn",
        )
        _schema.require(
            chaos.get("availability") == 1.0,
            "chaos availability must be 1.0 (every request answered across the kill)",
        )
        _schema.require(
            checks.get("shard_recovery") is True,
            "checks.shard_recovery must gate true for a performed chaos kill",
        )


def validate_serving_payload(payload: object) -> dict:
    """Validate a loaded ``BENCH_serving.json`` payload; returns it on success.

    Raises ``ValueError`` describing the first violation found.
    """
    _schema.require(isinstance(payload, dict), "payload must be a JSON object")
    _schema.require(
        payload.get("schema_version") == SERVING_SCHEMA_VERSION,
        f"schema_version must be {SERVING_SCHEMA_VERSION}",
    )
    _schema.require(payload.get("benchmark") == "serving", "benchmark must be 'serving'")

    workload = payload.get("workload")
    _schema.require(isinstance(workload, dict), "workload must be an object")
    for field in _WORKLOAD_INT_FIELDS:
        _schema.require(
            isinstance(workload.get(field), int) and not isinstance(workload[field], bool),
            f"workload.{field} must be an int",
        )
    mode = workload.get("mode")
    _schema.require(mode in MODES, f"workload.mode must be one of {MODES}")

    service = payload.get("service")
    _schema.require(isinstance(service, dict), "service must be an object")
    for field in ("max_batch", "max_queue_depth", "n_shards"):
        _check_positive_number(service.get(field), f"service.{field} must be positive")
        _schema.require(isinstance(service[field], int), f"service.{field} must be an int")
    _check_positive_number(service.get("max_wait_ms"), "service.max_wait_ms must be positive")
    _schema.require(
        isinstance(service.get("fused_active"), bool), "service.fused_active must be a bool"
    )

    results = payload.get("results")
    _schema.require(isinstance(results, dict), "results must be an object")
    for field in ("throughput_rps", "sequential_rps", "speedup_vs_sequential"):
        _check_positive_number(results.get(field), f"results.{field} must be positive")

    latency = results.get("latency_seconds")
    _schema.require(isinstance(latency, dict), "results.latency_seconds must be an object")
    for field in _LATENCY_FIELDS:
        value = latency.get(field)
        _schema.require(
            is_number(value) and value >= 0,
            f"latency_seconds.{field} must be a number >= 0",
        )
    _schema.require(
        latency["p50"] <= latency["p99"] <= latency["max"],
        "latency percentiles must be ordered: p50 <= p99 <= max",
    )

    if mode == "closed":
        # Batch/flush accounting comes from the one in-process service a
        # closed-loop run drives; a sharded open-loop run has one service
        # per shard process and reports per-shard blocks via health
        # instead.
        batches = results.get("batches")
        _schema.require(isinstance(batches, dict), "results.batches must be an object")
        _check_positive_number(batches.get("count"), "batches.count must be positive")
        _schema.require(isinstance(batches["count"], int), "batches.count must be an int")
        _check_positive_number(batches.get("mean_size"), "batches.mean_size must be positive")
        _check_positive_number(batches.get("max_size"), "batches.max_size must be positive")

        flush_reasons = results.get("flush_reasons")
        _schema.require(
            isinstance(flush_reasons, dict) and flush_reasons,
            "results.flush_reasons must be a non-empty object",
        )
        for reason, count in flush_reasons.items():
            _schema.require(isinstance(reason, str), "flush reasons must be strings")
            _schema.count(count, f"flush_reasons[{reason!r}] must be a count")
        _schema.require(
            sum(flush_reasons.values()) == batches["count"],
            "flush_reasons must sum to batches.count",
        )
        _validate_timeline(results)
    else:
        _validate_open_loop(results)

    requests = results.get("requests")
    _schema.require(isinstance(requests, dict), "results.requests must be an object")
    for field in _REQUEST_FIELDS:
        _schema.count(requests.get(field), f"requests.{field} must be a count")
    if mode == "closed":
        _schema.require(
            requests["sent"] == workload["n_requests"],
            "requests.sent must equal workload.n_requests",
        )
    else:
        n_rates = len(results["open_loop"]["rates"])
        _schema.require(
            requests["sent"] == workload["n_requests"] * n_rates,
            "requests.sent must equal workload.n_requests x swept rates",
        )
    _schema.require(
        requests["completed"] == requests["sent"],
        "every sent request must complete (requests.completed == requests.sent)",
    )

    checks = payload.get("checks")
    _schema.require(isinstance(checks, dict), "checks must be an object")
    _schema.require(
        checks.get("predictions_match_single") is True,
        "microbatched predictions diverged from single-request predict",
    )
    _schema.require(checks.get("zero_dropped") is True, "admitted requests were dropped")
    _schema.require(requests["dropped"] == 0, "requests.dropped must be 0")

    if service["n_shards"] > 1:
        _validate_sharding(results, checks, service["n_shards"])

    n_tenants = workload["n_tenants"]
    _schema.require(n_tenants >= 1, "workload.n_tenants must be >= 1")
    _schema.require(
        isinstance(workload.get("scenario"), str) and workload["scenario"],
        "workload.scenario must be a non-empty string",
    )
    if n_tenants > 1:
        _validate_fleet(results, checks, n_tenants, requests)

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
