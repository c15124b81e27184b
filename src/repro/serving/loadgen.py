"""One load generator for the serving layer: schedule × target × tenants.

Measures end-to-end serving throughput and latency under concurrent
per-request traffic against the honest baseline: a sequential loop
issuing the same requests one at a time through the same fused
single-request ``predict`` (so the speedup isolates *microbatching*).

Every run goes through one pipeline.  **Fit** ``n_tenants`` seeded
models (one is the single-model case), save each and load it back, so
every mode serves and checks the round-tripped artifacts.  **Oracle**:
warm every tenant's tables, then answer the request set with one
sequential loop — the bit-identity reference and the speedup baseline.
**Drive** one of two targets (a registry-backed in-process
:class:`~repro.serving.service.InferenceService`, or a
:class:`~repro.serving.shard.ShardedServer` over TCP) with one request
loop, :func:`_drive`, under one of two schedules:

* **closed** (default): ``concurrency`` workers each hold one request in
  flight.  Self-throttling, so the headline rps excludes the warmup
  bucket (:func:`throughput_timeline`).
* **open** (``mode="open"``): seeded Poisson arrivals per swept rate,
  each latency measured from the *intended* arrival, which keeps the
  percentiles free of coordinated omission.

Overload rejections are retried after one batch window and counted per
tenant.  Halfway through the first run the target's event fires: a
hot-swap in process (``swap_under_load``) or a shard SIGKILL
(``kill_shard_under_load``).  **Report**: one function, :func:`_payload`,
adds the blocks each mode measured; request accounting comes from the
loop's counters and the target's drop audit, and the payload is
schema-validated (:mod:`repro.serving.schema`) before it is written.
"""

from __future__ import annotations

import asyncio
import json
import platform
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Awaitable, Callable

import numpy as np

from repro import telemetry
from repro.datasets.base import Dataset
from repro.datasets.synthetic import SyntheticSpec, make_synthetic_classification
from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.persistence import load_classifier, save_classifier
from repro.serving.registry import ModelRegistry
from repro.serving.schema import MODES, SERVING_SCHEMA_VERSION, validate_serving_payload
from repro.serving.service import (
    InferenceService,
    MicrobatchConfig,
    ServiceOverloadedError,
)
from repro.serving.shard import PipelinedClient, ShardedServer, shard_for
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive_int

#: Tenant-mix scenarios for fleet runs.  ``uniform`` spreads requests
#: evenly; ``heavy_tailed`` draws tenants from a zipf-like 1/rank^1.5
#: distribution (one hot tenant, a long cold tail); ``bursty`` assigns
#: geometric-length runs of consecutive requests to one tenant at a time
#: (the back-to-back burst pattern that stresses per-tenant fairness);
#: ``mixed`` concatenates one third of each.
SCENARIOS = ("uniform", "heavy_tailed", "bursty", "mixed")


@dataclass(frozen=True)
class ServingWorkload:
    """Data geometry + LookHD hyperparameters of one seeded synthetic workload."""

    name: str
    dim: int
    levels: int
    chunk_size: int
    n_features: int
    n_classes: int
    n_train: int
    n_test: int
    group_size: int | None = 12
    decorrelate: bool = True
    seed: int = 7

    def make_dataset(self) -> Dataset:
        spec = SyntheticSpec(
            n_features=self.n_features,
            n_classes=self.n_classes,
            n_train=self.n_train,
            n_test=self.n_test,
            seed=self.seed,
        )
        return make_synthetic_classification(spec, name=self.name)


#: Serving workload profiles.  ``full`` is the acceptance-gate geometry —
#: the paper's efficiency configuration (D=2000, q=4, r=5) — and ``smoke``
#: a CI-sized run exercising the same code paths in under a second.
DEFAULT_SERVING_WORKLOADS = {
    "full": ServingWorkload(
        name="serving_d2000_q4_k13",
        dim=2000,
        levels=4,
        chunk_size=5,
        n_features=100,
        n_classes=13,
        n_train=1500,
        n_test=512,
    ),
    "smoke": ServingWorkload(
        name="serving_smoke_d256_q4_k5",
        dim=256,
        levels=4,
        chunk_size=4,
        n_features=20,
        n_classes=5,
        n_train=200,
        n_test=120,
    ),
}


@dataclass(frozen=True)
class LoadgenConfig:
    """Traffic shape plus the service knobs under test.

    ``n_tenants > 1`` serves that many independently-fitted models side
    by side, traffic mixed per ``scenario``.  ``swap_under_load``
    hot-swaps the first tenant to a bit-identical copy of its model
    halfway through the run (in-process fleets only), so the
    availability and bit-identity gates cover the swap itself.  Every
    knob is validated here, so a bad combination fails before any model
    is trained.
    """

    n_requests: int = 2_000
    concurrency: int = 64
    max_batch: int = 64
    max_wait_ms: float = 2.0
    max_queue_depth: int = 1_024
    dispatch: str = "inline"
    n_tenants: int = 1
    scenario: str = "uniform"
    tenant_quota: int | None = None
    cache_budget_bytes: int | None = None
    swap_under_load: bool = False
    #: ``closed`` (workers self-throttle) or ``open`` (seeded arrival
    #: schedule; coordinated-omission-safe latencies).
    mode: str = "closed"
    #: Offered rates (requests/second) for the open-loop sweep; each rate
    #: replays the same ``n_requests`` request set on a fresh schedule.
    rates: tuple = field(default_factory=tuple)
    #: ``> 1`` drives a :class:`~repro.serving.shard.ShardedServer` over
    #: TCP instead of the in-process service (open-loop mode only).
    n_shards: int = 1
    #: SIGKILL one shard halfway through the first rate run; recovery
    #: (respawn + replay, availability 1.0) becomes a gated check.
    kill_shard_under_load: bool = False

    def __post_init__(self):
        check_positive_int(self.n_requests, "n_requests")
        check_positive_int(self.concurrency, "concurrency")
        check_positive_int(self.n_tenants, "n_tenants")
        check_positive_int(self.n_shards, "n_shards")
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}"
            )
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.mode == "open":
            if not self.rates:
                raise ValueError("open-loop mode needs at least one rate")
            for rate in self.rates:
                if not rate > 0:
                    raise ValueError(f"rates must be positive, got {rate}")
        else:
            if self.rates:
                raise ValueError("rates are an open-loop knob; set mode='open'")
            if self.n_shards > 1:
                raise ValueError(
                    "sharded runs are open-loop only (closed-loop workers would "
                    "measure the generator's own backpressure); set mode='open'"
                )
        if self.kill_shard_under_load and self.n_shards < 2:
            raise ValueError("kill_shard_under_load needs n_shards >= 2")
        if self.swap_under_load and (self.n_tenants < 2 or self.n_shards > 1):
            raise ValueError(
                "swap_under_load hot-swaps one tenant of an in-process fleet; "
                "it needs n_tenants >= 2 and n_shards == 1"
            )
        self.microbatch()  # validates the batching/admission knobs

    def microbatch(self) -> MicrobatchConfig:
        return MicrobatchConfig(
            max_batch=self.max_batch,
            max_wait_ms=self.max_wait_ms,
            max_queue_depth=self.max_queue_depth,
            tenant_quota=self.tenant_quota,
            dispatch=self.dispatch,
        )


def throughput_timeline(
    completion_offsets,
    elapsed: float,
    n_buckets: int = 10,
    warmup_buckets: int = 1,
) -> dict:
    """Bucket completions over time; headline rps excludes the warmup.

    A closed-loop run front-loads its slowest requests: the first batch
    window pays table warm-up, cold caches, and task spin-up, so the
    naive ``n / elapsed`` figure under-reports the steady state the
    service actually sustains (and over-rewards any change that merely
    shifts work into the ramp).  This splits the run into ``n_buckets``
    equal time buckets and reports ``steady_rps`` over the completions
    that landed *after* the first ``warmup_buckets`` buckets.

    Pure function of the completion-time offsets (seconds from run
    start), so the slow-start regression test needs no live service.
    Degenerate runs (too short to exclude anything) fall back to the
    overall rate rather than inventing a steady state.
    """
    check_positive_int(n_buckets, "n_buckets")
    if warmup_buckets < 0:
        raise ValueError(f"warmup_buckets must be non-negative, got {warmup_buckets}")
    if warmup_buckets >= n_buckets:
        raise ValueError(
            f"warmup_buckets ({warmup_buckets}) must leave at least one steady "
            f"bucket (n_buckets={n_buckets})"
        )
    offsets = np.asarray(completion_offsets, dtype=np.float64)
    if not elapsed > 0:
        raise ValueError(f"elapsed must be positive, got {elapsed}")
    overall_rps = offsets.size / elapsed
    bucket_seconds = elapsed / n_buckets
    counts, _ = np.histogram(offsets, bins=n_buckets, range=(0.0, elapsed))
    cutoff = warmup_buckets * bucket_seconds
    steady_window = elapsed - cutoff
    steady_count = int(np.count_nonzero(offsets >= cutoff))
    if steady_count == 0 or not steady_window > 0:
        # Nothing completed after the warmup window — the honest answer
        # is the overall rate, flagged by warmup_buckets=0.
        warmup_buckets = 0
        steady_rps = overall_rps
    else:
        steady_rps = steady_count / steady_window
    return {
        "bucket_seconds": float(bucket_seconds),
        "buckets_rps": [float(count / bucket_seconds) for count in counts],
        "warmup_buckets": int(warmup_buckets),
        "steady_rps": float(steady_rps),
        "overall_rps": float(overall_rps),
    }


def _fit_fleet(
    workload: ServingWorkload, n_tenants: int
) -> tuple[list[str], dict[str, LookHDClassifier], dict[str, np.ndarray]]:
    """One independently-seeded model + request pool per tenant."""
    tenants = [f"tenant-{index}" for index in range(n_tenants)]
    classifiers: dict[str, LookHDClassifier] = {}
    pools: dict[str, np.ndarray] = {}
    for index, tenant in enumerate(tenants):
        tenant_workload = replace(
            workload, name=f"{workload.name}-{tenant}", seed=workload.seed + index
        )
        data = tenant_workload.make_dataset()
        fields = ("dim", "levels", "chunk_size", "group_size", "decorrelate", "seed")
        clf = LookHDClassifier(
            LookHDConfig(**{key: getattr(tenant_workload, key) for key in fields})
        )
        clf.fit(data.train_features, data.train_labels)
        classifiers[tenant] = clf
        pools[tenant] = np.asarray(data.test_features, dtype=np.float64)
    return tenants, classifiers, pools


def _tenant_schedule(
    n_requests: int, n_tenants: int, scenario: str, seed
) -> np.ndarray:
    """Deterministic per-request tenant assignment for a scenario."""
    rng = derive_rng(seed, f"loadgen-schedule-{scenario}")
    if scenario == "uniform":
        return rng.integers(0, n_tenants, size=n_requests)
    if scenario == "heavy_tailed":
        weights = 1.0 / (1.0 + np.arange(n_tenants)) ** 1.5
        return rng.choice(n_tenants, size=n_requests, p=weights / weights.sum())
    if scenario == "bursty":
        schedule = np.empty(n_requests, dtype=np.int64)
        filled = 0
        while filled < n_requests:
            burst = min(int(rng.geometric(0.1)), n_requests - filled)
            schedule[filled : filled + burst] = rng.integers(0, n_tenants)
            filled += burst
        return schedule
    # "mixed": one third of each shape, concatenated — the bench gate's
    # "mixed load" is literally all three patterns in one run.
    thirds = np.array_split(np.arange(n_requests), 3)
    parts = [
        _tenant_schedule(len(part), n_tenants, kind, seed)
        for part, kind in zip(thirds, ("uniform", "heavy_tailed", "bursty"))
    ]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _request_pool(
    tenants: list[str], pools: dict[str, np.ndarray], tenant_ids: np.ndarray
) -> np.ndarray:
    """Per-request features: each tenant's requests cycle its own test
    pool in request order (deterministic given the schedule)."""
    n_features = pools[tenants[0]].shape[1]
    requests = np.empty((tenant_ids.shape[0], n_features), dtype=np.float64)
    for tenant_id, tenant in enumerate(tenants):
        rows = np.flatnonzero(tenant_ids == tenant_id)
        pool = pools[tenant]
        requests[rows] = pool[np.arange(rows.size) % pool.shape[0]]
    return requests


def _arrival_schedule(n: int, rate: float, seed, label: str) -> np.ndarray:
    """Seeded Poisson arrivals: cumulative exponential gaps at ``rate``/s."""
    rng = derive_rng(seed, f"open-loop-{label}")
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


# -- the request loop ------------------------------------------------------------


@dataclass
class _Run:
    """One pass of the request set through a target."""

    predictions: np.ndarray
    latencies: np.ndarray
    completed_at: np.ndarray  # seconds from run start
    elapsed: float
    max_lag: float  # worst send-side slip behind the arrival schedule
    completed: np.ndarray  # per tenant
    rejected: np.ndarray  # per tenant, overload rejections


async def _drive(send, tenant_ids, n_tenants, schedule, backoff_seconds, on_halfway=None) -> _Run:
    """Send every request once under ``schedule``; the one retry loop.

    ``schedule`` is an int (that many closed-loop workers) or an array
    of open-loop arrival offsets.  Latency runs from the intended
    arrival — when a worker picks the request up, or its scheduled
    offset — so an open-loop stall inflates every request scheduled
    during it, and ``max_lag`` exposes a generator that fell behind.
    Overload rejections are retried after ``backoff_seconds`` with the
    clock running and counted per tenant.  ``on_halfway`` starts once
    half the requests have completed and is awaited before returning.
    """
    n = tenant_ids.shape[0]
    predictions = np.full(n, -1, dtype=np.int64)
    latencies = np.zeros(n, dtype=np.float64)
    completed_at = np.zeros(n, dtype=np.float64)
    completed = np.zeros(n_tenants, dtype=np.int64)
    rejected = np.zeros(n_tenants, dtype=np.int64)
    finished = 0
    max_lag = 0.0
    hook: asyncio.Task | None = None
    start = time.perf_counter()

    async def fire(index: int, due: float) -> None:
        nonlocal finished, max_lag, hook
        max_lag = max(max_lag, time.perf_counter() - start - due)
        tenant_id = tenant_ids[index]
        while True:
            try:
                predictions[index] = await send(index)
                break
            except ServiceOverloadedError:
                rejected[tenant_id] += 1
                await asyncio.sleep(backoff_seconds)
        completed_at[index] = time.perf_counter() - start
        latencies[index] = completed_at[index] - due
        completed[tenant_id] += 1
        finished += 1
        if on_halfway is not None and hook is None and finished >= n // 2:
            hook = asyncio.get_running_loop().create_task(on_halfway())

    if isinstance(schedule, int):
        next_request = 0

        async def worker() -> None:
            nonlocal next_request
            while next_request < n:
                index = next_request
                next_request += 1
                await fire(index, time.perf_counter() - start)

        await asyncio.gather(*(worker() for _ in range(schedule)))
    else:

        async def arrive(index: int) -> None:
            due = float(schedule[index])
            delay = due - (time.perf_counter() - start)
            if delay > 0:
                await asyncio.sleep(delay)
            await fire(index, due)

        await asyncio.gather(*(arrive(index) for index in range(n)))
    elapsed = time.perf_counter() - start
    if hook is not None:
        await hook
    np.maximum(latencies, 0.0, out=latencies)
    max_lag = max(0.0, max_lag)
    return _Run(predictions, latencies, completed_at, elapsed, max_lag, completed, rejected)


# -- the two targets -------------------------------------------------------------


@dataclass
class _Target:
    """What :func:`_drive` sends through; ``close`` stops it and fills the
    report: one ``request_stats()`` per serving process in ``stats``,
    the fleet ``registry`` snapshot, and the mode-specific blocks."""

    send: Callable[[int], Awaitable[int]]
    halfway: Callable[[], Awaitable[None]] | None
    close: Callable[[], Awaitable[None]]
    stats: list = field(default_factory=list)
    registry: dict = field(default_factory=dict)
    service: InferenceService | None = None
    swap: dict = field(default_factory=lambda: {"performed": False})
    acceptor: dict | None = None
    chaos: dict = field(default_factory=lambda: {"performed": False})
    per_shard: dict | None = None


async def _inprocess_target(config, tenants, models, oracle, tenant_ids, requests) -> _Target:
    """A registry-backed :class:`InferenceService` in this event loop.

    The halfway event republishes the first tenant from its saved
    artifact (a fresh, bit-identical model, so the oracle holds) on a
    worker thread while traffic flows: table build off the loop, then
    the atomic flip."""
    registry = ModelRegistry(cache_budget_bytes=config.cache_budget_bytes)
    for tenant in tenants:
        registry.publish(tenant, oracle[tenant])
    service = InferenceService(registry=registry, config=config.microbatch())
    await service.start()

    async def send(index: int) -> int:
        return await service.predict(requests[index], tenant=tenants[tenant_ids[index]])

    async def hot_swap() -> None:
        tenant, path = models[0]
        target.swap.update(tenant=tenant, version_before=registry.record(tenant).version)
        target.swap["queue_depth_at_swap"] = service.queue_depth
        record = await asyncio.get_running_loop().run_in_executor(
            None, lambda: registry.publish(tenant, load_classifier(path))
        )
        target.swap.update(performed=True, version_after=record.version)

    async def close() -> None:
        await service.stop()
        target.stats = [service.request_stats()]
        target.registry = registry.describe()

    target = _Target(send, hot_swap if config.swap_under_load else None, close, service=service)
    return target


async def _sharded_target(config, tenants, models, oracle, tenant_ids, requests) -> _Target:
    """A :class:`ShardedServer` pool behind one pipelined TCP connection.

    The halfway event SIGKILLs the shard hosting the first tenant; the
    acceptor must respawn it and replay its in-flight requests."""
    microbatch = config.microbatch()
    server = ShardedServer(models, n_shards=config.n_shards, config=microbatch, scrub_interval=0.25)
    await server.start()
    client = await PipelinedClient.connect(server.host, server.port)

    async def send(index: int) -> int:
        tenant = tenants[tenant_ids[index]]
        features = requests[index].tolist()
        response = await client.request({"op": "predict", "tenant": tenant, "features": features})
        error = response.get("error")
        if error == "overloaded":
            raise ServiceOverloadedError(response.get("detail", "overloaded"))
        if error is not None:
            raise RuntimeError(f"sharded predict failed: {response}")
        return int(response["prediction"])

    async def kill_shard() -> None:
        victim = shard_for(tenants[0], config.n_shards)
        target.chaos.update(performed=True, shard=victim, pid=server.kill_shard(victim))

    async def close() -> None:
        try:
            health = await server.health()
        finally:
            await client.close()
            await server.stop()
        target.acceptor = server.request_stats()
        target.per_shard = health.get("shards", {})
        blocks = target.per_shard.values()
        target.stats = [block["requests"] for block in blocks if "requests" in block]
        target.registry = next(
            (block["fleet"] for block in blocks if isinstance(block.get("fleet"), dict)), {}
        )

    target = _Target(send, kill_shard if config.kill_shard_under_load else None, close)
    return target


async def _serve(config, tenants, models, oracle, tenant_ids, requests, seed):
    """Open the target, drive each schedule through it, close it."""
    open_target = _sharded_target if config.n_shards > 1 else _inprocess_target
    target = await open_target(config, tenants, models, oracle, tenant_ids, requests)
    schedules = [config.concurrency] if config.mode == "closed" else [
        _arrival_schedule(config.n_requests, float(rate), seed, f"{position}-{rate}")
        for position, rate in enumerate(config.rates)
    ]
    backoff = config.max_wait_ms / 1_000.0
    runs = []
    try:
        # The halfway event fires in the first run only, so later sweep
        # points measure clean steady state.
        for position, schedule in enumerate(schedules):
            halfway = target.halfway if position == 0 else None
            runs.append(
                await _drive(target.send, tenant_ids, len(tenants), schedule, backoff, halfway)
            )
    finally:
        await target.close()
    return runs, target


# -- the payload -----------------------------------------------------------------


_WORKLOAD_FIELDS = ("dim", "levels", "chunk_size", "n_features", "n_classes", "seed")
_CONFIG_FIELDS = ("concurrency", "n_tenants", "scenario", "mode")
_SERVICE_FIELDS = (
    "max_batch", "max_wait_ms", "max_queue_depth", "tenant_quota", "cache_budget_bytes", "n_shards"
)


def _latency_block(latencies: np.ndarray, quantiles: tuple) -> dict:
    values = np.percentile(latencies, [float(q) for q in quantiles])
    block = {f"p{q}".replace(".", ""): float(v) for q, v in zip(quantiles, values)}
    block.update(mean=float(latencies.mean()), max=float(latencies.max()))
    return block


def _payload(workload, config, tenants, tenant_ids, oracle, expected, sequential_elapsed,
             runs, target, snapshot) -> dict:
    """Build the one ``BENCH_serving.json`` payload: common blocks, then by mode."""
    n = config.n_requests
    headline = runs[-1]
    throughput = n / max(headline.elapsed, 1e-12)
    sequential_rps = n / max(sequential_elapsed, 1e-12)
    completed = sum(run.completed for run in runs)
    rejected = sum(run.rejected for run in runs)
    stats = target.stats
    dropped = sum(s["dropped"] for s in stats) + (target.acceptor or {}).get("dropped", 0)
    failed = sum(s["failed"] for s in stats)
    masks = [tenant_ids == tenant_id for tenant_id in range(len(tenants))]
    tenant_match = [
        all(np.array_equal(run.predictions[mask], expected[mask]) for run in runs)
        for mask in masks
    ]
    all_match = all(np.array_equal(run.predictions, expected) for run in runs)
    # The halfway event fires in the first run: its availability is the
    # share of that run's scheduled requests that got an answer.
    availability = float(np.count_nonzero(runs[0].predictions >= 0)) / n

    results: dict = {
        "throughput_rps": throughput,
        "sequential_rps": sequential_rps,
        "speedup_vs_sequential": throughput / max(sequential_rps, 1e-12),
        "elapsed_seconds": sum(run.elapsed for run in runs),
        "sequential_elapsed_seconds": sequential_elapsed,
        "latency_seconds": _latency_block(headline.latencies, (50, 99)),
        "requests": {
            "sent": n * len(runs),
            "completed": int(completed.sum()),
            "rejected": int(rejected.sum()),
            "dropped": int(dropped),
        },
    }
    checks = {"predictions_match_single": all_match, "zero_dropped": dropped == 0 and failed == 0}
    if config.mode == "closed":
        service, batches = target.service, stats[0]["batches"]
        results["batches"] = {
            "count": batches,
            "mean_size": stats[0]["completed"] / max(batches, 1),
            "max_size": service.max_batch_size,
        }
        results["flush_reasons"] = dict(service.flush_reasons)
        results["timeline"] = throughput_timeline(headline.completed_at, headline.elapsed)
    else:
        results["open_loop"] = {
            "rates": [
                {
                    "rate": float(rate),
                    "achieved_rps": n / max(run.elapsed, 1e-12),
                    "requests": n,
                    "max_lag_seconds": float(run.max_lag),
                    "latency_seconds": _latency_block(run.latencies, (50, 90, 99, 99.9)),
                }
                for rate, run in zip(config.rates, runs)
            ]
        }
    if config.n_tenants > 1:
        results["fleet"] = {
            "tenants": {
                tenant: {
                    "sent": int(masks[tenant_id].sum()) * len(runs),
                    "completed": int(completed[tenant_id]),
                    "rejected": int(rejected[tenant_id]),
                    "dropped": sum(s["tenants"].get(tenant, {}).get("dropped", 0) for s in stats),
                    "match_single": tenant_match[tenant_id],
                }
                for tenant_id, tenant in enumerate(tenants)
            },
            "registry": target.registry,
        }
        swap = target.swap
        results["swap"] = swap
        checks["per_tenant_bit_identity"] = all(tenant_match)
        checks["swap_zero_downtime"] = not config.swap_under_load
        if swap["performed"]:
            swap["availability"] = availability
            checks["swap_zero_downtime"] = bool(
                swap["version_after"] == swap["version_before"] + 1
                and availability == 1.0
                and checks["zero_dropped"]
            )
    if config.n_shards > 1:
        chaos = target.chaos
        acceptor = target.acceptor
        results["sharding"] = {"acceptor": acceptor, "chaos": chaos, "per_shard": target.per_shard}
        checks["shard_outputs_match"] = all_match
        if chaos["performed"]:
            chaos["availability"] = availability
            checks["shard_recovery"] = bool(
                acceptor["respawns"] >= 1 and acceptor["dropped"] == 0 and availability == 1.0
            )

    return {
        "schema_version": SERVING_SCHEMA_VERSION,
        "benchmark": "serving",
        "workload": {
            "name": workload.name
            + (f"-fleet{config.n_tenants}" if config.n_tenants > 1 else "")
            + ("-open" if config.mode == "open" else ""),
            **{key: getattr(workload, key) for key in _WORKLOAD_FIELDS},
            "n_requests": n,
            **{key: getattr(config, key) for key in _CONFIG_FIELDS},
        },
        "service": {
            **{key: getattr(config, key) for key in _SERVICE_FIELDS},
            "fused_active": all(
                clf.config.fused_inference and clf.fused_engine().enabled
                for clf in oracle.values()
            ),
        },
        "results": results,
        "checks": checks,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "telemetry": snapshot,
    }


def run_loadgen(workload: ServingWorkload, config: LoadgenConfig | None = None) -> dict:
    """Fit, run the sequential oracle, drive the target, build the payload.

    Deterministic apart from wall-clock numbers: every workload is
    pinned-seed synthetic and each tenant's request stream cycles its
    test split.  The returned payload is already schema-validated.
    """
    config = config if config is not None else LoadgenConfig()
    tenants, classifiers, pools = _fit_fleet(workload, config.n_tenants)
    tenant_ids = _tenant_schedule(
        config.n_requests, config.n_tenants, config.scenario, workload.seed
    )
    requests = _request_pool(tenants, pools, tenant_ids)

    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
        models = [
            (tenant, str(save_classifier(classifiers[tenant], Path(tmp) / f"{tenant}.npz")))
            for tenant in tenants
        ]
        oracle = {tenant: load_classifier(path) for tenant, path in models}
        # Warm the lazy table predict reads (the fused score table, or the
        # pre-bound encode table on the hypervector path) so both measured
        # paths run steady-state, as a deployed model would.
        for tenant in tenants:
            oracle[tenant].predict(pools[tenant][:1])

        expected = np.empty(config.n_requests, dtype=np.int64)
        started = time.perf_counter()
        for index, tenant_id in enumerate(tenant_ids):
            expected[index] = oracle[tenants[tenant_id]].predict(requests[index])
        sequential_elapsed = time.perf_counter() - started

        # The per-stage serving telemetry (queue wait, batch sizes, flush
        # reasons, latency) is part of the artifact.
        telemetry_registry = telemetry.MetricsRegistry(enabled=True)
        with telemetry.activated(telemetry_registry):
            runs, target = asyncio.run(
                _serve(config, tenants, models, oracle, tenant_ids, requests, workload.seed)
            )

    payload = _payload(
        workload, config, tenants, tenant_ids, oracle, expected, sequential_elapsed,
        runs, target, telemetry_registry.snapshot(),
    )
    return validate_serving_payload(payload)


def fleet_config(profile: str, config: LoadgenConfig | None = None) -> LoadgenConfig:
    """The default fleet shape for a ``fleet-*`` profile.

    3 tenants (the bench gate's floor) under the ``mixed`` scenario, a
    per-tenant quota at half the global bound (so quota backpressure is
    actually exercised), and — on the in-process target — one hot-swap
    under load.  An explicit ``config`` that already asks for tenants is
    passed through untouched.
    """
    if config is not None and config.n_tenants > 1:
        return config
    base = config if config is not None else LoadgenConfig()
    smoke = profile.endswith("smoke")
    return replace(
        base,
        n_requests=base.n_requests if config is not None else (360 if smoke else 3_000),
        n_tenants=3,
        scenario="mixed",
        tenant_quota=max(1, base.max_queue_depth // 2),
        swap_under_load=base.n_shards == 1,
    )


def write_serving_file(
    profile: str = "full",
    out_dir: str | Path = ".",
    config: LoadgenConfig | None = None,
) -> Path:
    """Run a serving profile and write ``BENCH_serving.json``.

    ``fleet-full`` / ``fleet-smoke`` run the multi-tenant bench over the
    corresponding base workload (see :func:`fleet_config`).
    """
    base_profile = profile
    if profile.startswith("fleet-"):
        base_profile = profile[len("fleet-") :]
        config = fleet_config(profile, config)
    try:
        workload = DEFAULT_SERVING_WORKLOADS[base_profile]
    except KeyError:
        raise ValueError(
            f"unknown serving profile {profile!r}; choose from "
            f"{sorted(DEFAULT_SERVING_WORKLOADS) + ['fleet-' + p for p in sorted(DEFAULT_SERVING_WORKLOADS)]}"
        ) from None
    payload = run_loadgen(workload, config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_serving.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
