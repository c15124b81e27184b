"""The four workloads: what each sets up, drives, checks and measures.

Every workload returns a :class:`Outcome` holding the end-to-end metrics,
the per-layer metrics (traced runs only), the request accounting and the
correctness verdict.  The program is reached only through its public
entry points (``LookHDClassifier``, ``OnlineLookHD``, ``save_classifier``
/ ``load_classifier``, ``ModelRegistry``, ``InferenceService``,
``ServingServer``, ``repro serve``, ``repro.kernels`` and the
``repro.datasets`` generators); inputs come from the workload seed.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import re
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from common import (
    LATENCY_LIMIT_MS,
    ROOT,
    BenchError,
    child_env,
    child_pids,
    cpu_seconds,
    median,
    peak_rss_mb,
    quantile,
    reset_peak_rss,
)
from openloop import (
    OK,
    InprocTarget,
    Phase,
    WireClient,
    WireTarget,
    saturate,
    saturation_phase,
    schedule,
    scheduled_phase,
)
from tracing import Tracer

from repro.datasets import SyntheticSpec, drifting_stream, make_synthetic_classification
from repro.lookhd import (
    LookHDClassifier,
    LookHDConfig,
    LookupEncoder,
    OnlineLookHD,
    load_classifier,
    save_classifier,
)
from repro.serving import InferenceService, ModelRegistry, ServiceOverloadedError
from repro.streaming import StreamingQuantizer

HERE = Path(__file__).resolve().parent

#: Fleet tenants, hottest first.  Their CRC32 shard affinity splits them
#: across two shards as {tenant-0} / {tenant-4, tenant-5, tenant-6}.
FLEET_TENANTS = ("tenant-0", "tenant-4", "tenant-5", "tenant-6")
#: Zipf-like tenant mix: weight of rank r is 1 / r**1.5.
FLEET_WEIGHTS = tuple(1.0 / (rank**1.5) for rank in range(1, len(FLEET_TENANTS) + 1))
#: Rows in the update batches (``partial_fit``) and the update cadence.
UPDATE_ROWS = 64
UPDATE_PERIOD_S = 0.2
#: Offline batch height.
OFFLINE_BATCH = 512
#: Pipelined connections of the wire workloads' generator.
CONNECTIONS = 2


@dataclass(frozen=True)
class Geometry:
    """Model and data shape; ``paper`` is the efficiency configuration."""

    dim: int
    levels: int
    chunk_size: int
    n_features: int
    n_classes: int
    n_train: int
    pool: int
    setup_repeats: int
    #: Isolated 64-row updates per interlude.
    interlude_updates: int


GEOMETRIES = {
    "paper": Geometry(
        dim=2000, levels=4, chunk_size=5, n_features=100, n_classes=13,
        n_train=20000, pool=4096, setup_repeats=3, interlude_updates=20,
    ),
    "tiny": Geometry(
        dim=256, levels=4, chunk_size=5, n_features=20, n_classes=4,
        n_train=1000, pool=512, setup_repeats=2, interlude_updates=4,
    ),
}


@dataclass(frozen=True)
class Rates:
    #: Open-loop rate of the warm-up and the fixed phase (requests per second).
    fixed: float
    #: Requests held in flight by a saturation phase: deep enough to keep
    #: the program busy, shallow enough that a saturated program answers
    #: them well within the latency limit (by Little's law, window over
    #: capacity; measured at the paper geometry on a 2-vCPU host).
    window: int
    #: p99 latency limit (ms), and the generator's lag bound.
    limit_ms: float = LATENCY_LIMIT_MS


RATES = {
    # 4 full batches queued; about 6 ms at the ~40k rps it completes.
    "predict_inproc": Rates(4000.0, window=256),
    # The wire needs ~80 in flight to stay busy (below that the round
    # trip, not the server, sets the rate); about 13 ms at ~7k rps.
    "fleet_wire": Rates(1000.0, window=96),
    "fleet_sharded": Rates(1000.0, window=96),
    # learn_live's tail is set by the 64-row update that blocks the loop
    # for about 20 ms every 200 ms, whatever the read rate; its limit (the
    # generator-lag gate) allows 50 ms so that the gate is not the length
    # of one update.  About 28 ms at ~9k rps.
    "learn_live": Rates(1000.0, window=256, limit_ms=2 * LATENCY_LIMIT_MS),
}

#: Share of ``--seconds`` given to the fixed-rate phase and to each
#: saturation phase.  learn_live's fixed phase runs 4/3 of ``--seconds``,
#: so that its 200 ms update cadence yields 100 updates at 15 s.
FIXED_SHARE = 0.6
LEARN_FIXED_SHARE = 4 / 3
BURST_SHARE = 0.06
#: Saturation phases behind ``max_rate_rps``.
BURSTS = 4
#: Upper bound on completions per second, sizing a saturation phase's records.
MAX_RPS = 60000.0
#: Warm-up at the fixed rate before anything is measured: long enough for
#: a fresh server's scrubber to finish its first pass over every tenant
#: (about 85 ms per tenant, one tenant per idle 0.25 s tick).
WARMUP_S = 1.5


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    geometry: Geometry
    workdir: Path
    tracer: Tracer | None = None
    #: Test seam: transforms the oracle's predictions before the gate.
    oracle_hook: object = None


@dataclass
class Outcome:
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


# -- shared building blocks ----------------------------------------------------------


def _seed(ctx: Context, tag: str) -> int:
    return int(np.random.SeedSequence([ctx.seed, *tag.encode()]).generate_state(1)[0])


def _dataset(ctx: Context, tag: str, n_test: int):
    g = ctx.geometry
    spec = SyntheticSpec(
        n_features=g.n_features, n_classes=g.n_classes, n_train=g.n_train,
        n_test=n_test, seed=_seed(ctx, tag),
    )
    return make_synthetic_classification(spec, name=tag)


def _config(ctx: Context, tag: str) -> LookHDConfig:
    g = ctx.geometry
    return LookHDConfig(
        dim=g.dim, levels=g.levels, chunk_size=g.chunk_size, seed=_seed(ctx, tag) % 2**31
    )


def _fit(ctx: Context, tag: str, data, fits: list) -> LookHDClassifier:
    clf = LookHDClassifier(_config(ctx, tag))
    started = time.perf_counter()
    clf.fit(data.train_features, data.train_labels)
    fits.append((data.train_features.shape[0], time.perf_counter() - started))
    return clf


def _phase_plan(ctx: Context) -> tuple[float, float]:
    """Durations of the fixed phase and of one saturation phase."""
    share = LEARN_FIXED_SHARE if ctx.workload == "learn_live" else FIXED_SHARE
    fixed = ctx.seconds * share
    return fixed, ctx.seconds * BURST_SHARE


class Traffic:
    """Builds a workload's phases from its seed and drives them at one target.

    Request ``i`` of a phase goes to tenant ``tenant_index[i]`` (drawn
    from the zipf-like mix over ``n_tenants``) and carries row ``row[i]``
    of that tenant's pool of ``pool_size`` rows.  ``events(name,
    duration)`` gives the updates that ride beside a phase's reads, and
    ``after()`` is awaited once the phase has drained.  With
    ``track_rss`` the process's peak resident set is reset before each
    phase and read after it, so that :attr:`rss_mb` holds the peaks of
    the serving phases only, not those of set-up or the interludes.
    """

    def __init__(self, ctx: Context, target, n_tenants: int, pool_size: int,
                 events=None, after=None, track_rss=False):
        self.ctx = ctx
        self.target = target
        self.n_tenants = n_tenants
        self.pool_size = pool_size
        self.events = events
        self.after = after
        self.track_rss = track_rss
        self.limit_ms = RATES[ctx.workload].limit_ms
        self.phases: list[Phase] = []
        self.rss_mb: list[float] = []

    async def open(self, name: str, rate: float, duration: float) -> Phase:
        """An open-loop phase on a seeded Poisson schedule."""
        rng = np.random.default_rng(_seed(self.ctx, f"schedule-{name}"))
        return await self._run(schedule, scheduled_phase(name, rng, rate, duration))

    async def burst(self, name: str, window: int, duration: float) -> Phase:
        """A saturation phase holding ``window`` requests in flight."""
        return await self._run(saturate, saturation_phase(name, window, duration, MAX_RPS))

    async def _run(self, load, phase: Phase) -> Phase:
        rng = np.random.default_rng(_seed(self.ctx, f"mix-{phase.name}"))
        weights = np.asarray(FLEET_WEIGHTS[: self.n_tenants])
        phase.tenant_index = rng.choice(self.n_tenants, size=phase.n, p=weights / weights.sum())
        phase.row = rng.integers(0, self.pool_size, size=phase.n)
        phase.limit_ms = self.limit_ms
        events = self.events(phase.name, phase.duration) if self.events else ()
        if self.track_rss:
            reset_peak_rss()
        await load(phase, self.target, events)
        if self.after is not None:
            await self.after()
        if self.track_rss:
            self.rss_mb.append(peak_rss_mb(os.getpid()))
        self.phases.append(phase)
        return phase


async def _capacity(ctx: Context, traffic: Traffic, interludes: "Interludes") -> dict:
    """``max_rate_rps``: the completion rate the program sustains when saturated.

    :data:`BURSTS` saturation phases hold the workload's window of
    requests in flight; the figure is the median completion rate of the
    phases that answered every request.  Each phase's p99, and whether it
    met the latency limit, are kept in the detail record but do not gate
    the figure: on a busy shared host stalls alone push a one-second
    phase's p99 past the limit, and a gated figure then reads 0.  An
    interlude runs before every other phase, spreading them over time.
    """
    _, burst_s = _phase_plan(ctx)
    window = RATES[ctx.workload].window
    measured = []
    for k in range(BURSTS):
        if k % 2 == 0:
            interludes.run()
        measured.append(await traffic.burst(f"burst-{k}", window, burst_s))
    rates = [phase.completion_rate() for phase in measured if phase.clean()]
    return {
        "max_rate_rps": median(rates) if rates else 0.0,
        "phases": [phase.summary() for phase in measured],
    }


def _offline_pass(predict, pool: np.ndarray, seconds: float) -> tuple[list, np.ndarray]:
    """Batch-512 passes over ``pool`` for ``seconds``; per-batch rows/s and outputs."""
    rates = []
    first = None
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        outputs = []
        for start in range(0, pool.shape[0], OFFLINE_BATCH):
            batch = pool[start : start + OFFLINE_BATCH]
            began = time.perf_counter()
            outputs.append(np.atleast_1d(predict(batch)))
            rates.append(batch.shape[0] / (time.perf_counter() - began))
        outputs = np.concatenate(outputs)
        if first is None:
            first = outputs
        elif not np.array_equal(first, outputs):
            raise BenchError("offline predict is not deterministic across passes")
    return rates, first


def _quantiles(values) -> dict:
    """Distribution summary kept in the detail record."""
    return {f"q{int(q * 100)}": float(np.quantile(values, q)) for q in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)}


class Interludes:
    """Offline measurements taken in slices between the traffic phases.

    Each interlude runs, while no traffic is in flight: a slice of the
    batch-512 offline pass over each target's pool (the pass is also the
    oracle, and must give the same outputs every time), a slice of the
    isolated update probe (64-row ``partial_fit`` calls on a learner of
    its own), and one more ``fit``.  Contention from other tenants of a
    shared host comes in episodes lasting seconds; an interlude after
    set-up, after the warm-up, after the fixed phase, before the third
    saturation phase and at the end spreads these samples over the whole
    run, and the figures are their medians (percentiles
    for the updates), so that one episode cannot set a figure.
    """

    #: Offline-pass seconds per interlude, shared among the targets.
    OFFLINE_S = 0.25

    def __init__(self, ctx: Context, targets, encoder=None, train=None, refit=None):
        self.ctx = ctx
        self.targets = targets
        self.train = train
        self.refit = refit
        self.learner = (
            OnlineLookHD(encoder, ctx.geometry.n_classes, decay=0.98)
            if encoder is not None
            else None
        )
        self.rates: list[float] = []
        self.outputs: list = [None] * len(targets)
        #: Isolated update latencies (ms), one list per interlude.
        self.update_chunks: list[list[float]] = []
        self._next_update = 0

    def run(self) -> None:
        seconds = self.OFFLINE_S / len(self.targets)
        for k, (predict, pool) in enumerate(self.targets):
            rates, outputs = _offline_pass(predict, pool, seconds)
            if self.outputs[k] is None:
                self.outputs[k] = outputs
            elif not np.array_equal(self.outputs[k], outputs):
                raise BenchError("offline predict changed its answers between interludes")
            self.rates.extend(rates)
        if self.train is not None:
            self.update_chunks.append(self._probe_updates(self.ctx.geometry.interlude_updates))
        if self.refit is not None:
            self.refit()

    @property
    def updates(self) -> list[float]:
        return [latency for chunk in self.update_chunks for latency in chunk]

    def _probe_updates(self, count: int) -> list[float]:
        """Latency (ms) of 64-row ``partial_fit`` calls with no traffic."""
        features, labels = self.train
        latencies = []
        for _ in range(count):
            k = self._next_update
            self._next_update += 1
            start = (k * UPDATE_ROWS) % max(1, features.shape[0] - UPDATE_ROWS)
            rows = slice(start, start + UPDATE_ROWS)
            began = time.perf_counter()
            self.learner.partial_fit(features[rows], labels[rows])
            latencies.append((time.perf_counter() - began) * 1e3)
        return latencies


def _check_served(ctx: Context, outcome: Outcome, phases, expected_of) -> None:
    """Gate: every served prediction equals the oracle's; accounting closes."""
    mismatches = 0
    for phase in phases:
        counts = phase.counts()
        outcome.attempted += counts["sent"]
        outcome.failed += counts["rejected"] + counts["failed"] + counts["unanswered"]
        if counts["unanswered"]:
            outcome.problems.append(
                f"{phase.name}: {counts['unanswered']} requests never answered"
            )
        if counts["sent"] != counts["succeeded"] + counts["rejected"] + counts["failed"]:
            outcome.problems.append(f"{phase.name}: sent != succeeded + failed")
        served = phase.status == OK
        expected = expected_of(phase)
        if ctx.oracle_hook is not None:
            expected = ctx.oracle_hook(expected)
        mismatches += int(np.sum(phase.prediction[served] != expected[served]))
    if mismatches:
        outcome.problems.append(f"{mismatches} served predictions differ from the oracle")
    outcome.detail["oracle_mismatches"] = mismatches


def _per_tenant_counts(phases, tenants) -> dict:
    """Client-side accounting per phase and tenant."""
    table = {}
    for phase in phases:
        per = {}
        for index, tenant in enumerate(tenants):
            mask = phase.tenant_index == index
            status = phase.status[mask]
            per[tenant] = {
                "sent": int(mask.sum()),
                "succeeded": int(np.sum(status == OK)),
                "failed": int(np.sum(status != OK)),
            }
        table[phase.name] = per
    return table


def _latency_metrics(outcome: Outcome, fixed: Phase) -> dict:
    """Fixed-phase p50 over every served request; a generator that fell
    behind invalidates it.

    The phase's p99 is kept in the detail record (``fixed.p99_ms``), not
    reported as a metric: on a shared 2-vCPU host it is set by 15-60 ms
    loop stalls whose count varies from run to run, and its spread over
    ten runs was several times any allowed bound.
    """
    if not fixed.lag_ok():
        outcome.problems.append(
            f"generator lag p99 {fixed.windowed(fixed.lag_ms(), 0.99):.1f} ms exceeds "
            f"{fixed.limit_ms} ms at the fixed rate: the run is invalid"
        )
    return {"p50_ms": float(np.quantile(fixed.latencies_ms(), 0.5))}


# -- predict_inproc -----------------------------------------------------------------


async def predict_inproc(ctx: Context) -> Outcome:
    g = ctx.geometry
    outcome = Outcome()
    fits: list = []
    setups = []
    service = clf = data = None
    for _ in range(g.setup_repeats):
        if service is not None:
            await service.stop()
            service = clf = data = None
            gc.collect()
        began = time.perf_counter()
        data = _dataset(ctx, "inproc", g.pool)
        clf = _fit(ctx, "inproc", data, fits)
        clf.warm_tables()
        service = InferenceService(clf)
        await service.start()
        await service.predict(data.test_features[0])
        setups.append(time.perf_counter() - began)
    pool = data.test_features
    fixed_s, _ = _phase_plan(ctx)
    interludes = Interludes(
        ctx, [(clf.predict, pool)], clf.encoder, (data.train_features, data.train_labels),
        refit=lambda: _fit(ctx, "inproc", data, fits),
    )
    interludes.run()
    traffic = Traffic(
        ctx, InprocTarget(service, [pool], [None], overloaded=(ServiceOverloadedError,)),
        n_tenants=1, pool_size=g.pool, track_rss=True,
    )
    traffic_start = time.perf_counter()
    await traffic.open("warmup", RATES[ctx.workload].fixed, WARMUP_S)
    interludes.run()
    fixed = await traffic.open("fixed", RATES[ctx.workload].fixed, fixed_s)
    capacity = await _capacity(ctx, traffic, interludes)
    stats = service.request_stats()
    await service.stop()
    interludes.run()

    oracle = interludes.outputs[0]
    _check_served(ctx, outcome, traffic.phases, lambda phase: oracle[phase.row])
    _check_reference(outcome, clf, pool)
    sent = sum(phase.n for phase in traffic.phases) + 1  # + the setup's first request
    _reconcile_service(outcome, stats, sent, label="service")
    batch_rates, updates = interludes.rates, interludes.updates
    outcome.e2e = {
        "setup_s": median(setups),
        **_latency_metrics(outcome, fixed),
        "max_rate_rps": capacity["max_rate_rps"],
        "batch_rows_per_s": max(batch_rates),
        "train_rows_per_s": median([n / s for n, s in fits]),
        "update_p50_ms": median(interludes.updates),
        "update_p90_ms": quantile(interludes.updates, 0.9),
        "peak_rss_mb": max(traffic.rss_mb),
    }
    outcome.detail.update(
        setups_s=setups, fixed=fixed.summary(), capacity=capacity, service=_slim_stats(stats),
        rss_mb=traffic.rss_mb, offline_rates=_quantiles(batch_rates),
        fit_rates=[n / s for n, s in fits], update_ms=_quantiles(updates),
        update_chunks_ms=[_quantiles(chunk) for chunk in interludes.update_chunks],
    )
    if ctx.tracer is not None:
        spans = ctx.tracer.spans
        outcome.layers = layers.collect(
            ctx,
            spans=spans,
            fixed_window=(fixed.start, fixed.send_end),
            traffic_from=traffic_start,
            fixed=fixed,
            tenant_of={id(clf): InferenceService.DEFAULT_TENANT},
            probe_classifier=clf,
            probe_learner=interludes.learner,
            pool=pool,
            max_batch=service.config.max_batch,
            service_stats=stats,
        )
    return outcome


def _check_reference(outcome: Outcome, clf, pool: np.ndarray, rows: int = 256) -> None:
    """The fused path must agree with the unfused hypervector-domain path."""
    sample = pool[:rows]
    fused = np.concatenate([clf.predict(sample[i : i + 32]) for i in range(0, len(sample), 32)])
    reference = np.concatenate(
        [clf.predict_reference(sample[i : i + 32]) for i in range(0, len(sample), 32)]
    )
    if not np.array_equal(fused, reference):
        outcome.problems.append("fused predict differs from the reference path")


def _reconcile_service(outcome: Outcome, stats: dict, sent: int, label: str) -> None:
    """The service's own books must account for every request the client sent."""
    admitted_or_rejected = stats["admitted"] + stats["rejected"]
    if admitted_or_rejected != sent:
        outcome.problems.append(
            f"{label}: admitted+rejected={admitted_or_rejected} but client sent {sent}"
        )
    if stats["dropped"] != 0:
        outcome.problems.append(f"{label}: {stats['dropped']} requests dropped")


def _slim_stats(stats: dict) -> dict:
    return {key: value for key, value in stats.items() if key != "kernel_backends"}


# -- fleet_wire / fleet_sharded -------------------------------------------------------


class ServerProcess:
    """A serving subprocess: spawn, wait for its port, stop, reap."""

    def __init__(self, argv: list[str], ready: re.Pattern):
        self.argv = argv
        self.ready = ready
        self.process: asyncio.subprocess.Process | None = None
        self.port = 0
        self.output: list[str] = []
        self._pump: asyncio.Task | None = None

    async def start(self, timeout: float = 120.0) -> "ServerProcess":
        self.process = await asyncio.create_subprocess_exec(
            *self.argv,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=child_env(),
            cwd=str(ROOT),
        )
        deadline = time.perf_counter() + timeout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise BenchError(f"server did not start: {self.output[-5:]}")
            line = await asyncio.wait_for(self.process.stdout.readline(), remaining)
            if not line:
                raise BenchError(f"server exited during start: {self.output[-5:]}")
            text = line.decode(errors="replace").rstrip()
            self.output.append(text)
            match = self.ready.search(text)
            if match:
                self.port = int(match.group(1))
                self._pump = asyncio.get_running_loop().create_task(self._drain_output())
                return self

    async def _drain_output(self) -> None:
        while True:
            line = await self.process.stdout.readline()
            if not line:
                return
            self.output.append(line.decode(errors="replace").rstrip())

    def pids(self) -> list[int]:
        """The server process and its children (the shards, when sharded)."""
        return [self.process.pid, *child_pids(self.process.pid)]

    async def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain), escalating to SIGKILL; reaps children."""
        if self.process is None:
            return 0
        children = child_pids(self.process.pid) if self.process.returncode is None else []
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = await asyncio.wait_for(self.process.wait(), timeout)
        except asyncio.TimeoutError:
            self.process.kill()
            code = await self.process.wait()
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self._pump is not None:
            await asyncio.wait_for(self._pump, 10.0)
        return code


async def _spawn_fleet(ctx: Context, artifacts: dict, sharded: bool, report: Path):
    models = [f"{tenant}={path}" for tenant, path in artifacts.items()]
    if sharded:
        argv = [
            sys.executable, "-m", "repro", "serve", "--models", *models,
            "--shards", "2", "--port", "0",
        ]
        ready = re.compile(r"serving on [^:]+:(\d+) across")
    else:
        argv = [
            sys.executable, str(HERE / "fleet_server.py"), "--models", *models,
            "--report", str(report), *(["--trace"] if ctx.trace else []),
        ]
        ready = re.compile(r"^ready (\d+)")
    return await ServerProcess(argv, ready).start()


def _encode_bodies(pools: dict) -> tuple[dict, float]:
    """Each pool row's request body once, without its id; returns encode seconds."""
    began = time.perf_counter()
    bodies = {
        tenant: [
            json.dumps({"op": "predict", "tenant": tenant, "x": row.tolist()})[1:].encode()
            + b"\n"
            for row in pool
        ]
        for tenant, pool in pools.items()
    }
    return bodies, time.perf_counter() - began


async def fleet(ctx: Context, sharded: bool) -> Outcome:
    g = ctx.geometry
    outcome = Outcome()
    tenants = FLEET_TENANTS
    fixed_s, _ = _phase_plan(ctx)
    report = ctx.workdir / "server-report.json"
    fits: list = []
    setups = []
    server = client = None
    direct = None
    try:
        for _ in range(g.setup_repeats):
            if server is not None:
                await client.close()
                await server.stop()
                server = client = None
            began = time.perf_counter()
            datasets = {t: _dataset(ctx, t, g.pool) for t in tenants}
            artifacts = {}
            for tenant in tenants:
                clf = _fit(ctx, tenant, datasets[tenant], fits)
                artifacts[tenant] = save_classifier(clf, ctx.workdir / f"{tenant}.npz")
                del clf
            server = await _spawn_fleet(ctx, artifacts, sharded, report)
            client = await WireClient.connect_many("127.0.0.1", [server.port] * CONNECTIONS)
            first = await client.call(
                {"op": "predict", "tenant": tenants[0],
                 "x": datasets[tenants[0]].test_features[0].tolist()}
            )
            if "prediction" not in first:
                raise BenchError(f"first request failed: {first}")
            setups.append(time.perf_counter() - began)

        pools = {t: datasets[t].test_features for t in tenants}
        oracles = {t: load_classifier(artifacts[t]) for t in tenants}
        refits = itertools.cycle(tenants)

        def refit() -> None:
            tenant = next(refits)
            _fit(ctx, tenant, datasets[tenant], fits)

        interludes = Interludes(
            ctx,
            [(oracles[t].predict, pools[t]) for t in tenants],
            oracles[tenants[0]].encoder,
            (datasets[tenants[0]].train_features, datasets[tenants[0]].train_labels),
            refit=refit,
        )
        interludes.run()
        bodies, encode_s = _encode_bodies(pools)
        traffic = Traffic(
            ctx, WireTarget(client, [bodies[t] for t in tenants]), len(tenants), g.pool
        )
        pids = server.pids()
        traffic_start = time.perf_counter()
        await traffic.open("warmup", RATES[ctx.workload].fixed, WARMUP_S)
        interludes.run()
        cpu_before = {pid: cpu_seconds(pid) for pid in pids}
        fixed = await traffic.open("fixed", RATES[ctx.workload].fixed, fixed_s)
        cpu_fixed = {pid: cpu_seconds(pid) - cpu_before[pid] for pid in pids}
        capacity = await _capacity(ctx, traffic, interludes)
        health = await client.call({"op": "health"})
        health_calls = 1
        if sharded and ctx.trace:
            direct = await _direct_phase(ctx, health, bodies, fixed_s / 2)
            health = await client.call({"op": "health"})
            health_calls += 1
        rss = {pid: peak_rss_mb(pid) for pid in pids}
    finally:
        if client is not None:
            await client.close()
        code = await server.stop() if server is not None else 0
    if code != 0:
        outcome.problems.append(f"server exited with code {code}: {server.output[-3:]}")
    interludes.run()
    expected_rows = dict(zip(tenants, interludes.outputs))

    def expected(phase):
        out = np.empty(phase.n, dtype=np.int64)
        for index, tenant in enumerate(tenants):
            mask = phase.tenant_index == index
            out[mask] = expected_rows[tenant][phase.row[mask]]
        return out

    _check_served(ctx, outcome, traffic.phases + ([direct] if direct else []), expected)
    sent = sum(phase.n for phase in traffic.phases) + 1  # + the setup's first request
    per_tenant = _tenant_sent(traffic.phases, tenants)
    per_tenant[tenants[0]] += 1
    server_report = None
    if sharded:
        _reconcile_sharded(outcome, health, sent, health_calls, direct, per_tenant)
    else:
        server_report = json.loads(report.read_text())
        _reconcile_service(outcome, health["requests"], sent, label="server health")
        _reconcile_service(outcome, server_report["requests"], sent, label="server after drain")
        _reconcile_tenants(outcome, [health["requests"]], per_tenant)
    outcome.detail["per_tenant"] = _per_tenant_counts(traffic.phases, tenants)
    batch_rates, updates = interludes.rates, interludes.updates
    outcome.e2e = {
        "setup_s": median(setups),
        **_latency_metrics(outcome, fixed),
        "max_rate_rps": capacity["max_rate_rps"],
        "batch_rows_per_s": max(batch_rates),
        "train_rows_per_s": median([n / s for n, s in fits]),
        "update_p50_ms": median(interludes.updates),
        "update_p90_ms": quantile(interludes.updates, 0.9),
        "peak_rss_mb": sum(rss.values()),
    }
    outcome.detail.update(
        setups_s=setups, fixed=fixed.summary(), capacity=capacity,
        serving_processes=len(pids), rss_mb=list(rss.values()),
        offline_rates=_quantiles(batch_rates), fit_rates=[n / s for n, s in fits],
        update_ms=_quantiles(updates),
    )
    if ctx.tracer is not None:
        encoded = sum(len(b) for b in bodies.values())
        codec_us = (encode_s / encoded + client.decode_seconds / max(1, client.decoded)) * 1e6
        report_spans = [tuple(span) for span in (server_report or {}).get("spans", [])]
        outcome.layers = layers.collect(
            ctx,
            spans=report_spans,
            fixed_window=(fixed.start, fixed.send_end),
            traffic_from=traffic_start,
            fixed=fixed,
            tenant_of=(server_report or {}).get("tenant_of", {}),
            probe_classifier=oracles[tenants[0]],
            probe_learner=interludes.learner,
            pool=pools[tenants[0]],
            max_batch=(server_report or {}).get("max_batch", 64),
            service_stats=health["requests"] if not sharded else None,
            registry=(server_report or {}).get("registry"),
            wire=True,
            sharded=sharded,
            health=health,
            cpu_fixed=cpu_fixed,
            server_pid=pids[0],
            direct=direct,
            codec_us=codec_us,
        )
    return outcome


async def _direct_phase(ctx: Context, health: dict, bodies: dict, duration: float) -> Phase:
    """The fixed-rate mix sent straight to each tenant's owning shard.

    Uses only what the acceptor exposes: the ``health`` op reports each
    shard's port, and a tenant's shard is its CRC32 modulo the shard
    count.  Against the same traffic through the acceptor this prices
    the acceptor → shard hop.
    """
    import zlib

    shards = health["shards"]
    direct = await WireClient.connect_many(
        "127.0.0.1", [shards[str(i)]["port"] for i in range(len(shards))]
    )
    try:
        route = [zlib.crc32(t.encode()) % len(shards) for t in FLEET_TENANTS]
        target = WireTarget(direct, [bodies[t] for t in FLEET_TENANTS], route)
        traffic = Traffic(ctx, target, len(FLEET_TENANTS), ctx.geometry.pool)
        return await traffic.open("direct", RATES[ctx.workload].fixed, duration)
    finally:
        await direct.close()


def _tenant_sent(phases, tenants) -> dict:
    sent = {tenant: 0 for tenant in tenants}
    for phase in phases:
        for index, tenant in enumerate(tenants):
            sent[tenant] += int(np.sum(phase.tenant_index == index))
    return sent


def _reconcile_tenants(outcome: Outcome, books: list, per_tenant: dict) -> None:
    """Per-tenant admitted + rejected, summed over ``books``, equals sent."""
    for tenant, sent in per_tenant.items():
        seen = sum(
            b.get("tenants", {}).get(tenant, {}).get("admitted", 0)
            + b.get("tenants", {}).get(tenant, {}).get("rejected", 0)
            for b in books
        )
        if seen != sent:
            outcome.problems.append(f"tenant {tenant}: server saw {seen}, client sent {sent}")


def _reconcile_sharded(outcome, health, sent, health_calls, direct, per_tenant) -> None:
    """Acceptor and shard books against the client's counts.

    Each ``health`` call forwards one health request to every shard, and
    the acceptor counts those forwards too.
    """
    books = health["requests"]
    n_shards = len(health["shards"])
    expected_forwarded = sent + n_shards * health_calls
    if books["forwarded"] != expected_forwarded:
        outcome.problems.append(
            f"acceptor forwarded {books['forwarded']}, expected {expected_forwarded}"
        )
    if books["dropped"] != 0 or books["failed"] != 0:
        outcome.problems.append(f"acceptor dropped/failed requests: {books}")
    shard_books = [block["requests"] for block in health["shards"].values()]
    direct_sent = direct.n if direct is not None else 0
    admitted = sum(b["admitted"] + b["rejected"] for b in shard_books)
    if admitted != sent + direct_sent:
        outcome.problems.append(
            f"shards admitted+rejected {admitted}, client sent {sent + direct_sent}"
        )
    if any(b["dropped"] for b in shard_books):
        outcome.problems.append("a shard dropped requests")
    if direct is None:
        _reconcile_tenants(outcome, shard_books, per_tenant)


# -- learn_live ---------------------------------------------------------------------

#: Drift batches that warm the streaming quantizer and pre-train the learner.
WARM_BATCHES = 16
LEARN_TENANT = "stream"


async def learn_live(ctx: Context) -> Outcome:
    g = ctx.geometry
    outcome = Outcome()
    fixed_s, burst_s = _phase_plan(ctx)
    traffic_s = WARMUP_S + fixed_s + burst_s * (BURSTS + 0.5)
    n_updates = int(traffic_s / UPDATE_PERIOD_S) + BURSTS + 4
    fits: list = []
    setups = []
    service = None
    for _ in range(g.setup_repeats):
        if service is not None:
            await service.stop()
            service = clf = live = replica = registry = None
            gc.collect()
        began = time.perf_counter()
        data = _dataset(ctx, "learn", n_test=1)
        clf = _fit(ctx, "learn", data, fits)
        drift = SyntheticSpec(
            n_features=g.n_features, n_classes=g.n_classes, n_train=1, n_test=1,
            seed=_seed(ctx, "drift"),
        )
        stream = drifting_stream(
            drift, n_batches=WARM_BATCHES + n_updates, batch_size=UPDATE_ROWS,
            drift_magnitude=1.0,
        )
        quantizer = StreamingQuantizer(g.levels)
        for batch in stream[:WARM_BATCHES]:
            quantizer.partial_fit(batch.features)
        quantizer.freeze()
        encoder = LookupEncoder(
            quantizer, clf.encoder.lookup_table, clf.encoder.layout,
            seed=_seed(ctx, "positions"),
        )
        live = OnlineLookHD(encoder, g.n_classes, decay=0.98)
        replica = OnlineLookHD(encoder, g.n_classes, decay=0.98)
        for batch in stream[:WARM_BATCHES]:
            live.partial_fit(batch.features, batch.labels)
            replica.partial_fit(batch.features, batch.labels)
        registry = ModelRegistry()
        registry.publish(LEARN_TENANT, live)
        service = InferenceService(registry=registry)
        await service.start()
        await service.predict(stream[WARM_BATCHES].features[0], tenant=LEARN_TENANT)
        setups.append(time.perf_counter() - began)

    updates = stream[WARM_BATCHES:]
    pool = np.concatenate([batch.features for batch in updates])
    # The offline pass reads a learner frozen at the served starting
    # state, so its answers stay comparable between interludes.
    reader = OnlineLookHD(encoder, g.n_classes, decay=0.98)
    for batch in stream[:WARM_BATCHES]:
        reader.partial_fit(batch.features, batch.labels)
    interludes = Interludes(
        ctx, [(reader.predict, pool)], refit=lambda: _fit(ctx, "learn", data, fits)
    )
    interludes.run()
    order: list = []
    update_latency: dict[str, list[float]] = {}
    update_tasks: set = set()
    cursor = 0
    loop = asyncio.get_running_loop()

    def update_events(phase_name: str, duration: float) -> list:
        def fire(intended: float) -> None:
            nonlocal cursor
            batch = updates[cursor]
            order.append(("update", cursor))
            cursor += 1

            async def one() -> None:
                await service.partial_fit(batch.features, batch.labels, tenant=LEARN_TENANT)
                update_latency.setdefault(phase_name, []).append(
                    (time.perf_counter() - intended) * 1e3
                )

            task = loop.create_task(one())
            update_tasks.add(task)
            task.add_done_callback(update_tasks.discard)

        times = np.arange(UPDATE_PERIOD_S / 2, duration, UPDATE_PERIOD_S)
        return [(float(t), fire) for t in times]

    async def settle_updates() -> None:
        if update_tasks:
            await asyncio.wait(list(update_tasks), timeout=10.0)

    target = InprocTarget(
        service, [pool], [LEARN_TENANT], overloaded=(ServiceOverloadedError,), order=order
    )
    traffic = Traffic(
        ctx, target, n_tenants=1, pool_size=pool.shape[0], events=update_events,
        after=settle_updates, track_rss=True,
    )
    traffic_start = time.perf_counter()
    await traffic.open("warmup", RATES[ctx.workload].fixed, WARMUP_S)
    interludes.run()
    fixed = await traffic.open("fixed", RATES[ctx.workload].fixed, fixed_s)
    capacity = await _capacity(ctx, traffic, interludes)
    stats = service.request_stats()
    await service.stop()
    interludes.run()

    expected = _replay(order, traffic.phases, updates, pool, replica)
    _check_served(ctx, outcome, traffic.phases, lambda phase: expected[phase.name])
    if not np.array_equal(
        live.class_model().class_vectors, replica.class_model().class_vectors
    ):
        outcome.problems.append("live learner differs from its offline replica")
    applied = sum(1 for item in order if item[0] == "update")
    if stats["updates"] != applied:
        outcome.problems.append(f"service applied {stats['updates']} of {applied} updates")
    sent = sum(phase.n for phase in traffic.phases) + applied + 1  # + the setup's first request
    _reconcile_service(outcome, stats, sent, label="service")
    outcome.attempted += applied

    batch_rates = interludes.rates
    fixed_updates = update_latency.get("fixed", [])
    outcome.e2e = {
        "setup_s": median(setups),
        **_latency_metrics(outcome, fixed),
        "max_rate_rps": capacity["max_rate_rps"],
        "batch_rows_per_s": max(batch_rates),
        "train_rows_per_s": median([n / s for n, s in fits]),
        "update_p50_ms": float(np.quantile(fixed_updates, 0.5)),
        "update_p90_ms": float(np.quantile(fixed_updates, 0.9)),
        "peak_rss_mb": max(traffic.rss_mb),
    }
    outcome.detail.update(
        setups_s=setups, fixed=fixed.summary(), capacity=capacity, service=_slim_stats(stats),
        rss_mb=traffic.rss_mb, updates_in_fixed_phase=len(fixed_updates),
        offline_rates=_quantiles(batch_rates), fit_rates=[n / s for n, s in fits],
        update_ms=_quantiles(fixed_updates),
    )
    if ctx.tracer is not None:
        outcome.layers = layers.collect(
            ctx,
            spans=ctx.tracer.spans,
            fixed_window=(fixed.start, fixed.send_end),
            traffic_from=traffic_start,
            fixed=fixed,
            tenant_of={id(live): LEARN_TENANT},
            probe_classifier=clf,
            probe_learner=replica,
            pool=pool,
            max_batch=service.config.max_batch,
            service_stats=stats,
            registry={"bound_bytes": registry.bound_bytes},
        )
    return outcome


def _replay(order, phases, updates, pool, replica) -> dict:
    """Offline oracle: replay predicts and updates in the service's admission order."""
    by_name = {phase.name: phase for phase in phases}
    expected = {phase.name: np.full(phase.n, -1, dtype=np.int64) for phase in phases}
    pending: list[tuple[str, int]] = []

    def flush() -> None:
        for start in range(0, len(pending), OFFLINE_BATCH):
            chunk = pending[start : start + OFFLINE_BATCH]
            rows = np.stack([pool[by_name[name].row[i]] for name, i in chunk])
            for (name, i), prediction in zip(chunk, np.atleast_1d(replica.predict(rows))):
                expected[name][i] = prediction
        pending.clear()

    for kind, index in order:
        if kind == "update":
            flush()
            replica.partial_fit(updates[index].features, updates[index].labels)
        elif index < by_name[kind].n:
            pending.append((kind, index))
    flush()
    return expected


WORKLOADS = {
    "predict_inproc": predict_inproc,
    "fleet_wire": lambda ctx: fleet(ctx, sharded=False),
    "fleet_sharded": lambda ctx: fleet(ctx, sharded=True),
    "learn_live": learn_live,
}
