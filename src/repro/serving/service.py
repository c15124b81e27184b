"""Asyncio microbatching inference service.

The shape of the problem: the fused score-table kernel classifies a batch
of ``N`` queries in one pass of ``m`` gathers — almost all of the cost of
a request is Python/dispatch overhead, so serving requests one by one
throws the PR-1 kernel speedups away.  The service turns concurrent
awaiters into batches:

1. ``await predict(sample)`` validates the sample at admission (shape,
   width, finiteness — the same boundary rules as the underlying
   classifier), applies admission control, and parks a future on a FIFO
   queue.
2. A single collector task takes the oldest request and keeps collecting
   until either ``max_batch`` requests are in hand or the oldest request
   has waited ``max_wait_ms`` (so light traffic still gets a bounded
   latency floor).
3. The batch is stacked into one ``(N, n)`` array, dispatched to
   ``classifier.predict`` (inline on the event loop by default; on a
   worker thread with ``dispatch="thread"``), and the per-row ``int64``
   predictions are fanned back to the futures.

Because each batch row is scored independently with the same float
summation order as a single-row call, microbatched predictions are
bit-identical to single-request ``predict`` — batching changes latency
and throughput, never answers.

Backpressure is typed, not implicit: when ``max_queue_depth`` requests
are already waiting, ``predict`` raises
:class:`ServiceOverloadedError` immediately instead of letting the queue
(and every queued latency) grow without bound.  Callers — e.g. the TCP
front end — translate it into an explicit "overloaded" response.

Fleet mode: constructed over a
:class:`~repro.serving.registry.ModelRegistry` instead of one
classifier, the service routes each request by ``tenant`` name into a
per-tenant FIFO, flushes round-robin across ready tenants (one hot
tenant cannot starve the rest), enforces an optional per-tenant
admission quota (:class:`TenantOverloadedError`) under the global bound,
and binds each batch to its tenant's *current* model version at dispatch
time — the hot-swap contract.  Single-model mode is the degenerate
one-tenant case of the same machinery.

Telemetry (through the process registry, off by default): queue-wait and
end-to-end latency histograms, batch-size histogram, flush-reason
counters, completion/rejection counters, and a per-batch predict timer.
Every telemetry operation on the request path is *batch*-granular — the
per-request histograms are bucketed vectorised and merged with one
registry call per flush (:func:`telemetry.merge_histogram`) — because at
the measured ~10 µs/request service budget even one lock+dict operation
per request is a double-digit throughput tax.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.resilience.retry import DeadlineExceededError
from repro.utils.validation import (
    check_2d,
    check_finite,
    check_labels,
    check_positive_int,
)

#: Flush-reason labels (also the ``reason`` label on the
#: ``serving.batch.flushes`` counter and the keys of the load generator's
#: ``flush_reasons`` stanza).
FLUSH_MAX_BATCH = "max_batch"
FLUSH_MAX_WAIT = "max_wait"
FLUSH_DRAIN = "drain"
FLUSH_UPDATE = "update"

#: Histogram buckets for queue-wait and end-to-end latency (seconds).
LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 2.0)

#: Histogram buckets for batch sizes (requests per flush).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class ServingError(RuntimeError):
    """Base class for serving-layer failures."""


class ServiceOverloadedError(ServingError):
    """Admission control rejected the request: the queue is full.

    Typed backpressure — callers distinguish "try again later" from a bad
    request (``ValueError``) or a stopped service
    (:class:`ServiceClosedError`) without string matching.
    """

    def __init__(self, queue_depth: int, max_queue_depth: int):
        self.queue_depth = queue_depth
        self.max_queue_depth = max_queue_depth
        super().__init__(
            f"service overloaded: {queue_depth} requests already queued "
            f"(max_queue_depth={max_queue_depth}); retry later or raise the bound"
        )


class TenantOverloadedError(ServiceOverloadedError):
    """Admission control rejected the request: *this tenant's* quota is full.

    A subclass of :class:`ServiceOverloadedError` (same caller contract —
    back off and retry) carrying the tenant so fleet clients can throttle
    the offending stream instead of all of them.  The per-tenant quota is
    the fairness half of admission control: one hot tenant exhausts its
    own slots and gets bounced while the rest of the fleet keeps
    admitting under the global bound.
    """

    def __init__(self, tenant: str, queue_depth: int, tenant_quota: int):
        self.tenant = tenant
        self.queue_depth = queue_depth
        self.max_queue_depth = tenant_quota
        self.tenant_quota = tenant_quota
        RuntimeError.__init__(
            self,
            f"tenant {tenant!r} overloaded: {queue_depth} requests already "
            f"queued (tenant_quota={tenant_quota}); retry later",
        )


class ServiceClosedError(ServingError):
    """The service is not running (never started, or already stopped)."""


class UpdateNotSupportedError(ServingError):
    """``partial_fit`` was requested for a model that cannot learn online.

    Typed so fleet clients can distinguish "this tenant's model is a
    frozen batch classifier" from transient serving failures; the TCP
    front end maps it to the ``unsupported`` error code.
    """

    def __init__(self, tenant: str, model_type: str):
        self.tenant = tenant
        super().__init__(
            f"tenant {tenant!r} serves a {model_type} without partial_fit; "
            "publish an online-capable model (e.g. OnlineLookHD) to update live"
        )


@dataclass(frozen=True)
class MicrobatchConfig:
    """Batching and admission-control knobs of :class:`InferenceService`.

    Attributes
    ----------
    max_batch:
        Flush as soon as this many requests are queued.  Sized to the
        fused kernel's sweet spot; matching the expected concurrency keeps
        closed-loop traffic flushing on size rather than on the timer.
    max_wait_ms:
        Flush when the *oldest* queued request has waited this long, so a
        trickle of traffic is never stuck waiting for a full batch.  This
        is the service's idle-latency floor.
    max_queue_depth:
        Admission bound: requests beyond this many waiting raise
        :class:`ServiceOverloadedError` instead of queueing.
    deadline_ms:
        Default per-request deadline: a request still unanswered this
        long after admission fails its await with a typed
        :class:`~repro.resilience.retry.DeadlineExceededError` instead of
        occupying a batch slot forever.  ``None`` (default) disables
        deadlines; per-request overrides via ``predict(deadline_ms=…)``.
        Expiry is checked at flush time — the request is dropped *before*
        the model runs, so an overloaded service sheds work it could no
        longer answer in time instead of computing answers nobody waits
        for.
    tenant_quota:
        Per-tenant admission bound: requests beyond this many waiting
        *for one tenant* raise :class:`TenantOverloadedError` even while
        the global queue has room, so a single hot tenant cannot occupy
        every slot and starve the rest of the fleet.  ``None`` (default)
        disables the quota — single-model deployments need only the
        global bound.
    dispatch:
        Where the batched ``predict`` runs.  ``"inline"`` (default) calls
        it synchronously on the event loop: a fused batch costs a few
        hundred microseconds, the executor round-trip alone costs ~500 µs
        of wake latency per batch, and NumPy holds the GIL for most of
        the call anyway — so inline is both simpler and ~30% faster
        end-to-end.  ``"thread"`` uses ``run_in_executor`` so the loop
        keeps admitting (and answering other I/O) during predict; prefer
        it when the service shares its loop with latency-sensitive
        non-inference traffic or the model's batch latency is large.
    """

    max_batch: int = 64
    max_wait_ms: float = 2.0
    max_queue_depth: int = 1_024
    deadline_ms: float | None = None
    tenant_quota: int | None = None
    dispatch: str = "inline"

    def __post_init__(self):
        check_positive_int(self.max_batch, "max_batch")
        check_positive_int(self.max_queue_depth, "max_queue_depth")
        if self.tenant_quota is not None:
            check_positive_int(self.tenant_quota, "tenant_quota")
            if self.tenant_quota > self.max_queue_depth:
                raise ValueError(
                    f"tenant_quota ({self.tenant_quota}) must be <= "
                    f"max_queue_depth ({self.max_queue_depth})"
                )
        if not self.max_wait_ms > 0:
            raise ValueError(f"max_wait_ms must be positive, got {self.max_wait_ms}")
        if self.deadline_ms is not None and not self.deadline_ms > 0:
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.max_queue_depth < self.max_batch:
            raise ValueError(
                f"max_queue_depth ({self.max_queue_depth}) must be >= "
                f"max_batch ({self.max_batch})"
            )
        if self.dispatch not in ("inline", "thread"):
            raise ValueError(
                f"dispatch must be 'inline' or 'thread', got {self.dispatch!r}"
            )


class _Request:
    __slots__ = ("features", "labels", "future", "enqueued_at", "deadline_at")

    def __init__(
        self,
        features: np.ndarray,
        future: asyncio.Future,
        enqueued_at: float,
        deadline_at: float | None = None,
        labels: np.ndarray | None = None,
    ):
        self.features = features
        #: ``None`` marks a predict request; a labels array marks a
        #: ``partial_fit`` update riding the same per-tenant FIFO.
        self.labels = labels
        self.future = future
        self.enqueued_at = enqueued_at
        self.deadline_at = deadline_at


class InferenceService:
    """Microbatching façade over a fitted classifier.

    Parameters
    ----------
    classifier:
        A fitted model exposing ``predict`` with the library's batch
        contract (``(N, n)`` float batch → ``(N,)`` int64 predictions):
        :class:`~repro.lookhd.classifier.LookHDClassifier` or
        :class:`~repro.lookhd.online.OnlineLookHD`.  Graceful degradation
        is inherited from the classifier: when the fused score table
        exceeds its budget the same ``predict`` call serves the exact
        hypervector-domain path (one :class:`FusedFallbackWarning`, a
        queryable ``fallback_reason``) and the service keeps batching.
    config:
        Batching/admission knobs; defaults are
        :class:`MicrobatchConfig`'s.
    n_features:
        Expected feature width per request.  Defaults to the classifier's
        fitted encoder width; required only for models without an
        ``encoder`` attribute.
    registry:
        Fleet mode: a :class:`~repro.serving.registry.ModelRegistry`
        instead of a single ``classifier`` (pass exactly one of the two).
        Requests then carry a ``tenant`` name; the service keeps one FIFO
        queue per tenant, flushes **round-robin across ready tenants** so
        a hot tenant cannot starve the rest, and resolves each batch's
        model *at dispatch time* through ``registry.get(tenant)`` — so a
        hot-swap published mid-flight takes effect at the next batch
        boundary while already-collected batches finish on the version
        they resolved.  Per-request width validation uses the tenant's
        registered width (tenants may differ).

    Lifecycle: ``await start()`` → ``await predict(...)`` (any number of
    concurrent awaiters) → ``await stop()`` (drains the queue, completing
    every admitted request).  Also usable as an async context manager.
    """

    #: Queue key used for all requests in single-model mode.
    DEFAULT_TENANT = "default"

    def __init__(
        self,
        classifier=None,
        config: MicrobatchConfig | None = None,
        n_features: int | None = None,
        registry=None,
    ):
        if (classifier is None) == (registry is None):
            raise ValueError(
                "pass exactly one of classifier (single-model mode) or "
                "registry (fleet mode)"
            )
        self.classifier = classifier
        self.registry = registry
        self.config = config if config is not None else MicrobatchConfig()
        if registry is not None:
            # Fleet mode: width is per tenant (from its registry record).
            self.n_features = None
        else:
            encoder = getattr(classifier, "encoder", None)
            if n_features is not None:
                self.n_features = check_positive_int(n_features, "n_features")
            elif encoder is not None:
                self.n_features = int(encoder.n_features)
            else:
                raise ValueError(
                    "classifier exposes no fitted encoder; pass n_features explicitly"
                )
        # One FIFO per tenant plus a round-robin ring of tenant names.
        # Single-model mode is the one-tenant special case (DEFAULT_TENANT),
        # so both modes run the identical collector.
        self._queues: dict[str, deque[_Request]] = {}
        self._rr: deque[str] = deque()
        self._total_queued = 0
        self._wakeup = asyncio.Event()
        self._collector: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._running = False
        # Plain-int bookkeeping (always on, unlike telemetry) so callers —
        # the load generator's zero-dropped gate above all — can audit the
        # request balance without enabling the registry.
        self.admitted = 0
        self.completed = 0
        self.rejected = 0
        self.failed = 0
        self.expired = 0
        self.updates = 0
        self.batches = 0
        self.max_batch_size = 0
        self.peak_queue_depth = 0
        self.flush_reasons: dict[str, int] = {}
        self.tenant_stats: dict[str, dict[str, int]] = {}
        # Hot-path fast flag: expiry filtering at flush time only runs
        # once any request has carried a deadline, so deadline-free
        # deployments pay nothing for the feature.
        self._deadline_possible = self.config.deadline_ms is not None

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a batch slot (all tenants)."""
        return self._total_queued

    def tenant_queue_depth(self, tenant: str) -> int:
        """Requests currently waiting for one tenant."""
        queue = self._queues.get(tenant)
        return len(queue) if queue is not None else 0

    async def start(self) -> "InferenceService":
        """Start the collector task (idempotent while running)."""
        if self._running:
            return self
        self._running = True
        self._loop = asyncio.get_running_loop()
        self._collector = self._loop.create_task(self._collect())
        return self

    async def stop(self) -> None:
        """Stop accepting requests, drain the queue, and join the collector.

        Every request admitted before ``stop`` is still answered (final
        flushes are counted under the ``drain`` reason); only *new*
        ``predict`` calls fail with :class:`ServiceClosedError`.
        """
        if not self._running:
            return
        self._running = False
        self._wakeup.set()
        if self._collector is not None:
            await self._collector
            self._collector = None

    async def __aenter__(self) -> "InferenceService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- request path ----------------------------------------------------------

    def _validate(self, features: np.ndarray, n_features: int) -> np.ndarray:
        row = np.asarray(features, dtype=np.float64)
        if row.ndim != 1:
            raise ValueError(
                f"a serving request is one 1-D sample, got shape {row.shape}; "
                "batching is the service's job"
            )
        if row.shape[0] != n_features:
            raise ValueError(
                f"expected {n_features} features per request, got {row.shape[0]}"
            )
        # Finiteness is checked batch-granular in _dispatch (one vectorised
        # np.isfinite over the stacked batch instead of ~2 µs per request
        # here — the last per-request line in the hot-path profile).  A
        # non-finite request still fails its own await with ValueError;
        # shape/width must stay per-request or np.stack would blow up the
        # whole batch.
        return row

    def _tenant_stats(self, tenant: str) -> dict[str, int]:
        stats = self.tenant_stats.get(tenant)
        if stats is None:
            stats = self.tenant_stats[tenant] = {
                "admitted": 0,
                "completed": 0,
                "rejected": 0,
                "failed": 0,
                "expired": 0,
                "updated": 0,
            }
        return stats

    def _resolve_tenant(self, tenant: str | None) -> tuple[str, int]:
        """Admission-time routing: queue key + expected feature width.

        Fleet mode resolves the tenant's *current* registry record for
        width only — the model binding itself is deferred to dispatch
        (see :meth:`_predict_batch`), so a hot-swap between admission and
        flush serves the new version.  Unknown tenants raise the
        registry's typed error here, before anything is queued.
        """
        if self.registry is None:
            if tenant is not None and tenant != self.DEFAULT_TENANT:
                raise ValueError(
                    f"single-model service has no tenant {tenant!r}; "
                    "construct with a ModelRegistry for fleet serving"
                )
            return self.DEFAULT_TENANT, self.n_features
        if tenant is None:
            tenant = self.DEFAULT_TENANT
        if not isinstance(tenant, str):
            raise ValueError(f"tenant must be a string, got {tenant!r}")
        record = self.registry.record(tenant)  # raises UnknownTenantError
        return tenant, record.n_features

    def _admit(self, tenant: str, request: _Request) -> None:
        """Atomically reserve a queue slot and enqueue, or raise.

        Admission is **check-and-append in one synchronous critical
        section** — no ``await`` can interleave between the depth check
        and the append, and both bounds (global, per-tenant quota) are
        tested against the counters the append itself updates.  This is
        the invariant the boundary-concurrency regression test drives:
        ``peak_queue_depth`` can never exceed ``max_queue_depth``, and no
        tenant's queue can exceed ``tenant_quota``, no matter how many
        coroutines submit in the same event-loop tick.
        """
        stats = self._tenant_stats(tenant)
        if self._total_queued >= self.config.max_queue_depth:
            self.rejected += 1
            stats["rejected"] += 1
            telemetry.count("serving.requests.rejected", reason="queue_full")
            raise ServiceOverloadedError(
                self._total_queued, self.config.max_queue_depth
            )
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._rr.append(tenant)
        quota = self.config.tenant_quota
        if quota is not None and len(queue) >= quota:
            self.rejected += 1
            stats["rejected"] += 1
            telemetry.count("serving.requests.rejected", reason="tenant_quota")
            raise TenantOverloadedError(tenant, len(queue), quota)
        queue.append(request)
        self._total_queued += 1
        self.admitted += 1
        stats["admitted"] += 1
        if self._total_queued > self.peak_queue_depth:
            self.peak_queue_depth = self._total_queued
        # Wake the collector only on the edges it cares about — the first
        # queued request anywhere (starts the max_wait clock) and a
        # tenant's batch filling.  Intermediate arrivals just queue, so
        # the collector is not churned through a wakeup per request.
        if self._total_queued == 1 or len(queue) >= self.config.max_batch:
            self._wakeup.set()

    async def predict(
        self,
        features: np.ndarray,
        deadline_ms: float | None = None,
        tenant: str | None = None,
    ) -> np.int64:
        """Classify one sample; resolves when its batch has been served.

        ``deadline_ms`` overrides the config default for this request: if
        the batch holding it has not flushed by then, the await fails
        with a typed
        :class:`~repro.resilience.retry.DeadlineExceededError` and the
        model never runs for it.  ``tenant`` routes the request in fleet
        mode (see the ``registry`` constructor parameter); single-model
        services accept only the default tenant.

        Raises ``ValueError`` on malformed input (wrong shape/width,
        NaN/inf), :class:`ServiceOverloadedError` /
        :class:`TenantOverloadedError` when admission control rejects,
        :class:`~repro.serving.registry.UnknownTenantError` for an
        unregistered tenant, and :class:`ServiceClosedError` when the
        service is not running.  Admitted requests always resolve (or
        carry the batch's exception, or their deadline's) — never
        silently drop.
        """
        if not self._running:
            raise ServiceClosedError("service is not running; call start() first")
        tenant, n_features = self._resolve_tenant(tenant)
        row = self._validate(features, n_features)
        if deadline_ms is None:
            deadline_ms = self.config.deadline_ms
        elif not deadline_ms > 0:
            raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")
        now = time.perf_counter()
        deadline_at = None
        if deadline_ms is not None:
            deadline_at = now + deadline_ms / 1_000.0
            self._deadline_possible = True
        request = _Request(row, self._loop.create_future(), now, deadline_at)
        self._admit(tenant, request)
        return await request.future

    def _resolve_classifier(self, tenant: str):
        """Current model for a tenant (dispatch-time binding in fleet mode)."""
        if self.registry is None:
            return self.classifier
        return self.registry.get(tenant).classifier

    async def partial_fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        tenant: str | None = None,
    ) -> int:
        """Apply a labelled batch to a tenant's live model; returns its size.

        The update rides the same per-tenant FIFO as predicts and is
        flushed by the same single collector, so it is **serialized
        against predict flushes**: every predict admitted before the
        update is answered by the pre-update model, every predict
        admitted after it sees the post-update model — no batch ever
        observes a half-applied update (the learner itself commits each
        batch atomically; see
        :meth:`repro.lookhd.online.OnlineLookHD.partial_fit`).

        Unlike the predict hot path, updates are control-plane rate, so
        the whole payload is validated eagerly at admission — shape,
        width, finiteness, label/feature count — and a tenant whose model
        has no ``partial_fit`` fails fast with
        :class:`UpdateNotSupportedError` before anything queues.
        Admission control (global bound, tenant quota) applies as for any
        request; an admitted update is always resolved or failed, never
        dropped, preserving the drain invariant.
        """
        if not self._running:
            raise ServiceClosedError("service is not running; call start() first")
        tenant, n_features = self._resolve_tenant(tenant)
        classifier = self._resolve_classifier(tenant)
        if not callable(getattr(classifier, "partial_fit", None)):
            raise UpdateNotSupportedError(tenant, type(classifier).__name__)
        batch = check_finite(check_2d(features, "features"), "features")
        if batch.shape[1] != n_features:
            raise ValueError(
                f"expected {n_features} features per sample, got {batch.shape[1]}"
            )
        labels = check_labels(labels, "labels", n_samples=batch.shape[0])
        request = _Request(
            batch, self._loop.create_future(), time.perf_counter(), labels=labels
        )
        self._admit(tenant, request)
        return await request.future

    # -- collector -------------------------------------------------------------

    def _any_full(self) -> bool:
        max_batch = self.config.max_batch
        return any(len(q) >= max_batch for q in self._queues.values())

    def _oldest_enqueued_at(self) -> float:
        return min(q[0].enqueued_at for q in self._queues.values() if q)

    def _choose_tenant(self, now: float, max_wait: float) -> tuple[str, str] | None:
        """Pick the next tenant to flush, round-robin among the ready.

        "Ready" means a full batch waiting, the tenant's oldest request
        has aged past ``max_wait``, or the service is draining.  The ring
        is scanned in rotation order and the chosen tenant moves to the
        back, so when several tenants are ready at once (the hot-fleet
        steady state) each gets one flush per cycle — a hot tenant's
        always-full queue cannot monopolise the collector.
        """
        max_batch = self.config.max_batch
        for _ in range(len(self._rr)):
            tenant = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(tenant)
            if not queue:
                continue
            if len(queue) >= max_batch:
                return tenant, FLUSH_MAX_BATCH
            if not self._running:
                return tenant, FLUSH_DRAIN
            if queue[0].enqueued_at + max_wait <= now:
                return tenant, FLUSH_MAX_WAIT
        return None

    async def _collect(self) -> None:
        max_wait = self.config.max_wait_ms / 1_000.0
        max_batch = self.config.max_batch
        while True:
            if not self._total_queued:
                if not self._running:
                    return
                self._wakeup.clear()
                # Re-check after clear: a request admitted (or a stop())
                # between the check and the clear must not be missed.
                if self._total_queued or not self._running:
                    continue
                await self._wakeup.wait()
                continue
            # Requests in hand — wait until some tenant's batch fills or
            # the oldest request (across all tenants) ages past max_wait.
            # A stopping service flushes immediately.  There is no await
            # between checking the queues and waiting, so the
            # edge-triggered wakeups from _admit() cannot be lost.
            while self._running and not self._any_full():
                remaining = self._oldest_enqueued_at() + max_wait - time.perf_counter()
                if remaining <= 0:
                    break
                self._wakeup.clear()
                try:
                    await asyncio.wait_for(self._wakeup.wait(), timeout=remaining)
                except (asyncio.TimeoutError, TimeoutError):
                    break
            now = time.perf_counter()
            chosen = self._choose_tenant(now, max_wait)
            if chosen is None:
                # Woken with nothing ready yet (e.g. a fresh first request
                # re-armed the clock); loop back and wait out its age.
                continue
            tenant, reason = chosen
            queue = self._queues[tenant]
            # Homogeneous flushes preserve per-tenant FIFO semantics: an
            # update at the head flushes alone; a predict run pops only up
            # to the next update.  Because this one collector awaits each
            # dispatch, an update can never overlap a predict flush — the
            # serialization the live-learning bit-identity gate relies on.
            if queue[0].labels is not None:
                request = queue.popleft()
                self._total_queued -= 1
                await self._dispatch_update(request, tenant)
                continue
            batch = []
            while queue and len(batch) < max_batch and queue[0].labels is None:
                batch.append(queue.popleft())
            self._total_queued -= len(batch)
            await self._dispatch(batch, reason, tenant)

    def _predict_batch(self, features: np.ndarray, tenant: str) -> np.ndarray:
        # Dispatch-time binding: fleet mode resolves the tenant's *current*
        # record here — inside the executor for dispatch="thread", so a
        # lazy table rebuild after LRU eviction also runs off the event
        # loop.  A batch that resolved the old record before a hot-swap
        # finishes on it; the next batch picks up the new version.  This is
        # the registry-level twin of FusedInferenceEngine's version-counter
        # rebuild.
        if self.registry is None:
            classifier = self.classifier
        else:
            classifier = self.registry.get(tenant).classifier
        with telemetry.timer("serving.batch.predict_seconds"):
            predictions = np.atleast_1d(classifier.predict(features))
        return predictions.astype(np.int64, copy=False)

    def _update_model(self, features: np.ndarray, labels: np.ndarray, tenant: str) -> int:
        # Same dispatch-time binding as _predict_batch: a hot-swap between
        # admission and flush applies the update to the *current* model.
        # The swapped-in model is re-checked for partial_fit here because
        # the admission-time capability check bound the old record.
        classifier = self._resolve_classifier(tenant)
        update = getattr(classifier, "partial_fit", None)
        if not callable(update):
            raise UpdateNotSupportedError(tenant, type(classifier).__name__)
        with telemetry.timer("serving.update.partial_fit_seconds"):
            update(features, labels)
        return int(features.shape[0])

    async def _dispatch_update(self, request: _Request, tenant: str) -> None:
        stats = self._tenant_stats(tenant)
        self.flush_reasons[FLUSH_UPDATE] = self.flush_reasons.get(FLUSH_UPDATE, 0) + 1
        telemetry.count("serving.batch.flushes", reason=FLUSH_UPDATE)
        try:
            if self.config.dispatch == "inline":
                applied = self._update_model(request.features, request.labels, tenant)
            else:
                applied = await asyncio.get_running_loop().run_in_executor(
                    None, self._update_model, request.features, request.labels, tenant
                )
        except Exception as error:  # noqa: BLE001 — forwarded to the awaiter
            self.failed += 1
            stats["failed"] += 1
            telemetry.count("serving.requests.failed", reason="update_error")
            if not request.future.done():
                # Typed serving errors pass through untouched so callers
                # can branch on UpdateNotSupportedError; everything else
                # (a learner rejecting out-of-range labels, say) is
                # wrapped like a failed predict batch.
                if isinstance(error, ServingError):
                    request.future.set_exception(error)
                else:
                    request.future.set_exception(
                        ServingError(f"partial_fit failed: {error!r}")
                    )
            return
        self.batches += 1
        self.updates += 1
        self.completed += 1
        stats["completed"] += 1
        stats["updated"] += 1
        telemetry.count("serving.updates.applied")
        telemetry.count("serving.updates.samples", applied)
        if not request.future.done():
            request.future.set_result(applied)

    @staticmethod
    def _merge_latency_histogram(name: str, values: np.ndarray) -> None:
        """One registry merge for a whole batch of latency observations."""
        indices = np.searchsorted(LATENCY_BUCKETS, values, side="left")
        counts = np.bincount(indices, minlength=len(LATENCY_BUCKETS) + 1)
        telemetry.merge_histogram(
            name, LATENCY_BUCKETS, counts.tolist(), float(values.sum())
        )

    async def _dispatch(self, batch: list[_Request], reason: str, tenant: str) -> None:
        collected_at = time.perf_counter()
        stats = self._tenant_stats(tenant)
        self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1
        if len(batch) > self.max_batch_size:
            self.max_batch_size = len(batch)
        if self._deadline_possible:
            alive = [
                r.deadline_at is None or r.deadline_at >= collected_at
                for r in batch
            ]
            if not all(alive):
                expired = [r for r, ok in zip(batch, alive) if not ok]
                self.expired += len(expired)
                stats["expired"] += len(expired)
                telemetry.count("serving.requests.expired", len(expired))
                for request in expired:
                    if not request.future.done():
                        request.future.set_exception(
                            DeadlineExceededError(
                                collected_at - request.enqueued_at,
                                request.deadline_at - request.enqueued_at,
                            )
                        )
                batch = [r for r, ok in zip(batch, alive) if ok]
                if not batch:
                    return
        instrumented = telemetry.is_enabled()
        enqueued_at = None
        if instrumented:
            telemetry.count("serving.batch.flushes", reason=reason)
            telemetry.observe(
                "serving.batch.size", len(batch), buckets=BATCH_SIZE_BUCKETS
            )
            enqueued_at = np.array([request.enqueued_at for request in batch])
            self._merge_latency_histogram(
                "serving.queue.wait_seconds", collected_at - enqueued_at
            )
        features = np.stack([request.features for request in batch])
        if not np.isfinite(features).all():
            # Rare path: isolate the offending rows (their awaits raise
            # ValueError, same contract as eager validation) and keep
            # serving the finite remainder of the batch.
            finite_rows = np.isfinite(features).all(axis=1)
            invalid = [r for r, ok in zip(batch, finite_rows) if not ok]
            self.failed += len(invalid)
            stats["failed"] += len(invalid)
            telemetry.count(
                "serving.requests.failed", len(invalid), reason="non_finite"
            )
            for request in invalid:
                if not request.future.done():
                    request.future.set_exception(
                        ValueError(
                            "features contains non-finite values (NaN or inf); "
                            "clean the input before serving"
                        )
                    )
            batch = [r for r, ok in zip(batch, finite_rows) if ok]
            if not batch:
                return
            features = features[finite_rows]
            if instrumented:
                enqueued_at = enqueued_at[finite_rows]
        try:
            if self.config.dispatch == "inline":
                predictions = self._predict_batch(features, tenant)
            else:
                predictions = await asyncio.get_running_loop().run_in_executor(
                    None, self._predict_batch, features, tenant
                )
        except Exception as error:  # noqa: BLE001 — forwarded per request
            self.failed += len(batch)
            stats["failed"] += len(batch)
            telemetry.count(
                "serving.requests.failed", len(batch), reason="predict_error"
            )
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(
                        ServingError(f"batch predict failed: {error!r}")
                    )
            return
        self.batches += 1
        for request, prediction in zip(batch, predictions):
            if not request.future.done():
                request.future.set_result(prediction)
        self.completed += len(batch)
        stats["completed"] += len(batch)
        if instrumented:
            telemetry.count("serving.requests.completed", len(batch))
            self._merge_latency_histogram(
                "serving.latency_seconds", time.perf_counter() - enqueued_at
            )

    # -- reporting -------------------------------------------------------------

    def request_stats(self) -> dict:
        """Always-on request accounting (independent of telemetry state).

        ``dropped`` is the invariant the drain logic protects: requests
        admitted but neither completed, failed, nor expired.  It must be
        0 after a clean ``stop()``.
        """
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "expired": self.expired,
            "updates": self.updates,
            "dropped": self.admitted
            - self.completed
            - self.failed
            - self.expired,
            "batches": self.batches,
            "peak_queue_depth": self.peak_queue_depth,
            # Per-tenant request balance (single-model mode reports its one
            # implicit tenant) — the fleet bench's per-tenant zero-dropped
            # gate reads this.
            "tenants": {
                tenant: {
                    **stats,
                    "dropped": stats["admitted"]
                    - stats["completed"]
                    - stats["failed"]
                    - stats["expired"],
                    "queued": self.tenant_queue_depth(tenant),
                }
                for tenant, stats in sorted(self.tenant_stats.items())
            },
        }
