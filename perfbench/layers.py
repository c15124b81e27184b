"""Per-layer metrics of a traced run, computed from spans and outside views.

Every traced run reports every ``per_layer`` metric of ``BENCHMARK.json``.  A layer that
is not on a workload's path reports 0 (no calls, no time); README.md
lists which workload each metric belongs to and which end-to-end metric
it should move.
"""

from __future__ import annotations

import time

import numpy as np

from common import median
from spec import LAYER_METRICS
from tracing import CALLER, END, KEY, NAME, NBYTES, OK, PARENT, ROWS, START, children_index

KERNELS = (
    "kernels.chunk_addresses",
    "kernels.counter_observe",
    "kernels.counter_materialize",
    "kernels.gather_accumulate",
    "kernels.compressed_score",
)


def _named(spans, name, window=None, caller=None):
    out = []
    for span in spans:
        if span is None or span[NAME] != name or not span[OK]:
            continue
        if caller is not None and span[CALLER] != caller:
            continue
        if window is not None and not window[0] <= span[START] < window[1]:
            continue
        out.append(span)
    return out


def _us_per_row(spans) -> float:
    rows = sum(span[ROWS] for span in spans)
    return sum(span[END] - span[START] for span in spans) / rows * 1e6 if rows else 0.0


def _median_duration(spans) -> float:
    return median([span[END] - span[START] for span in spans]) if spans else 0.0


# -- probes (traced runs only) ----------------------------------------------------------


def probe(classifier, learner, pool: np.ndarray) -> dict:
    """Direct calls at fixed batch heights; returns the probe's time window.

    ``classifier`` is a fitted ``LookHDClassifier`` and ``learner`` an
    ``OnlineLookHD``; both are exercised only after the workload's
    traffic, so the probe never overlaps a measured phase.
    """
    began = time.perf_counter()
    for _ in range(3):
        classifier.release_tables()
        classifier.warm_tables()
    for batch, calls in ((1, 200), (64, 60), (512, 12)):
        for k in range(calls):
            start = (k * batch) % max(1, pool.shape[0] - batch)
            classifier.predict(pool[start : start + batch] if batch > 1 else pool[start])
    for k in range(20):
        start = (k * 64) % max(1, pool.shape[0] - 64)
        learner.predict(pool[start : start + 64])
    return {"window": (began, time.perf_counter()), "table_bytes": classifier.serving_table_bytes()}


def overhead_share(classifier, pool: np.ndarray, tracer) -> float:
    """Slowdown of batch-512 predict with the wrappers installed vs removed."""

    def rows_per_s() -> float:
        rates = []
        for _ in range(3):
            for start in range(0, pool.shape[0], 512):
                batch = pool[start : start + 512]
                began = time.perf_counter()
                classifier.predict(batch)
                rates.append(batch.shape[0] / (time.perf_counter() - began))
        return median(rates)

    traced = rows_per_s()
    tracer.uninstall()
    try:
        untraced = rows_per_s()
    finally:
        tracer.install()
    return untraced / traced - 1.0


# -- service metrics from spans ---------------------------------------------------------


def _queue_waits(spans, tenant_of: dict, traffic_from: float, window) -> list[float]:
    """Per-request queue wait (ms), matching requests to batches FIFO per tenant.

    Within one tenant the service admits in order and flushes
    homogeneous FIFO batches, so the j-th admitted predict is the j-th
    row served by that tenant's batch predicts.  Requests that raised
    at admission never reach a batch and are skipped.
    """
    requests: dict[str, list[float]] = {}
    for span in spans:
        if span is not None and span[NAME] == "service.predict" and span[OK] and span[START] >= traffic_from:
            requests.setdefault(span[KEY], []).append(span[START])
    batches: dict[str, list] = {}
    for span in spans:
        if (
            span is not None
            and span[NAME] in ("lookhd.predict", "lookhd.online.predict")
            and span[CALLER] == "_predict_batch"
            and span[START] >= traffic_from
        ):
            tenant = tenant_of.get(str(span[KEY]), tenant_of.get(span[KEY]))
            batches.setdefault(tenant, []).append(span)
    waits = []
    for tenant, admitted in requests.items():
        admitted.sort()
        j = 0
        for batch in sorted(batches.get(tenant, []), key=lambda s: s[START]):
            for _ in range(batch[ROWS]):
                if j >= len(admitted):
                    break
                if window[0] <= admitted[j] < window[1]:
                    waits.append((batch[START] - admitted[j]) * 1e3)
                j += 1
    return waits


def _service_metrics(spans, tenant_of, traffic_from, window, max_batch) -> dict:
    batches = [
        span
        for name in ("lookhd.predict", "lookhd.online.predict")
        for span in _named(spans, name, window, caller="_predict_batch")
    ]
    waits = _queue_waits(spans, tenant_of, traffic_from, window)
    sizes = [span[ROWS] for span in batches]
    return {
        "service.batch_size.mean": float(np.mean(sizes)) if sizes else 0.0,
        # A batch flushed below max_batch was flushed by the max_wait
        # timer (no drains happen inside the fixed phase).
        "service.timer_flush_share": (
            float(np.mean([size < max_batch for size in sizes])) if sizes else 0.0
        ),
        "service.compute_ms_per_batch.p50": _median_duration(batches) * 1e3,
        "service.queue_wait_ms.p50": float(np.quantile(waits, 0.5)) if waits else 0.0,
        "service.queue_wait_ms.p99": float(np.quantile(waits, 0.99)) if waits else 0.0,
    }


# -- computed op counts -----------------------------------------------------------------


def opcount_metrics(geometry) -> dict:
    """Computed (not measured) ops and bytes per predicted / trained row."""
    from repro.hw.opcounts import WorkloadShape, lookhd_inference_ops, lookhd_training_ops

    shape = WorkloadShape(
        n_features=geometry.n_features, n_classes=geometry.n_classes, dim=geometry.dim,
        levels=geometry.levels, chunk_size=geometry.chunk_size,
    )

    def nbytes(ops) -> float:
        return (
            (ops.reads + ops.writes) * ops.mem_bits / 8.0
            + ops.onchip_reads * ops.onchip_bits / 8.0
        )

    infer = lookhd_inference_ops(shape)
    train = lookhd_training_ops(shape, geometry.n_train).scaled(1.0 / geometry.n_train)
    return {
        "opcounts.predict.ops_per_row": infer.total_arithmetic,
        "opcounts.predict.bytes_per_row": nbytes(infer),
        "opcounts.train.ops_per_row": train.total_arithmetic,
        "opcounts.train.bytes_per_row": nbytes(train),
    }


# -- assembly ---------------------------------------------------------------------------


def collect(ctx, *, spans, fixed_window, traffic_from, fixed, tenant_of, probe_classifier,
            probe_learner, pool, max_batch, service_stats=None, registry=None, wire=False,
            sharded=False, health=None, cpu_fixed=None, server_pid=None, direct=None,
            codec_us=0.0, client_spans=None) -> dict:
    """Every per-layer metric for one traced run.

    ``spans`` are the serving process's spans (this process for the
    in-process workloads, the server's report for ``fleet_wire``, empty
    for ``fleet_sharded``); ``client_spans`` are this process's when
    they differ.
    """
    tracer = ctx.tracer
    client_spans = tracer.spans if client_spans is None else client_spans
    probed = probe(probe_classifier, probe_learner, pool)
    probe_window = probed["window"]
    out = {name: 0.0 for name in LAYER_METRICS}

    # Kernels and quantization on the serving path (fixed phase); the
    # sharded server is opaque, so its figures come from the probe.
    serving = spans if spans else client_spans
    window = fixed_window if spans else probe_window
    predicted_rows = sum(
        span[ROWS]
        for name in ("lookhd.predict", "lookhd.online.predict")
        for span in _named(serving, name, window)
        if span[PARENT] == -1
    )
    kernel_calls = sum(len(_named(serving, name, window)) for name in KERNELS)
    gathers = _named(serving, "kernels.gather_accumulate", window)
    out["kernels.chunk_addresses.us_per_row"] = _us_per_row(
        _named(serving, "kernels.chunk_addresses", window)
    )
    out["kernels.gather_accumulate.us_per_row"] = _us_per_row(gathers)
    out["kernels.calls_per_row"] = kernel_calls / predicted_rows if predicted_rows else 0.0
    gathered_rows = sum(span[ROWS] for span in gathers)
    out["kernels.gather_accumulate.bytes_per_row"] = (
        sum(span[NBYTES] for span in gathers) / gathered_rows if gathered_rows else 0.0
    )
    out["quantization.transform.us_per_row"] = _us_per_row(
        _named(serving, "quantization.transform", window)
    )
    # Training kernels run in this process (every workload fits here).
    out["kernels.counter_observe.us_per_row"] = _us_per_row(
        _named(client_spans, "kernels.counter_observe")
    )
    out["kernels.counter_materialize.ms_per_call"] = (
        _median_duration(_named(client_spans, "kernels.counter_materialize")) * 1e3
    )

    # lookhd: probe batch heights, fits, table warming.
    covered = children_index(client_spans)
    probe_predicts = [
        (i, s) for i, s in enumerate(client_spans)
        if s is not None and s[NAME] == "lookhd.predict" and s[OK] and s[CALLER] == "probe"
        and probe_window[0] <= s[START] < probe_window[1]
    ]
    for height in (1, 64, 512):
        chosen = [(i, s) for i, s in probe_predicts if s[ROWS] == height]
        out[f"lookhd.predict.us_per_row.b{height}"] = _us_per_row([s for _, s in chosen])
        if height == 64 and chosen:
            # Self time: predict minus its kernel and quantization
            # children, i.e. validation and dispatch.
            self_seconds = sum(s[END] - s[START] - covered.get(i, 0.0) for i, s in chosen)
            out["lookhd.predict.self_us_per_row.b64"] = (
                self_seconds / sum(s[ROWS] for _, s in chosen) * 1e6
            )
    fit_indices = [
        i for i, s in enumerate(client_spans)
        if s is not None and s[NAME] == "lookhd.fit" and s[OK]
    ]
    if fit_indices:
        out["lookhd.fit.s"] = median(
            [client_spans[i][END] - client_spans[i][START] for i in fit_indices]
        )
        out["lookhd.fit.self_s"] = median(
            [client_spans[i][END] - client_spans[i][START] - covered.get(i, 0.0) for i in fit_indices]
        )
    out["lookhd.warm_tables.s"] = _median_duration(
        _named(client_spans, "lookhd.warm_tables", probe_window)
    )
    out["lookhd.serving_table_bytes"] = float(probed["table_bytes"])
    online_updates = _named(serving, "lookhd.online.partial_fit", fixed_window, caller="_update_model")
    if not online_updates:
        online_updates = _named(client_spans, "lookhd.online.partial_fit", caller="_probe_updates")
    out["lookhd.online.partial_fit.us_per_row"] = _us_per_row(online_updates)
    out["lookhd.online.predict.us_per_row.b64"] = _us_per_row(
        _named(client_spans, "lookhd.online.predict", probe_window, caller="probe")
    )
    out["streaming.quantizer.partial_fit_us_per_row"] = _us_per_row(
        _named(client_spans, "streaming.quantizer.partial_fit")
    )

    # service
    if spans:
        out.update(_service_metrics(spans, tenant_of, traffic_from, fixed_window, max_batch))
    if service_stats:
        out["service.rejected"] = float(service_stats.get("rejected", 0))
        out["service.expired"] = float(service_stats.get("expired", 0))
    if sharded and health:
        books = [block.get("requests", {}) for block in health["shards"].values()]
        batches = sum(b.get("batches", 0) for b in books)
        predicted = sum(b.get("completed", 0) - b.get("updates", 0) for b in books)
        out["service.batch_size.mean"] = predicted / batches if batches else 0.0
        out["service.rejected"] = float(sum(b.get("rejected", 0) for b in books))
        out["service.expired"] = float(sum(b.get("expired", 0) for b in books))

    # registry
    publishes = _named(spans if spans else [], "registry.publish")
    out["registry.publish_s"] = _median_duration(publishes)
    if registry is not None:
        out["registry.bound_bytes"] = float(registry.get("bound_bytes", 0))
    if sharded and health:
        out["registry.bound_bytes"] = float(
            sum(block.get("fleet", {}).get("bound_bytes", 0) for block in health["shards"].values())
        )

    # server and shard hop (wire workloads)
    fixed_requests = max(1, fixed.counts()["succeeded"])
    if wire:
        errors = sum(
            count for code, count in fixed.errors.items() if code != "overloaded"
        )
        out["server.errors"] = float(errors)
        total_cpu = sum(cpu_fixed.values())
        out["server.cpu_ms_per_1k_req"] = total_cpu / fixed_requests * 1e6
        sent_latency = _from_send_p50_us(fixed)
        if spans:
            service_spans = _named(spans, "service.predict", fixed_window)
            out["server.overhead_us.p50"] = sent_latency - _median_duration(service_spans) * 1e6
        out["client.codec_us_per_req"] = codec_us
    if sharded:
        acceptor = cpu_fixed.get(server_pid, 0.0)
        out["shard.acceptor_cpu_ms_per_1k_req"] = acceptor / fixed_requests * 1e6
        out["shard.worker_cpu_ms_per_1k_req"] = (sum(cpu_fixed.values()) - acceptor) / fixed_requests * 1e6
        if direct is not None:
            out["shard.hop_us.p50"] = _from_send_p50_us(fixed) - _from_send_p50_us(direct)
        if health:
            out["shard.retried"] = float(health["requests"].get("retried", 0))
            out["shard.failed"] = float(health["requests"].get("failed", 0))
    out["client.lag_ms.max"] = float(fixed.lag_ms().max()) if fixed.n else 0.0
    out.update(opcount_metrics(ctx.geometry))
    out["trace.overhead_share"] = overhead_share(probe_classifier, pool, tracer)
    return out


def _from_send_p50_us(phase) -> float:
    """Median latency measured from the actual send time, in microseconds."""
    from openloop import OK as SERVED

    served = phase.status == SERVED
    if not served.any():
        return 0.0
    return float(np.median(phase.done[served] - phase.sent[served]) * 1e6)
