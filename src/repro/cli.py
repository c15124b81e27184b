"""Command-line interface.

    python -m repro train --application activity --out model.npz
    python -m repro evaluate --model model.npz --application activity
    python -m repro experiment fig04 table01 ...
    python -m repro faults --ber 1e-4..1e-1
    python -m repro stats --out STATS.json
    python -m repro serve --application activity --port 8752
    python -m repro loadgen --profile full
    python -m repro list

Training/evaluation run on the built-in synthetic stand-ins or on a
user-supplied ``.npz``/CSV dataset (``--data``), so the CLI doubles as a
quick harness for real data.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.datasets.loaders import load_csv, load_npz
from repro.datasets.registry import application_names, load_application
from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.persistence import load_classifier, save_classifier

_EXPERIMENTS = [
    "fig02_breakdown",
    "table01_characteristics",
    "fig03_quantization_boundaries",
    "fig04_quantization_accuracy",
    "fig08_correlation",
    "fig09_retraining",
    "fig12_chunk_quant",
    "table02_dimensionality",
    "fig13_training_efficiency",
    "fig14_inference_retraining",
    "table03_gpu",
    "fig15_scalability",
    "fig16_resources",
    "table04_mlp",
]


def _load_dataset(args):
    if args.data:
        if args.data.endswith(".npz"):
            return load_npz(args.data)
        return load_csv(args.data)
    return load_application(args.application, train_limit=args.train_limit)


def _cmd_train(args) -> int:
    data = _load_dataset(args)
    print(data.describe())
    config = LookHDConfig(
        dim=args.dim,
        levels=args.levels,
        chunk_size=args.chunk_size,
        compress=not args.no_compress,
        seed=args.seed,
    )
    clf = LookHDClassifier(config)
    trace = clf.fit(
        data.train_features,
        data.train_labels,
        retrain_iterations=args.retrain,
        n_workers=args.workers,
    )
    accuracy = clf.score(data.test_features, data.test_labels)
    print(f"test accuracy: {accuracy:.4f}")
    if trace.iterations:
        print(f"retraining updates per pass: {trace.updates_per_iteration}")
    print(f"model size: {clf.model_size_bytes()} bytes")
    if args.out:
        path = save_classifier(clf, args.out)
        print(f"saved model to {path}")
    return 0


def _cmd_evaluate(args) -> int:
    clf = load_classifier(args.model)
    data = _load_dataset(args)
    accuracy = clf.score(data.test_features, data.test_labels)
    print(f"test accuracy: {accuracy:.4f} on {data.describe()}")
    return 0


def _cmd_experiment(args) -> int:
    status = 0
    for name in args.names:
        if name not in _EXPERIMENTS:
            print(f"unknown experiment {name!r}; choose from {_EXPERIMENTS}", file=sys.stderr)
            status = 2
            continue
        module = importlib.import_module(f"repro.experiments.{name}")
        print(module.main())
        print()
    return status


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Parse-time bound for strictly-positive float flags.

    Rejecting ``--deadline-ms 0`` (and friends) here means the error is a
    one-line argparse usage message at invocation, not a traceback from
    deep inside the service after a model was already loaded or trained.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _decay_float(text: str) -> float:
    """Parse-time bound for forgetting factors: must lie in ``(0, 1]``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    """Parse-time bound for float flags where 0 means "disabled"."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _tenant_model(text: str) -> tuple[str, str]:
    """Parse one ``--models`` entry: ``NAME=PATH`` → ``(tenant, path)``."""
    tenant, sep, path = text.partition("=")
    if not sep or not tenant or not path:
        raise argparse.ArgumentTypeError(
            f"expected NAME=PATH (e.g. edge-7=model.npz), got {text!r}"
        )
    return tenant, path


def _parse_ber_grid(text: str, points: int) -> tuple[float, ...]:
    """Parse ``--ber``: ``a..b`` (log-spaced ``points``) or a comma list."""
    import numpy as np

    if ".." in text:
        low_text, _, high_text = text.partition("..")
        try:
            low, high = float(low_text), float(high_text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"could not parse BER range {text!r}; expected e.g. 1e-4..1e-1"
            ) from None
        if not 0 < low <= high:
            raise argparse.ArgumentTypeError(
                f"BER range must satisfy 0 < low <= high, got {text!r}"
            )
        return tuple(float(b) for b in np.geomspace(low, high, num=points))
    try:
        bers = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"could not parse BER list {text!r}; expected e.g. 1e-4,1e-3"
        ) from None
    if not bers:
        raise argparse.ArgumentTypeError("at least one BER is required")
    return bers


def _cmd_faults(args) -> int:
    from repro.faults import DEFAULT_TARGETS, SweepConfig, write_faults_file

    targets = tuple(args.targets) if args.targets else DEFAULT_TARGETS
    config = SweepConfig(
        bers=_parse_ber_grid(args.ber, args.points),
        dim=args.dim,
        trials=args.trials,
        seed=args.seed,
        targets=targets,
    )
    path = write_faults_file(config, out_dir=args.out_dir, n_workers=args.workers)
    print(f"wrote {path}")
    return 0


def _cmd_chaos(args) -> int:
    from repro.resilience import write_resilience_file

    path = write_resilience_file(profile=args.profile, out_dir=args.out_dir)
    print(f"wrote {path}")
    return 0


def _cmd_stats(args) -> int:
    from repro.telemetry.stats import (
        StatsWorkload,
        measure_disabled_overhead,
        write_stats_file,
    )

    overhead = None
    if args.overhead_gate is not None:
        overhead = measure_disabled_overhead(repeats=args.overhead_repeats)
        print(
            f"disabled-telemetry overhead: {overhead['overhead_fraction']:+.2%} "
            f"(instrumented {overhead['instrumented_seconds']:.6f}s vs "
            f"baseline {overhead['baseline_seconds']:.6f}s, "
            f"best of {overhead['repeats']})"
        )
    path = write_stats_file(
        args.out, workload=StatsWorkload(seed=args.seed), overhead=overhead
    )
    print(f"wrote {path}")
    if overhead is not None and overhead["overhead_fraction"] > args.overhead_gate:
        print(
            f"FAIL: disabled-telemetry overhead {overhead['overhead_fraction']:.2%} "
            f"exceeds the {args.overhead_gate:.0%} gate",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serving import (
        InferenceService,
        MicrobatchConfig,
        ModelRegistry,
        ServingServer,
    )

    # Config validation runs before any model is loaded or trained, so a
    # bad knob combination fails in milliseconds, not after a fit.
    config = MicrobatchConfig(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue_depth=args.max_queue_depth,
        deadline_ms=args.deadline_ms,
        tenant_quota=args.tenant_quota,
        dispatch=args.dispatch,
    )
    if args.models and args.model:
        print("pass either --model (single) or --models (fleet), not both", file=sys.stderr)
        return 2
    if args.shards > 1:
        # Shard processes rebuild their registries from saved artifacts,
        # so sharded serving needs model *paths*, not an in-process fit.
        if not (args.models or args.model):
            print(
                "--shards > 1 needs saved artifacts: pass --model or --models",
                file=sys.stderr,
            )
            return 2
        return _serve_sharded(args, config)

    registry = None
    clf = None
    if args.models:
        registry = ModelRegistry(cache_budget_bytes=args.cache_budget_bytes)
        for tenant, path in args.models:
            record = registry.publish(tenant, load_classifier(path))
            print(
                f"published tenant {tenant!r} v{record.version} "
                f"({record.table_bytes} table bytes{'' if record.bound else ', unbound'})"
            )
    elif args.model:
        clf = load_classifier(args.model)
    else:
        data = _load_dataset(args)
        print(data.describe())
        clf = LookHDClassifier(
            LookHDConfig(
                dim=args.dim,
                levels=args.levels,
                chunk_size=args.chunk_size,
                seed=args.seed,
            )
        )
        clf.fit(data.train_features, data.train_labels)

    async def _run() -> None:
        scrubber = None
        if args.scrub_interval > 0:
            if registry is not None:
                from repro.resilience import FleetScrubber

                scrubber = FleetScrubber(registry)
            else:
                from repro.resilience import IntegrityGuard, Scrubber

                scrubber = Scrubber(IntegrityGuard(clf))
        if registry is not None:
            service = InferenceService(registry=registry, config=config)
        else:
            service = InferenceService(clf, config)
        server = ServingServer(
            service,
            host=args.host,
            port=args.port,
            scrubber=scrubber,
            scrub_interval=args.scrub_interval if scrubber is not None else 0.25,
            allow_partial_fit=args.partial_fit,
        )
        await server.start()
        # flush: the banner must reach a supervising process (pipe-buffered
        # stdout would otherwise hold it until the buffer fills).
        tenants = f", tenants: {', '.join(registry.tenants())}" if registry is not None else ""
        print(
            f"serving on {server.host}:{server.port} "
            f"(one JSON request per line; Ctrl-C or SIGTERM to drain and stop{tenants})",
            flush=True,
        )
        # Graceful shutdown: SIGTERM/SIGINT stop *accepting* and then drain
        # every admitted request before exit, so a supervisor's restart never
        # strands in-flight work.  Falls back to KeyboardInterrupt where the
        # loop has no signal-handler support.
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, shutdown.set)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await shutdown.wait()
            print("shutdown signal received; draining...", flush=True)
        finally:
            await server.stop()
            stats = server.service.request_stats()
            print(
                f"drained: {stats['completed']} completed, "
                f"{stats['dropped']} dropped",
                flush=True,
            )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _serve_sharded(args, config) -> int:
    """``repro serve --shards N``: acceptor + N supervised shard processes."""
    import asyncio
    import signal

    from repro.serving import InferenceService, ShardedServer

    models = list(args.models or [])
    if args.model:
        models = [(InferenceService.DEFAULT_TENANT, args.model)]

    async def _run() -> None:
        server = ShardedServer(
            models,
            n_shards=args.shards,
            config=config,
            host=args.host,
            port=args.port,
            allow_partial_fit=args.partial_fit,
            scrub_interval=args.scrub_interval,
        )
        await server.start()
        print(
            f"serving on {server.host}:{server.port} across {args.shards} shards "
            f"(pipelined JSON lines; tenants: {', '.join(server.tenants())}; "
            "Ctrl-C or SIGTERM to drain and stop)",
            flush=True,
        )
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, shutdown.set)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await shutdown.wait()
            print("shutdown signal received; draining...", flush=True)
        finally:
            await server.stop()
            stats = server.request_stats()
            print(
                f"drained: {stats['answered']} answered, "
                f"{stats['dropped']} dropped, {stats['respawns']} respawns",
                flush=True,
            )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _cmd_loadgen(args) -> int:
    import json

    from dataclasses import replace

    from repro.serving import LoadgenConfig, fleet_config, write_serving_file

    # Flag-combination validation up front (exit 2, argparse-style): the
    # open/closed split changes which knobs are meaningful, and a wrong
    # combination should fail before any model is trained.
    if args.open_loop and not args.rate:
        print("--open-loop needs at least one --rate R", file=sys.stderr)
        return 2
    if args.rate and not args.open_loop:
        print("--rate is an open-loop knob; pass --open-loop", file=sys.stderr)
        return 2
    if args.shards > 1 and not args.open_loop:
        print("--shards > 1 requires --open-loop (sharded runs are open-loop only)",
              file=sys.stderr)
        return 2
    if args.kill_shard and args.shards < 2:
        print("--kill-shard needs --shards >= 2", file=sys.stderr)
        return 2

    try:
        config = LoadgenConfig(
            n_requests=args.requests,
            concurrency=args.concurrency,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_queue_depth=args.max_queue_depth,
            dispatch=args.dispatch,
            n_tenants=args.tenants,
            scenario=args.scenario,
            tenant_quota=args.tenant_quota,
            cache_budget_bytes=args.cache_budget_bytes,
            mode="open" if args.open_loop else "closed",
            rates=tuple(args.rate or ()),
            n_shards=args.shards,
            kill_shard_under_load=args.kill_shard,
        )
        # --swap is checked against the fleet shape a fleet-* profile
        # gives a single-tenant config (which already swaps in process).
        if args.profile.startswith("fleet-"):
            config = fleet_config(args.profile, config)
        if args.swap:
            config = replace(config, swap_under_load=True)
    except ValueError as error:
        print(f"loadgen: {error}", file=sys.stderr)
        return 2
    path = write_serving_file(args.profile, out_dir=args.out_dir, config=config)
    payload = json.loads(path.read_text())
    results = payload["results"]
    print(f"wrote {path}")
    if args.open_loop:
        for block in results["open_loop"]["rates"]:
            latency = block["latency_seconds"]
            print(
                f"rate {block['rate']:,.0f} rps: achieved {block['achieved_rps']:,.0f} rps, "
                f"p50 {latency['p50'] * 1e3:.2f} ms, p99 {latency['p99'] * 1e3:.2f} ms, "
                f"p99.9 {latency['p999'] * 1e3:.2f} ms "
                f"(max send lag {block['max_lag_seconds'] * 1e3:.2f} ms)"
            )
        if args.shards > 1:
            sharding = results["sharding"]
            chaos = sharding["chaos"]
            killed = (
                f"chaos: killed shard {chaos['shard']}, availability "
                f"{chaos['availability']:.3f}, "
                f"{sharding['acceptor']['retried']} replayed"
                if chaos["performed"]
                else "no chaos kill"
            )
            print(
                f"{payload['service']['n_shards']} shards: outputs match "
                f"single-process {payload['checks']['shard_outputs_match']}, "
                f"{sharding['acceptor']['respawns']} respawns, {killed}"
            )
    else:
        timeline = results["timeline"]
        print(
            f"microbatched {timeline['steady_rps']:,.0f} rps steady "
            f"({results['throughput_rps']:,.0f} rps overall, warmup "
            f"{timeline['warmup_buckets']} of {len(timeline['buckets_rps'])} "
            f"buckets excluded) vs sequential "
            f"{results['sequential_rps']:,.0f} rps "
            f"({results['speedup_vs_sequential']:.2f}x), "
            f"{results['batches']['count']} batches, "
            f"{results['requests']['dropped']} dropped"
        )
    if payload["workload"]["n_tenants"] > 1:
        swap = results["swap"]
        swapped = (
            f"hot-swapped {swap['tenant']} v{swap['version_before']}→"
            f"v{swap['version_after']} at availability {swap['availability']:.3f}"
            if swap["performed"]
            else "no swap"
        )
        print(
            f"fleet: {payload['workload']['n_tenants']} tenants "
            f"({payload['workload']['scenario']}), "
            f"per-tenant bit-identity "
            f"{payload['checks']['per_tenant_bit_identity']}, {swapped}"
        )
    return 0


def _cmd_stream(args) -> int:
    import json

    from repro.streaming import STREAM_PROFILES, write_streaming_file
    from repro.streaming.bench import override_config

    config = override_config(
        STREAM_PROFILES[args.profile],
        n_batches=args.batches,
        batch_size=args.batch_size,
        decay=args.decay,
        sketch_capacity=args.sketch_capacity,
    )
    path = write_streaming_file(args.profile, out_dir=args.out_dir, config=config)
    payload = json.loads(path.read_text())
    abrupt = payload["modes"]["abrupt"]
    serving = payload["serving"]
    print(f"wrote {path}")
    print(
        f"abrupt drift: streaming tail accuracy "
        f"{abrupt['streaming_tail_accuracy']:.3f} vs full-pass oracle "
        f"{abrupt['oracle_tail_accuracy']:.3f} (gap {abrupt['recovery_gap']:+.4f})"
    )
    print(
        f"boundary divergence {abrupt['boundary_divergence']:.4f} "
        f"<= sketch bound {abrupt['divergence_bound']:.4f}; "
        f"serving: {serving['updates']} live updates, "
        f"{serving['predicts']} interleaved predicts, "
        f"{serving['dropped']} dropped"
    )
    return 0


def _cmd_list(args) -> int:
    print("applications:", ", ".join(application_names()))
    print("experiments: ", ", ".join(_EXPERIMENTS))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        p.add_argument("--application", default="activity", choices=application_names())
        p.add_argument("--data", help="path to a .npz or .csv dataset (overrides --application)")
        p.add_argument("--train-limit", type=int, default=None)

    train = sub.add_parser("train", help="train a LookHD classifier")
    add_data_args(train)
    train.add_argument("--dim", type=int, default=2_000)
    train.add_argument("--levels", type=int, default=4)
    train.add_argument("--chunk-size", type=int, default=5)
    train.add_argument("--retrain", type=int, default=5)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--no-compress", action="store_true")
    train.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="train with the sharded multi-process trainer (bit-identical "
        "to sequential; >1 needs spare cores to pay off)",
    )
    train.add_argument("--out", help="save the trained model to this .npz path")
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("evaluate", help="evaluate a saved model")
    evaluate.add_argument("--model", required=True)
    add_data_args(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    experiment = sub.add_parser("experiment", help="run paper experiments")
    experiment.add_argument("names", nargs="+", metavar="NAME")
    experiment.set_defaults(func=_cmd_experiment)

    faults = sub.add_parser(
        "faults",
        help="sweep bit-error rates through the deployed memories, write BENCH_faults.json",
    )
    faults.add_argument(
        "--ber",
        default="1e-4..1e-1",
        help="BER grid: 'low..high' (log-spaced --points) or a comma list",
    )
    faults.add_argument(
        "--points", type=_positive_int, default=7, help="points in a low..high BER range"
    )
    faults.add_argument(
        "--trials", type=_positive_int, default=3, help="independent fault seeds per BER"
    )
    faults.add_argument("--dim", type=_positive_int, default=512)
    faults.add_argument("--seed", type=int, default=7)
    faults.add_argument(
        "--targets",
        nargs="+",
        metavar="TARGET",
        help="memories to fault (default: all deployed BRAMs)",
    )
    faults.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="run fault trials across this many processes (results are "
        "byte-identical to the sequential sweep for any worker count)",
    )
    faults.add_argument("--out-dir", default=".", help="directory for BENCH_faults.json")
    faults.set_defaults(func=_cmd_faults)

    chaos = sub.add_parser(
        "chaos",
        help="inject live faults mid-traffic, gate detection/repair, "
        "write BENCH_resilience.json",
    )
    chaos.add_argument(
        "--profile",
        default="full",
        choices=["full", "smoke"],
        help="'full' is the resilience gate, 'smoke' a CI-sized run",
    )
    chaos.add_argument(
        "--out-dir", default=".", help="directory for BENCH_resilience.json"
    )
    chaos.set_defaults(func=_cmd_chaos)

    stats = sub.add_parser(
        "stats",
        help="run an instrumented workload and write a telemetry snapshot",
    )
    stats.add_argument(
        "--out", default="STATS.json", help="path for the snapshot JSON report"
    )
    stats.add_argument("--seed", type=int, default=11)
    stats.add_argument(
        "--overhead-gate",
        type=float,
        default=None,
        metavar="FRACTION",
        help="also measure disabled-telemetry overhead on a small predict "
        "micro-workload and exit non-zero if it exceeds this fraction (e.g. 0.05)",
    )
    stats.add_argument(
        "--overhead-repeats",
        type=_positive_int,
        default=7,
        help="timing repeats for the overhead measurement (best-of)",
    )
    stats.set_defaults(func=_cmd_stats)

    def add_microbatch_args(p):
        p.add_argument(
            "--max-batch", type=_positive_int, default=64, help="flush at this many queued requests"
        )
        p.add_argument(
            "--max-wait-ms",
            type=_positive_float,
            default=2.0,
            help="flush when the oldest request has waited this long",
        )
        p.add_argument(
            "--max-queue-depth",
            type=_positive_int,
            default=1_024,
            help="admission bound; beyond this, requests are rejected as overloaded",
        )
        p.add_argument(
            "--tenant-quota",
            type=_positive_int,
            default=None,
            help="per-tenant admission bound (fleet fairness); default: none",
        )
        p.add_argument(
            "--cache-budget-bytes",
            type=_positive_int,
            default=None,
            help="LRU byte budget for cached per-tenant table sets (fleet mode); "
            "default: unlimited",
        )
        p.add_argument(
            "--dispatch",
            default="inline",
            choices=["inline", "thread"],
            help="run batch predict on the event loop (inline, fastest) or a worker thread",
        )

    serve = sub.add_parser(
        "serve",
        help="serve a model over newline-delimited JSON TCP with microbatching",
    )
    serve.add_argument("--model", help="saved .npz model (otherwise train on --application)")
    serve.add_argument(
        "--models",
        nargs="+",
        type=_tenant_model,
        metavar="NAME=PATH",
        help="fleet mode: serve several saved models keyed by tenant name "
        "(requests route with a 'tenant' field; publish/list/evict ops enabled)",
    )
    add_data_args(serve)
    serve.add_argument("--dim", type=int, default=2_000)
    serve.add_argument("--levels", type=int, default=4)
    serve.add_argument("--chunk-size", type=int, default=5)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8752, help="0 binds an ephemeral port")
    serve.add_argument(
        "--deadline-ms",
        type=_positive_float,
        default=None,
        help="default per-request deadline; expired requests fail typed, pre-model",
    )
    serve.add_argument(
        "--scrub-interval",
        type=_nonnegative_float,
        default=0.25,
        help="seconds between idle integrity-scrub ticks (0 disables scrubbing)",
    )
    serve.add_argument(
        "--partial-fit",
        action="store_true",
        help="enable the partial_fit op: labelled batches over the wire "
        "update the served model live (requires an online-capable model)",
    )
    serve.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help=">1 runs the horizontally sharded server: one acceptor fanning "
        "to N shard processes with tenant affinity and supervised respawn "
        "(requires saved artifacts via --model/--models)",
    )
    add_microbatch_args(serve)
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="measure microbatched vs sequential serving, write BENCH_serving.json",
    )
    loadgen.add_argument(
        "--profile",
        default="full",
        choices=["full", "smoke", "fleet-full", "fleet-smoke"],
        help="workload: 'full' is the serving perf gate, 'smoke' a CI-sized run; "
        "'fleet-*' run the multi-tenant bench (registry, mixed scenarios, "
        "hot-swap under load)",
    )
    loadgen.add_argument(
        "--requests", type=_positive_int, default=2_000, help="total requests to issue"
    )
    loadgen.add_argument(
        "--concurrency", type=_positive_int, default=64, help="closed-loop workers"
    )
    loadgen.add_argument(
        "--tenants",
        type=_positive_int,
        default=1,
        help="serve this many independently-trained tenants through one "
        "registry (>1 switches to the fleet bench)",
    )
    loadgen.add_argument(
        "--scenario",
        default="uniform",
        # mirrors repro.serving.loadgen.SCENARIOS (kept literal: build_parser
        # must not import the serving stack)
        choices=["uniform", "heavy_tailed", "bursty", "mixed"],
        help="tenant-mix shape for fleet runs",
    )
    loadgen.add_argument(
        "--swap",
        action="store_true",
        help="hot-swap one tenant's model mid-run (in-process fleet runs, "
        "closed or open loop; fleet-* profiles already do; the "
        "availability-1.0 gate covers the swap)",
    )
    loadgen.add_argument(
        "--open-loop",
        action="store_true",
        help="replay a seeded arrival schedule and measure latency from the "
        "*intended* arrival time (coordinated-omission-safe); requires --rate. "
        "Without it, a closed loop of --concurrency workers",
    )
    loadgen.add_argument(
        "--rate",
        action="append",
        type=_positive_float,
        metavar="RPS",
        help="open-loop offered rate in requests/s; repeat for a rate sweep",
    )
    loadgen.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help=">1 drives the sharded server instead of the in-process service "
        "(open-loop only)",
    )
    loadgen.add_argument(
        "--kill-shard",
        action="store_true",
        help="chaos: SIGKILL one shard mid-run and gate on zero dropped "
        "requests after supervised respawn (requires --shards >= 2)",
    )
    loadgen.add_argument("--out-dir", default=".", help="directory for BENCH_serving.json")
    add_microbatch_args(loadgen)
    loadgen.set_defaults(func=_cmd_loadgen)

    stream = sub.add_parser(
        "stream",
        help="drift-recovery bench: streaming quantizer + decayed online "
        "learner vs a full-pass oracle; writes BENCH_streaming.json",
    )
    stream.add_argument(
        "--profile",
        default="full",
        choices=["full", "smoke"],
        help="'full' is the drift-recovery gate, 'smoke' a CI-sized run",
    )
    stream.add_argument(
        "--batches", type=_positive_int, default=None, help="override stream length"
    )
    stream.add_argument(
        "--batch-size", type=_positive_int, default=None, help="override samples per batch"
    )
    stream.add_argument(
        "--decay",
        type=_decay_float,
        default=None,
        help="per-sample forgetting factor in (0, 1]; 1 keeps all history",
    )
    stream.add_argument(
        "--sketch-capacity",
        type=_positive_int,
        default=None,
        help="quantile-sketch compactor capacity (rank error shrinks as 1/k)",
    )
    stream.add_argument("--out-dir", default=".", help="directory for BENCH_streaming.json")
    stream.set_defaults(func=_cmd_stream)

    lister = sub.add_parser("list", help="list applications and experiments")
    lister.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
