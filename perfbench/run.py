"""Run the LookHD benchmark: one workload, or every workload.

One run (the form the benchmark contract uses)::

    python3 perfbench/run.py --workload predict_inproc --seed 1 --seconds 15 --trace 0

prints each metric with its unit and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  It exits 1
when an output or the request accounting is wrong, 2 when it cannot run.

Every workload, untraced and traced, with a summary and the tracing
overhead::

    python3 perfbench/run.py --all --runs 3 --seed 1 --out results.json

``--out`` writes a result file (environment stamp plus every run's
metrics and details) that ``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import ROOT, BenchError, import_repro, median, quantile

RUN_TIMEOUT_S = 180


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (see BENCHMARK.json)")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload with --all")
    parser.add_argument("--geometry", default="paper", choices=("paper", "tiny"))
    parser.add_argument("--out", type=Path, help="write a result file here")
    args = parser.parse_args(argv)
    if bool(args.workload) == bool(args.all):
        parser.error("pass exactly one of --workload NAME or --all")
    if args.seconds is not None and not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    return args


def run_one(workload: str, seed: int, seconds: float, trace: bool, geometry: str,
            oracle_hook=None) -> dict:
    """Run one workload in this process and return its run record."""
    import workloads
    from common import environment_stamp
    from tracing import Tracer

    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; known: {sorted(workloads.WORKLOADS)}")
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    tracer = Tracer().install() if trace else None
    ctx = workloads.Context(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        geometry=workloads.GEOMETRIES[geometry], workdir=workdir, tracer=tracer,
        oracle_hook=oracle_hook,
    )
    try:
        outcome = asyncio.run(workloads.WORKLOADS[workload](ctx))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no other run is using it
        except OSError:
            pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "geometry": geometry,
        "correct": outcome.correct,
        "problems": outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "e2e": outcome.e2e,
        "layers": outcome.layers,
        "detail": outcome.detail,
        "env": environment_stamp(),
    }


def result_line(record: dict) -> dict:
    """The contract's last line for one run record."""
    from spec import E2E_METRICS, LAYER_METRICS

    if record["trace"]:
        chosen = {name: (LAYER_METRICS[name][0], record["layers"].get(name)) for name in LAYER_METRICS}
    else:
        chosen = {name: (E2E_METRICS[name][0], record["e2e"].get(name)) for name in E2E_METRICS}
    metrics = {}
    for name, (unit, value) in chosen.items():
        if value is None or not math.isfinite(value):
            raise BenchError(f"metric {name} was not measured ({value!r})")
        metrics[name] = {"value": float(value), "unit": unit}
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }


def _print_metrics(line: dict) -> None:
    for name, metric in line["metrics"].items():
        print(f"{name:45s} {metric['value']:14.4f} {metric['unit']}")


def _single(args) -> int:
    from spec import RUN_SECONDS

    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    record = run_one(args.workload, args.seed, seconds, bool(args.trace), args.geometry)
    line = result_line(record)
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(
        f"{record['workload']}: sent {record['attempted']}, failed {record['failed']}, "
        f"correct {record['correct']}"
    )
    fixed = record["detail"].get("fixed")
    if fixed:
        latency = fixed["latency_ms"]
        tail = (
            f" p{latency['tail_pct']:g}={latency['tail']:.3f} ms"
            if latency["tail_pct"] != 99.0
            else ""
        )
        print(
            f"fixed phase {fixed['offered_rps']:.0f} rps, whole phase: n={latency['n']} "
            f"p50={latency['p50']:.3f} ms p99={fixed['p99_ms']:.3f} ms{tail}; "
            f"generator lag max {fixed['lag_ms']['max']:.2f} ms"
        )
    _print_metrics(line)
    from spec import E2E_METRICS

    for name, value in record["e2e"].items():
        if name not in E2E_METRICS:
            print(f"{name:45s} {value:14.4f} (not in BENCHMARK.json, see perfbench/README.md)")
    if args.out is not None:
        args.out.write_text(json.dumps({"runs": [record]}, indent=1, default=float))
    print(json.dumps(line), flush=True)
    return 0 if record["correct"] else 1


def _child(workload, seed, seconds, trace, geometry) -> dict:
    """Run one workload in a fresh process (peak memory is per process)."""
    with tempfile.NamedTemporaryFile(
        dir=ROOT / ".perfbench", suffix=".json", delete=False
    ) as handle:
        out = Path(handle.name)
    try:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--geometry", geometry, "--out", str(out),
        ]
        completed = subprocess.run(
            argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT
        )
        if completed.returncode not in (0, 1) or not out.stat().st_size:
            raise BenchError(
                f"{workload} seed {seed} exited {completed.returncode}: "
                f"{completed.stderr.strip()[-2000:]}"
            )
        return json.loads(out.read_text())["runs"][0]
    finally:
        out.unlink(missing_ok=True)


def _all(args) -> int:
    from spec import E2E_METRICS, RUN_SECONDS, WORKLOADS

    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    runs = []
    ok = True
    for workload in WORKLOADS:
        for k in range(args.runs):
            began = time.perf_counter()
            record = _child(workload, args.seed + k, seconds, False, args.geometry)
            runs.append(record)
            ok &= record["correct"]
            print(
                f"{workload} seed {args.seed + k}: correct {record['correct']} "
                f"({time.perf_counter() - began:.0f} s)",
                flush=True,
            )
        traced = _child(workload, args.seed, seconds, True, args.geometry)
        runs.append(traced)
        ok &= traced["correct"]
    print()
    print(f"{'workload':16s} {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s}  unit")
    for workload in WORKLOADS:
        plain = [r for r in runs if r["workload"] == workload and not r["trace"]]
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        for name, (unit, _, _) in E2E_METRICS.items():
            values = [r["e2e"][name] for r in plain]
            print(
                f"{workload:16s} {name:18s} {median(values):12.4f} "
                f"{quantile(values, 0.25):12.4f} {quantile(values, 0.75):12.4f}  {unit}"
            )
        for name in ("p50_ms", "batch_rows_per_s"):
            base = median([r["e2e"][name] for r in plain])
            print(
                f"{workload:16s} tracing overhead on {name}: "
                f"{traced[0]['e2e'][name] / base - 1:+.1%} (traced vs untraced median)"
            )
        for record in plain + traced:
            for problem in record["problems"]:
                print(f"CHECK FAILED {workload} seed {record['seed']}: {problem}")
    if args.out is not None:
        args.out.write_text(json.dumps({"runs": runs}, indent=1, default=float))
        print(f"wrote {args.out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import_repro()
        return _all(args) if args.all else _single(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    os.environ.setdefault("PYTHONHASHSEED", "0")
    sys.exit(main())
