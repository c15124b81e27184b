"""The benchmark's own tests.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
Each workload runs at the tiny geometry for a couple of seconds.
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import compare
import run
import spec
from common import ROOT
from openloop import OK, poisson_offsets, saturate, saturation_phase

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_within_contract():
    LAYER_METRICS = spec.LAYER_METRICS
    bounds = {name: bound for name, (_, _, bound) in spec.E2E_METRICS.items()}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert all(len(why) <= 200 and "\n" not in why for why in spec.WORKLOADS.values())
    names = [*spec.WORKLOADS, *spec.E2E_METRICS, *LAYER_METRICS]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    units = [unit for unit, *_ in (*spec.E2E_METRICS.values(), *LAYER_METRICS.values())]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) for unit in units)


@pytest.mark.parametrize("workload", [*spec.WORKLOADS, "fleet_sharded"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    completed = subprocess.run(
        [*RUN, "--workload", workload, "--seed", "3", "--seconds", "2",
         "--trace", str(trace), "--geometry", "tiny"],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    line = _last_line(completed.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    expected = (
        {name: unit for name, (unit, _) in spec.LAYER_METRICS.items()}
        if trace
        else {name: unit for name, (unit, _, _) in spec.E2E_METRICS.items()}
    )
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_corrupted_oracle_fails_the_gate():
    def corrupt(expected):
        flipped = expected.copy()
        flipped[0] = flipped[0] + 1
        return flipped

    record = run.run_one("predict_inproc", 5, 1.0, False, "tiny", oracle_hook=corrupt)
    assert record["correct"] is False
    assert any("differ from the oracle" in problem for problem in record["problems"])
    line = run.result_line(record)
    assert line["correct"] is False


def test_same_seed_same_schedule():
    a = poisson_offsets(np.random.default_rng(7), 1000.0, 2.0)
    b = poisson_offsets(np.random.default_rng(7), 1000.0, 2.0)
    assert np.array_equal(a, b)
    assert 1700 < len(a) < 2300 and a[-1] < 2.0


def test_saturation_rate_follows_littles_law():
    """A target answering each request after 5 ms, held at 10 in flight,
    completes at most 10 / 5 ms = 2000 requests per second."""

    class Delayed:
        def __init__(self):
            self.tasks = set()

        def fire(self, phase, i, then=None):
            async def one():
                await asyncio.sleep(0.005)
                phase.finish(i, OK, time.perf_counter(), 0)
                then()

            task = asyncio.get_running_loop().create_task(one())
            self.tasks.add(task)
            task.add_done_callback(self.tasks.discard)

        async def drain(self):
            if self.tasks:
                await asyncio.wait(list(self.tasks))

    phase = saturation_phase("s", window=10, duration=0.5, max_rps=10000)
    asyncio.run(saturate(phase, Delayed()))
    assert phase.clean() and phase.n > 500
    assert 1200 < phase.completion_rate() <= 2050
    assert phase.meets_limit()


def test_refuses_to_run_without_the_source_tree(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predict_inproc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def _runs(workload: str, values: dict) -> list[dict]:
    count = len(next(iter(values.values())))
    return [
        {"workload": workload, "trace": 0, "env": {},
         "e2e": {name: series[k] for name, series in values.items()}}
        for k in range(count)
    ]


def test_compare_verdicts():
    base = {name: [10.0, 10.1, 9.9, 10.0, 10.05] for name in spec.E2E_METRICS}
    slower = dict(base, setup_s=[14.0, 14.1, 13.9, 14.0, 14.05])
    faster = dict(base, setup_s=[8.0, 8.1, 7.9, 8.0, 8.05])
    noisy = dict(base, setup_s=[5.0, 15.0, 9.0, 11.0, 20.0])
    old = _runs("w", base)
    verdicts = lambda new: {r["metric"]: r["verdict"] for r in compare.compare(old, _runs("w", new))}
    assert verdicts(base)["setup_s"] == "unchanged"
    assert verdicts(slower)["setup_s"] == "worse"
    assert verdicts(faster)["setup_s"] == "improved"
    assert verdicts(noisy)["setup_s"] == "unresolved"
    # Higher-is-better metrics flip the sign.
    more = dict(base, batch_rows_per_s=[14.0, 14.1, 13.9, 14.0, 14.05])
    assert verdicts(more)["batch_rows_per_s"] == "improved"
