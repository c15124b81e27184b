"""Compare two benchmark result files, metric by metric.

    python3 perfbench/compare.py OLD.json NEW.json

Result files come from ``perfbench/run.py --out`` (one run, or many with
``--all --runs N``); several files of one side can be merged first by
passing them comma-separated, ``OLD1.json,OLD2.json``.  For every
(workload, end-to-end metric) the untraced runs of each side give a
median and quartiles, and the verdict applies the benchmark's own bound:

* ``worse``: the new median is worse than the old by more than the bound;
* ``improved``: the new median is better by more than the old runs'
  quartile spread, and the new side wins at least nine in ten of all
  (old, new) pairs;
* ``unresolved``: either side's quartile spread exceeds the bound and
  the runs do not separate completely;
* ``unchanged``: otherwise.

The environment stamps of both sides are printed, and differences in
them are flagged: a comparison across hosts or versions compares nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import median, quantile
from spec import E2E_METRICS

STAMP_KEYS = ("nproc", "python", "numpy", "kernel_mode", "kernel_backends")


def load_runs(spec: str) -> list[dict]:
    runs = []
    for path in spec.split(","):
        runs.extend(json.loads(Path(path).read_text())["runs"])
    return [run for run in runs if not run["trace"]]


def verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    """The comparison rule described in the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    old_median, new_median = median(old), median(new)
    worse_by = sign * (new_median - old_median) / abs(old_median)
    spread_old = (quantile(old, 0.75) - quantile(old, 0.25)) / abs(old_median)
    spread_new = (quantile(new, 0.75) - quantile(new, 0.25)) / abs(new_median)
    pairs = [(o, n) for o in old for n in new]
    new_wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    new_losses = sum(1 for o, n in pairs if sign * (n - o) > 0)
    separated = new_wins == len(pairs) or new_losses == len(pairs)
    if max(spread_old, spread_new) > bound and not separated:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread_old and new_wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def compare(old_runs: list[dict], new_runs: list[dict]) -> list[dict]:
    rows = []
    workloads = sorted({run["workload"] for run in old_runs} & {run["workload"] for run in new_runs})
    for workload in workloads:
        old = [run for run in old_runs if run["workload"] == workload]
        new = [run for run in new_runs if run["workload"] == workload]
        for name, (unit, better, bound) in E2E_METRICS.items():
            old_values = [run["e2e"][name] for run in old]
            new_values = [run["e2e"][name] for run in new]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": unit,
                    "old": [quantile(old_values, q) for q in (0.25, 0.5, 0.75)],
                    "new": [quantile(new_values, q) for q in (0.25, 0.5, 0.75)],
                    "runs": (len(old_values), len(new_values)),
                    "verdict": verdict(old_values, new_values, better, bound),
                }
            )
    return rows


def _stamp(runs: list[dict]) -> dict:
    return {key: runs[0]["env"].get(key) for key in STAMP_KEYS} if runs else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="result file(s) of the baseline, comma-separated")
    parser.add_argument("new", help="result file(s) of the change, comma-separated")
    args = parser.parse_args(argv)
    old_runs, new_runs = load_runs(args.old), load_runs(args.new)
    if not old_runs or not new_runs:
        print("compare: both sides need at least one untraced run", file=sys.stderr)
        return 2
    old_stamp, new_stamp = _stamp(old_runs), _stamp(new_runs)
    print(f"old env: {json.dumps(old_stamp)}")
    print(f"new env: {json.dumps(new_stamp)}")
    for key in STAMP_KEYS:
        if old_stamp.get(key) != new_stamp.get(key):
            print(f"WARNING: environments differ in {key}")
    print(
        f"{'workload':15s} {'metric':17s} {'unit':5s} {'old median [q1, q3]':>34s} "
        f"{'new median [q1, q3]':>34s}  runs   verdict"
    )
    for row in compare(old_runs, new_runs):
        o, n = row["old"], row["new"]
        print(
            f"{row['workload']:15s} {row['metric']:17s} {row['unit']:5s} "
            f"{o[1]:12.4f} [{o[0]:9.4f}, {o[2]:9.4f}] {n[1]:12.4f} [{n[0]:9.4f}, {n[2]:9.4f}]"
            f"  {row['runs'][0]}/{row['runs'][1]}  {row['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
