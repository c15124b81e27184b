"""The benchmark's definition, read from ``BENCHMARK.json`` at the checkout root.

``BENCHMARK.json`` is the single source of the workloads, the metrics,
their units and bounds; this module only turns it into lookups.
"""

from __future__ import annotations

import json

from common import ROOT

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

RUN_SECONDS = _SPEC["run_seconds"]
#: name -> why
WORKLOADS = {entry["name"]: entry["why"] for entry in _SPEC["workloads"]}
#: name -> (unit, better, bound)
E2E_METRICS = {
    entry["name"]: (entry["unit"], entry["better"], entry["bound"]) for entry in _SPEC["end_to_end"]
}
#: name -> (unit, better)
LAYER_METRICS = {entry["name"]: (entry["unit"], entry["better"]) for entry in _SPEC["per_layer"]}
