"""Load generator + BENCH_serving schema: payload validity and its gates."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.serving import (
    DEFAULT_SERVING_WORKLOADS,
    SCENARIOS,
    LoadgenConfig,
    SERVING_SCHEMA_VERSION,
    fleet_config,
    run_loadgen,
    validate_serving_payload,
    write_serving_file,
)
from repro.serving.loadgen import _tenant_schedule


@pytest.fixture(scope="module")
def smoke_payload():
    return run_loadgen(
        DEFAULT_SERVING_WORKLOADS["smoke"],
        LoadgenConfig(n_requests=240, concurrency=16, max_batch=16),
    )


def test_loadgen_payload_is_schema_valid(smoke_payload):
    assert validate_serving_payload(smoke_payload) is smoke_payload
    assert smoke_payload["schema_version"] == SERVING_SCHEMA_VERSION


def test_loadgen_checks_hold(smoke_payload):
    assert smoke_payload["checks"]["predictions_match_single"] is True
    assert smoke_payload["checks"]["zero_dropped"] is True
    requests = smoke_payload["results"]["requests"]
    assert requests["sent"] == 240
    assert requests["completed"] == 240
    assert requests["dropped"] == 0


def test_loadgen_embeds_serving_telemetry(smoke_payload):
    histograms = smoke_payload["telemetry"]["histograms"]
    assert histograms["serving.latency_seconds"]["count"] == 240
    assert (
        sum(smoke_payload["results"]["flush_reasons"].values())
        == smoke_payload["results"]["batches"]["count"]
    )


def test_write_serving_file(tmp_path):
    path = write_serving_file(
        "smoke",
        out_dir=tmp_path,
        config=LoadgenConfig(n_requests=64, concurrency=8, max_batch=8),
    )
    assert path.name == "BENCH_serving.json"
    validate_serving_payload(json.loads(path.read_text()))


def test_write_serving_file_rejects_unknown_profile(tmp_path):
    with pytest.raises(ValueError, match="unknown serving profile"):
        write_serving_file("nope", out_dir=tmp_path)


def test_loadgen_config_validation():
    with pytest.raises(ValueError, match="n_requests"):
        LoadgenConfig(n_requests=0)
    with pytest.raises(ValueError, match="concurrency"):
        LoadgenConfig(concurrency=-1)
    with pytest.raises(ValueError, match="dispatch"):
        LoadgenConfig(dispatch="fork").microbatch()


@pytest.mark.parametrize(
    ("mutate", "message"),
    [
        (lambda p: p.__setitem__("schema_version", 99), "schema_version"),
        (lambda p: p["workload"].__setitem__("dim", "big"), "workload.dim"),
        (
            lambda p: p["checks"].__setitem__("predictions_match_single", False),
            "diverged",
        ),
        (lambda p: p["checks"].__setitem__("zero_dropped", False), "dropped"),
        (
            lambda p: p["results"]["requests"].__setitem__("dropped", 3),
            "dropped",
        ),
        (
            lambda p: p["results"]["flush_reasons"].__setitem__("max_wait", 999),
            "flush_reasons",
        ),
        (
            lambda p: p["results"]["latency_seconds"].__setitem__("p50", 1e9),
            "percentiles",
        ),
        (lambda p: p.__delitem__("telemetry"), "telemetry"),
    ],
)
def test_schema_rejects_corrupted_payloads(smoke_payload, mutate, message):
    corrupted = copy.deepcopy(smoke_payload)
    mutate(corrupted)
    with pytest.raises(ValueError, match=message):
        validate_serving_payload(corrupted)


# -- fleet (multi-tenant) runs -------------------------------------------------


@pytest.fixture(scope="module")
def fleet_payload():
    return run_loadgen(
        DEFAULT_SERVING_WORKLOADS["smoke"],
        LoadgenConfig(
            n_requests=240,
            concurrency=16,
            max_batch=16,
            n_tenants=3,
            scenario="mixed",
            tenant_quota=512,
            swap_under_load=True,
        ),
    )


def test_fleet_payload_is_schema_valid(fleet_payload):
    assert validate_serving_payload(fleet_payload) is fleet_payload
    assert fleet_payload["workload"]["n_tenants"] == 3
    assert fleet_payload["workload"]["scenario"] == "mixed"


def test_fleet_gates_hold(fleet_payload):
    checks = fleet_payload["checks"]
    assert checks["predictions_match_single"] is True
    assert checks["zero_dropped"] is True
    assert checks["per_tenant_bit_identity"] is True
    assert checks["swap_zero_downtime"] is True
    tenants = fleet_payload["results"]["fleet"]["tenants"]
    assert len(tenants) == 3
    assert sum(t["sent"] for t in tenants.values()) == 240
    for stats in tenants.values():
        assert stats["dropped"] == 0
        assert stats["match_single"] is True


def test_fleet_swap_performed_with_full_availability(fleet_payload):
    swap = fleet_payload["results"]["swap"]
    assert swap["performed"] is True
    assert swap["version_after"] == swap["version_before"] + 1
    assert swap["availability"] == 1.0
    registry = fleet_payload["results"]["fleet"]["registry"]
    # 3 initial publishes + the hot-swap.
    assert registry["publishes"] == 4
    assert registry["tenants"][swap["tenant"]]["version"] == swap["version_after"]


@pytest.mark.parametrize(
    ("mutate", "message"),
    [
        (lambda p: p["results"].__delitem__("fleet"), "results.fleet"),
        (
            lambda p: next(iter(p["results"]["fleet"]["tenants"].values())).__setitem__(
                "dropped", 1
            ),
            "dropped admitted requests",
        ),
        (
            lambda p: next(iter(p["results"]["fleet"]["tenants"].values())).__setitem__(
                "match_single", False
            ),
            "diverged",
        ),
        (
            lambda p: p["checks"].__setitem__("per_tenant_bit_identity", False),
            "per_tenant_bit_identity",
        ),
        (lambda p: p["results"]["swap"].__setitem__("availability", 0.99), "1.0"),
        (
            lambda p: p["results"]["swap"].__setitem__("version_after", 9),
            "exactly 1",
        ),
        (
            lambda p: p["results"]["fleet"]["tenants"].pop(
                sorted(p["results"]["fleet"]["tenants"])[0]
            ),
            "all 3 tenants",
        ),
    ],
)
def test_schema_rejects_corrupted_fleet_payloads(fleet_payload, mutate, message):
    corrupted = copy.deepcopy(fleet_payload)
    mutate(corrupted)
    with pytest.raises(ValueError, match=message):
        validate_serving_payload(corrupted)


def test_fleet_loadgen_config_validation():
    with pytest.raises(ValueError, match="n_tenants"):
        LoadgenConfig(n_tenants=0)
    with pytest.raises(ValueError, match="scenario"):
        LoadgenConfig(scenario="tsunami")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_tenant_schedule_is_deterministic_and_covers(scenario):
    first = _tenant_schedule(300, 3, scenario, seed=7)
    second = _tenant_schedule(300, 3, scenario, seed=7)
    np.testing.assert_array_equal(first, second)
    assert first.shape == (300,)
    assert first.min() >= 0 and first.max() <= 2
    assert len(np.unique(first)) == 3  # every tenant sees traffic


def test_heavy_tailed_schedule_skews_to_first_tenant():
    schedule = _tenant_schedule(2_000, 4, "heavy_tailed", seed=7)
    counts = np.bincount(schedule, minlength=4)
    assert counts[0] > counts[1] > counts[3]


def test_fleet_config_defaults_and_passthrough():
    smoke = fleet_config("fleet-smoke")
    assert smoke.n_tenants == 3
    assert smoke.scenario == "mixed"
    assert smoke.swap_under_load is True
    assert smoke.tenant_quota == smoke.max_queue_depth // 2
    assert fleet_config("fleet-full").n_requests > smoke.n_requests
    # An explicit fleet config is passed through untouched.
    explicit = LoadgenConfig(n_tenants=5, scenario="bursty")
    assert fleet_config("fleet-smoke", explicit) is explicit
    # A single-tenant config gets the fleet shape but keeps its knobs.
    upgraded = fleet_config("fleet-smoke", LoadgenConfig(n_requests=90, max_batch=8))
    assert upgraded.n_requests == 90
    assert upgraded.max_batch == 8
    assert upgraded.n_tenants == 3


class TestThroughputTimeline:
    """Warmup-excluded steady throughput: the anti-ramp-skew regression."""

    def test_slow_start_trace_excluded_from_headline(self):
        from repro.serving import throughput_timeline

        # Synthetic slow-start: 2 completions limp through the warmup
        # bucket (cold tables, task spin-up), 900 land evenly afterwards.
        # The naive n/elapsed figure (451 rps) under-reports the 500 rps
        # the service actually sustains once warm.
        offsets = np.concatenate(
            [np.asarray([0.05, 0.15]), np.linspace(0.2, 2.0, 900)]
        )
        timeline = throughput_timeline(offsets, elapsed=2.0)
        assert timeline["overall_rps"] == pytest.approx(451.0)
        assert timeline["steady_rps"] == pytest.approx(500.0)
        assert timeline["steady_rps"] > timeline["overall_rps"]
        assert timeline["warmup_buckets"] == 1
        assert len(timeline["buckets_rps"]) == 10
        assert timeline["bucket_seconds"] == pytest.approx(0.2)
        # The raw series keeps the ramp visible: the warmup bucket is the
        # slowest one in the trace.
        assert timeline["buckets_rps"][0] == min(timeline["buckets_rps"])

    def test_degenerate_run_falls_back_to_overall(self):
        from repro.serving import throughput_timeline

        # Everything completed inside the warmup window: there is no
        # steady state to report, so the honest answer is the overall
        # rate, flagged by warmup_buckets=0.
        timeline = throughput_timeline([0.01, 0.02, 0.03], elapsed=1.0)
        assert timeline["warmup_buckets"] == 0
        assert timeline["steady_rps"] == timeline["overall_rps"]

    def test_validation(self):
        from repro.serving import throughput_timeline

        with pytest.raises(ValueError, match="elapsed"):
            throughput_timeline([0.1], elapsed=0.0)
        with pytest.raises(ValueError, match="warmup_buckets"):
            throughput_timeline([0.1], elapsed=1.0, warmup_buckets=-1)
        with pytest.raises(ValueError, match="steady bucket"):
            throughput_timeline([0.1], elapsed=1.0, n_buckets=4, warmup_buckets=4)


@pytest.fixture(scope="module")
def open_loop_payload():
    return run_loadgen(
        DEFAULT_SERVING_WORKLOADS["smoke"],
        LoadgenConfig(
            n_requests=120, concurrency=16, max_batch=16,
            mode="open", rates=(300.0, 600.0),
        ),
    )


def test_open_loop_payload_is_schema_valid(open_loop_payload):
    assert validate_serving_payload(open_loop_payload) is open_loop_payload
    assert open_loop_payload["workload"]["mode"] == "open"
    assert open_loop_payload["service"]["n_shards"] == 1


def test_open_loop_rate_sweep_shape(open_loop_payload):
    rates = open_loop_payload["results"]["open_loop"]["rates"]
    assert [block["rate"] for block in rates] == [300.0, 600.0]
    for block in rates:
        latency = block["latency_seconds"]
        assert (
            latency["p50"] <= latency["p90"] <= latency["p99"]
            <= latency["p999"] <= latency["max"]
        )
        assert block["max_lag_seconds"] >= 0
        assert block["requests"] == 120
    # CO-safety at the accounting level: the full seeded schedule was
    # issued at every swept rate — nothing was silently skipped because
    # the generator fell behind.
    requests = open_loop_payload["results"]["requests"]
    assert requests["sent"] == 120 * 2
    assert requests["completed"] == requests["sent"]


def test_open_loop_checks_hold(open_loop_payload):
    assert open_loop_payload["checks"]["predictions_match_single"] is True
    assert open_loop_payload["checks"]["zero_dropped"] is True


@pytest.mark.parametrize(
    ("mutate", "message"),
    [
        (
            lambda p: p["workload"].__setitem__("mode", "ajar"),
            "workload.mode",
        ),
        (
            lambda p: p["results"]["open_loop"].__setitem__("rates", []),
            "non-empty list",
        ),
        (
            lambda p: p["results"]["open_loop"]["rates"][0]["latency_seconds"]
            .__setitem__("p50", 1e9),
            "ordered",
        ),
        (
            lambda p: p["results"]["open_loop"]["rates"][1]
            .__setitem__("max_lag_seconds", -0.1),
            "max_lag_seconds",
        ),
        (
            lambda p: p["results"]["requests"].__setitem__("completed", 1),
            "completed",
        ),
    ],
)
def test_schema_rejects_corrupted_open_loop_payloads(
    open_loop_payload, mutate, message
):
    corrupted = copy.deepcopy(open_loop_payload)
    mutate(corrupted)
    with pytest.raises(ValueError, match=message):
        validate_serving_payload(corrupted)


def test_open_loop_config_validation():
    with pytest.raises(ValueError, match="rate"):
        LoadgenConfig(mode="open")
    with pytest.raises(ValueError, match="rate"):
        LoadgenConfig(mode="open", rates=(0.0,))
    with pytest.raises(ValueError, match="open-loop"):
        LoadgenConfig(mode="closed", rates=(100.0,))
    with pytest.raises(ValueError, match="open-loop"):
        LoadgenConfig(mode="closed", n_shards=2)
    with pytest.raises(ValueError, match="mode"):
        LoadgenConfig(mode="ajar")
    with pytest.raises(ValueError, match="n_shards"):
        LoadgenConfig(mode="open", rates=(100.0,), n_shards=0)
    with pytest.raises(ValueError, match="kill_shard"):
        LoadgenConfig(mode="open", rates=(100.0,), kill_shard_under_load=True)


# -- one request loop: measured accounting, swap in every in-process mode -------


def test_open_loop_fleet_rejections_are_accounted_per_tenant():
    # Tiny batches, a two-slot queue and a one-slot tenant quota at 20k rps:
    # most first attempts bounce, and every bounce belongs to one tenant.
    payload = run_loadgen(
        DEFAULT_SERVING_WORKLOADS["smoke"],
        LoadgenConfig(
            n_requests=240, max_batch=2, max_queue_depth=2, tenant_quota=1,
            n_tenants=3, scenario="mixed", mode="open", rates=(20_000.0,),
        ),
    )
    requests = payload["results"]["requests"]
    tenants = payload["results"]["fleet"]["tenants"]
    assert requests["rejected"] > 0
    assert sum(t["rejected"] for t in tenants.values()) == requests["rejected"]
    assert sum(t["completed"] for t in tenants.values()) == requests["completed"] == 240
    corrupted = copy.deepcopy(payload)
    next(iter(corrupted["results"]["fleet"]["tenants"].values()))["rejected"] += 1
    with pytest.raises(ValueError, match="rejected counts must sum"):
        validate_serving_payload(corrupted)


def test_open_loop_fleet_swap_performed_with_full_availability():
    payload = run_loadgen(
        DEFAULT_SERVING_WORKLOADS["smoke"],
        LoadgenConfig(
            n_requests=120, max_batch=16, n_tenants=3, scenario="mixed",
            mode="open", rates=(400.0,), swap_under_load=True,
        ),
    )
    swap = payload["results"]["swap"]
    assert swap["performed"] is True
    assert swap["version_after"] == swap["version_before"] + 1
    assert swap["availability"] == 1.0
    assert payload["checks"]["swap_zero_downtime"] is True
    assert payload["results"]["fleet"]["registry"]["publishes"] == 4


def test_swap_and_microbatch_settings_rejected_up_front():
    with pytest.raises(ValueError, match="n_tenants >= 2"):
        LoadgenConfig(swap_under_load=True)
    with pytest.raises(ValueError, match="n_shards == 1"):
        LoadgenConfig(
            n_tenants=3, swap_under_load=True, mode="open", rates=(100.0,), n_shards=2
        )
    with pytest.raises(ValueError, match="max_queue_depth"):
        LoadgenConfig(max_batch=16, max_queue_depth=4)
    # The fleet profile asks for its hot-swap only where one can run.
    sharded = LoadgenConfig(mode="open", rates=(100.0,), n_shards=2)
    assert fleet_config("fleet-smoke", sharded).swap_under_load is False


def test_committed_serving_artifact_validates():
    path = Path(__file__).resolve().parents[2] / "BENCH_serving.json"
    payload = validate_serving_payload(json.loads(path.read_text()))
    assert payload["schema_version"] == SERVING_SCHEMA_VERSION
