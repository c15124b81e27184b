"""Perf-harness tests: smoke-run the bench, validate schema, pin determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.runner import run_inference_bench, run_training_bench, write_bench_files
from repro.bench.schema import SCHEMA_VERSION, validate_bench_payload
from repro.bench.workloads import BenchWorkload, profile_workloads

TINY = (
    BenchWorkload(
        name="tiny",
        dim=128,
        levels=2,
        chunk_size=3,
        n_features=12,
        n_classes=3,
        n_train=60,
        n_test=40,
    ),
)


@pytest.fixture(scope="module")
def inference_payload():
    return run_inference_bench(TINY, repeats=1, profile="tiny")


@pytest.fixture(scope="module")
def training_payload():
    return run_training_bench(TINY, repeats=1, profile="tiny")


class TestProfiles:
    def test_known_profiles(self):
        assert profile_workloads("smoke")
        assert profile_workloads("full")
        with pytest.raises(ValueError):
            profile_workloads("nope")

    def test_full_profile_covers_acceptance_config(self):
        # The perf gate is defined at the paper's efficiency configuration.
        assert any(
            w.dim == 2000 and w.levels == 4 and w.chunk_size == 5
            for w in profile_workloads("full")
        )

    def test_workload_dataset_is_pinned(self):
        a = TINY[0].make_dataset()
        b = TINY[0].make_dataset()
        assert np.array_equal(a.train_features, b.train_features)
        assert np.array_equal(a.test_labels, b.test_labels)


class TestPayloads:
    def test_inference_schema_valid(self, inference_payload):
        validate_bench_payload(inference_payload, "inference")
        entry = inference_payload["workloads"][0]
        assert entry["checks"]["outputs_match"] is True
        assert entry["speedups"]["predict"] > 0

    def test_training_schema_valid(self, training_payload):
        validate_bench_payload(training_payload, "training")
        assert training_payload["workloads"][0]["checks"]["outputs_match"] is True

    def test_checksums_deterministic_across_runs(self, inference_payload, training_payload):
        again_inference = run_inference_bench(TINY, repeats=1, profile="tiny")
        again_training = run_training_bench(TINY, repeats=1, profile="tiny")
        assert (
            inference_payload["workloads"][0]["checks"]["outputs_sha256"]
            == again_inference["workloads"][0]["checks"]["outputs_sha256"]
        )
        assert (
            training_payload["workloads"][0]["checks"]["outputs_sha256"]
            == again_training["workloads"][0]["checks"]["outputs_sha256"]
        )

    def test_payload_is_json_serialisable(self, inference_payload):
        parsed = json.loads(json.dumps(inference_payload))
        validate_bench_payload(parsed, "inference")

    def test_inference_payload_embeds_telemetry(self, inference_payload):
        counters = inference_payload["telemetry"]["counters"]
        # One instrumented predict pass per workload: fused hits and
        # encoder path selection must be on the record.
        assert counters["inference.fused.queries"] >= TINY[0].n_test
        assert any(name.startswith("encoder.encode.batches{") for name in counters)

    def test_training_payload_embeds_telemetry(self, training_payload):
        telemetry_block = training_payload["telemetry"]
        assert telemetry_block["counters"]["trainer.samples_observed"] >= TINY[0].n_train
        assert telemetry_block["timers"]["trainer.observe_seconds"]["count"] >= 1

    def test_rejects_malformed_telemetry_block(self, inference_payload):
        bad = json.loads(json.dumps(inference_payload))
        bad["telemetry"] = {"counters": {"c": "not-an-int"}, "timers": {}, "histograms": {}}
        with pytest.raises(ValueError):
            validate_bench_payload(bad, "inference")

    def test_payload_without_telemetry_still_validates(self, inference_payload):
        legacy = json.loads(json.dumps(inference_payload))
        del legacy["telemetry"]
        validate_bench_payload(legacy, "inference")


class TestSchemaValidator:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            validate_bench_payload([])

    def test_rejects_wrong_version(self, inference_payload):
        bad = json.loads(json.dumps(inference_payload))
        bad["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            validate_bench_payload(bad)

    def test_rejects_missing_timing(self, inference_payload):
        bad = json.loads(json.dumps(inference_payload))
        del bad["workloads"][0]["timings"]["predict_fused"]
        with pytest.raises(ValueError):
            validate_bench_payload(bad, "inference")

    def test_rejects_diverged_outputs(self, inference_payload):
        bad = json.loads(json.dumps(inference_payload))
        bad["workloads"][0]["checks"]["outputs_match"] = False
        with pytest.raises(ValueError):
            validate_bench_payload(bad)

    def test_rejects_benchmark_mismatch(self, inference_payload):
        with pytest.raises(ValueError):
            validate_bench_payload(inference_payload, "training")

    def test_committed_inference_artifact_validates(self):
        # The committed artifact keeps a historical top-level ``kernels``
        # block; unknown top-level keys are ignored by the validator.
        path = Path(__file__).resolve().parents[2] / "BENCH_inference.json"
        payload = json.loads(path.read_text())
        assert "kernels" in payload
        validate_bench_payload(payload, "inference")


class TestWriteFiles:
    def test_writes_schema_valid_files(self, tmp_path, capsys):
        training_path, inference_path = write_bench_files(
            "smoke", out_dir=tmp_path, repeats=1
        )
        assert training_path.name == "BENCH_training.json"
        assert inference_path.name == "BENCH_inference.json"
        validate_bench_payload(json.loads(training_path.read_text()), "training")
        validate_bench_payload(json.loads(inference_path.read_text()), "inference")

