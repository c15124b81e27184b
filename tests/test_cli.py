"""CLI tests (argument parsing + end-to-end train/evaluate round trip)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.application == "activity"
        assert args.dim == 2_000

    def test_unknown_application_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--application", "mnist"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "activity" in out
        assert "fig04_quantization_accuracy" in out

    def test_train_evaluate_round_trip(self, tmp_path, capsys):
        model_path = str(tmp_path / "model.npz")
        status = main(
            ["train", "--application", "face", "--train-limit", "120",
             "--dim", "256", "--levels", "2", "--chunk-size", "4",
             "--retrain", "1", "--out", model_path]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out

        status = main(
            ["evaluate", "--model", model_path, "--application", "face",
             "--train-limit", "120"]
        )
        assert status == 0
        assert "test accuracy" in capsys.readouterr().out

    def test_experiment_command(self, capsys):
        assert main(["experiment", "fig16_resources"]) == 0
        assert "Fig. 16" in capsys.readouterr().out

    def test_stats_command_writes_valid_snapshot(self, tmp_path, capsys):
        import json

        from repro.telemetry import validate_stats_payload

        out_path = tmp_path / "STATS.json"
        assert main(["stats", "--out", str(out_path)]) == 0
        payload = validate_stats_payload(json.loads(out_path.read_text()))
        assert payload["telemetry"]["counters"]["inference.fused.queries"] > 0
        assert f"wrote {out_path}" in capsys.readouterr().out

    def test_stats_parser_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.out == "STATS.json"
        assert args.overhead_gate is None

    def test_unknown_experiment_fails(self, capsys):
        assert main(["experiment", "fig99_nonexistent"]) == 2

    def test_train_on_user_npz(self, tmp_path, capsys, small_dataset):
        from repro.datasets.loaders import save_npz

        data_path = tmp_path / "user.npz"
        save_npz(small_dataset, data_path)
        status = main(
            ["train", "--data", str(data_path), "--dim", "256",
             "--levels", "2", "--chunk-size", "4", "--retrain", "0"]
        )
        assert status == 0
        assert "test accuracy" in capsys.readouterr().out


class TestServingCommands:
    def test_loadgen_parser_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.profile == "full"
        assert args.concurrency == 64
        assert args.max_batch == 64
        assert args.dispatch == "inline"

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8752
        assert args.max_queue_depth == 1_024

    def test_loadgen_rejects_bad_dispatch(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--dispatch", "fork"])

    def test_loadgen_smoke_writes_valid_artifact(self, tmp_path, capsys):
        import json

        from repro.serving import validate_serving_payload

        status = main(
            ["loadgen", "--profile", "smoke", "--requests", "200",
             "--concurrency", "16", "--max-batch", "16",
             "--out-dir", str(tmp_path)]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "BENCH_serving.json" in out
        assert "0 dropped" in out
        payload = validate_serving_payload(
            json.loads((tmp_path / "BENCH_serving.json").read_text())
        )
        assert payload["results"]["requests"]["sent"] == 200

    def test_loadgen_fleet_parser_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.tenants == 1
        assert args.scenario == "uniform"
        assert args.swap is False
        assert args.tenant_quota is None
        assert args.cache_budget_bytes is None
        fleet = build_parser().parse_args(
            ["loadgen", "--profile", "fleet-smoke", "--tenants", "3",
             "--scenario", "bursty", "--swap"]
        )
        assert fleet.profile == "fleet-smoke"
        assert fleet.tenants == 3 and fleet.scenario == "bursty" and fleet.swap

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--deadline-ms", "0"],
            ["serve", "--deadline-ms", "-5"],
            ["serve", "--scrub-interval", "-1"],
            ["serve", "--models", "edge7"],  # missing =PATH
            ["serve", "--models", "=model.npz"],  # empty tenant name
            ["serve", "--tenant-quota", "0"],
            ["serve", "--cache-budget-bytes", "0"],
            ["serve", "--max-wait-ms", "0"],
            ["loadgen", "--tenants", "0"],
            ["loadgen", "--scenario", "tsunami"],
            ["loadgen", "--max-wait-ms", "nope"],
        ],
    )
    def test_bad_flag_values_fail_at_parse_time(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_serve_flag_parsing(self):
        args = build_parser().parse_args(
            ["serve", "--models", "edge-7=a.npz", "camera=b.npz",
             "--deadline-ms", "12.5", "--scrub-interval", "0",
             "--tenant-quota", "8", "--cache-budget-bytes", "65536"]
        )
        assert args.models == [("edge-7", "a.npz"), ("camera", "b.npz")]
        assert args.deadline_ms == 12.5
        assert args.scrub_interval == 0.0
        assert args.tenant_quota == 8
        assert args.cache_budget_bytes == 65_536

    def test_serve_rejects_model_and_models_together(self, tmp_path, capsys):
        status = main(
            ["serve", "--model", "a.npz", "--models", "edge-7=b.npz"]
        )
        assert status == 2
        assert "not both" in capsys.readouterr().err

    def test_loadgen_fleet_smoke_writes_valid_artifact(self, tmp_path, capsys):
        import json

        from repro.serving import validate_serving_payload

        status = main(
            ["loadgen", "--profile", "fleet-smoke", "--requests", "120",
             "--concurrency", "16", "--max-batch", "16",
             "--out-dir", str(tmp_path)]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "fleet: 3 tenants (mixed)" in out
        assert "hot-swapped tenant-0 v1→v2 at availability 1.000" in out
        payload = validate_serving_payload(
            json.loads((tmp_path / "BENCH_serving.json").read_text())
        )
        assert payload["workload"]["n_tenants"] == 3
        assert payload["results"]["requests"]["sent"] == 120
        assert payload["checks"]["per_tenant_bit_identity"] is True
        assert payload["checks"]["swap_zero_downtime"] is True

    def test_open_loop_parser_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.open_loop is False
        assert args.rate is None
        assert args.shards == 1
        assert args.kill_shard is False
        serve = build_parser().parse_args(["serve"])
        assert serve.shards == 1

    def test_open_loop_rate_sweep_parsing(self):
        args = build_parser().parse_args(
            ["loadgen", "--open-loop", "--rate", "400", "--rate", "800",
             "--shards", "2", "--kill-shard"]
        )
        assert args.open_loop
        assert args.rate == [400.0, 800.0]
        assert args.shards == 2 and args.kill_shard

    @pytest.mark.parametrize(
        "argv",
        [
            ["loadgen", "--rate", "0"],
            ["loadgen", "--rate", "-100"],
            ["loadgen", "--shards", "0"],
            ["serve", "--shards", "0"],
        ],
    )
    def test_open_loop_bad_flags_fail_at_parse_time(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        ("argv", "needle"),
        [
            (["loadgen", "--open-loop"], "--rate"),
            (["loadgen", "--rate", "500"], "--open-loop"),
            (["loadgen", "--shards", "2"], "--open-loop"),
            (["loadgen", "--open-loop", "--rate", "500", "--kill-shard"],
             "--shards >= 2"),
            (["serve", "--shards", "2"], "--model"),
        ],
    )
    def test_flag_combinations_exit_2(self, argv, needle, capsys):
        assert main(argv) == 2
        assert needle in capsys.readouterr().err

    def test_bad_microbatch_settings_exit_2_before_training(self, monkeypatch, capsys):
        import repro.serving.loadgen as loadgen

        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained before the config was checked")

        monkeypatch.setattr(loadgen.LookHDClassifier, "fit", no_training)
        argv = ["loadgen", "--profile", "smoke", "--max-batch", "16", "--max-queue-depth", "4"]
        assert main(argv) == 2
        assert "max_queue_depth (4) must be >= max_batch (16)" in capsys.readouterr().err

    def test_loadgen_open_loop_smoke_writes_valid_artifact(self, tmp_path, capsys):
        import json

        from repro.serving import validate_serving_payload

        status = main(
            ["loadgen", "--profile", "smoke", "--open-loop",
             "--rate", "300", "--rate", "600", "--requests", "120",
             "--max-batch", "16", "--out-dir", str(tmp_path)]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "rate 300 rps" in out and "rate 600 rps" in out
        assert "max send lag" in out
        payload = validate_serving_payload(
            json.loads((tmp_path / "BENCH_serving.json").read_text())
        )
        assert payload["workload"]["mode"] == "open"
        rates = payload["results"]["open_loop"]["rates"]
        assert [block["rate"] for block in rates] == [300.0, 600.0]
        # CO-safety: every swept rate reports latency from the *intended*
        # arrival, so requests.sent covers the full schedule per rate.
        assert payload["results"]["requests"]["sent"] == 120 * 2


class TestStreamCommand:
    def test_stream_parser_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.profile == "full"
        assert args.batches is None
        assert args.batch_size is None
        assert args.decay is None
        assert args.sketch_capacity is None
        assert args.out_dir == "."

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "--profile", "firehose"],
            ["stream", "--batches", "0"],
            ["stream", "--batch-size", "-4"],
            ["stream", "--sketch-capacity", "0"],
            ["stream", "--decay", "0"],
            ["stream", "--decay", "1.5"],
            ["stream", "--decay", "-0.5"],
            ["stream", "--decay", "soon"],
        ],
    )
    def test_stream_bad_flags_fail_at_parse_time(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_serve_partial_fit_flag(self):
        assert build_parser().parse_args(["serve"]).partial_fit is False
        assert build_parser().parse_args(["serve", "--partial-fit"]).partial_fit is True

    def test_stream_smoke_writes_valid_artifact(self, tmp_path, capsys):
        import json

        from repro.streaming import validate_streaming_payload

        status = main(
            ["stream", "--profile", "smoke", "--batches", "8",
             "--batch-size", "60", "--out-dir", str(tmp_path)]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "BENCH_streaming.json" in out
        assert "0 dropped" in out
        payload = validate_streaming_payload(
            json.loads((tmp_path / "BENCH_streaming.json").read_text())
        )
        assert payload["workload"]["n_batches"] == 8
