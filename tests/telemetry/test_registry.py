"""MetricsRegistry + module-level helper semantics."""

import threading

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import MetricsRegistry, metric_name
from repro.telemetry.registry import NULL_TIMER, merge_snapshots


class TestMetricName:
    def test_plain(self):
        assert metric_name("a.b") == "a.b"

    def test_labels_sorted(self):
        assert (
            metric_name("a", reason="x", path="y")
            == metric_name("a", path="y", reason="x")
            == "a{path=y,reason=x}"
        )


class TestRegistry:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.count("c")
        registry.observe("h", 1.0)
        with registry.timer("t"):
            pass
        snap = registry.snapshot()
        assert snap == {"counters": {}, "timers": {}, "histograms": {}}

    def test_counter_accumulates(self):
        registry = MetricsRegistry(enabled=True)
        registry.count("c", 3)
        registry.count("c")
        assert registry.counter_value("c") == 4
        assert registry.counter_value("never") == 0

    def test_counter_labels_are_distinct_metrics(self):
        registry = MetricsRegistry(enabled=True)
        registry.count("paths", path="prebound")
        registry.count("paths", path="raw")
        registry.count("paths", path="raw")
        snap = registry.snapshot()["counters"]
        assert snap["paths{path=prebound}"] == 1
        assert snap["paths{path=raw}"] == 2

    def test_timer_records_count_total_max(self):
        registry = MetricsRegistry(enabled=True)
        registry.record_timing("t", 0.5)
        registry.record_timing("t", 1.5)
        stanza = registry.snapshot()["timers"]["t"]
        assert stanza["count"] == 2
        assert stanza["total_seconds"] == pytest.approx(2.0)
        assert stanza["max_seconds"] == pytest.approx(1.5)

    def test_timer_context_manager_measures(self):
        registry = MetricsRegistry(enabled=True)
        with registry.timer("t"):
            pass
        stanza = registry.snapshot()["timers"]["t"]
        assert stanza["count"] == 1
        assert stanza["max_seconds"] >= 0.0

    def test_histogram_bucketing_and_overflow(self):
        registry = MetricsRegistry(enabled=True)
        buckets = (1.0, 2.0)
        for value in (0.5, 1.0, 1.5, 99.0):
            registry.observe("h", value, buckets=buckets)
        stanza = registry.snapshot()["histograms"]["h"]
        # <=1.0 catches 0.5 and 1.0; <=2.0 catches 1.5; 99 overflows.
        assert stanza["counts"] == [2, 1, 1]
        assert stanza["count"] == 4
        assert stanza["total"] == pytest.approx(102.0)

    def test_histogram_bucket_redefinition_rejected(self):
        registry = MetricsRegistry(enabled=True)
        registry.observe("h", 0.1, buckets=(1.0,))
        with pytest.raises(ValueError):
            registry.observe("h", 0.1, buckets=(2.0,))

    def test_merge_histogram_matches_per_value_observes(self):
        buckets = (1.0, 2.0)
        observed = MetricsRegistry(enabled=True)
        for value in (0.5, 1.0, 1.5, 99.0):
            observed.observe("h", value, buckets=buckets)
        merged = MetricsRegistry(enabled=True)
        merged.merge_histogram("h", buckets, [2, 1, 1], 102.0)
        assert merged.snapshot()["histograms"]["h"] == (
            observed.snapshot()["histograms"]["h"]
        )

    def test_merge_histogram_accumulates_into_observed(self):
        registry = MetricsRegistry(enabled=True)
        buckets = (1.0, 2.0)
        registry.observe("h", 0.5, buckets=buckets)
        registry.merge_histogram("h", buckets, [0, 3, 1], 10.0)
        stanza = registry.snapshot()["histograms"]["h"]
        assert stanza["counts"] == [1, 3, 1]
        assert stanza["count"] == 5
        assert stanza["total"] == pytest.approx(10.5)

    def test_merge_histogram_rejects_wrong_cell_count(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError, match="bucket counts"):
            registry.merge_histogram("h", (1.0, 2.0), [1, 2], 3.0)

    def test_merge_histogram_rejects_bucket_redefinition(self):
        registry = MetricsRegistry(enabled=True)
        registry.observe("h", 0.1, buckets=(1.0,))
        with pytest.raises(ValueError, match="buckets"):
            registry.merge_histogram("h", (2.0,), [0, 1], 3.0)

    def test_merge_histogram_noop_while_disabled(self):
        registry = MetricsRegistry(enabled=False)
        registry.merge_histogram("h", (1.0,), [1, 0], 0.5)
        assert registry.snapshot()["histograms"] == {}

    def test_reset_clears_metrics_keeps_state(self):
        registry = MetricsRegistry(enabled=True)
        registry.count("c")
        registry.reset()
        assert registry.snapshot()["counters"] == {}
        assert registry.enabled

    def test_thread_safety_exact_totals(self):
        registry = MetricsRegistry(enabled=True)
        n_threads, per_thread = 8, 2_000

        def work():
            for _ in range(per_thread):
                registry.count("c")

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("c") == n_threads * per_thread


class TestMergeSnapshots:
    def test_counters_timers_and_histograms_add(self):
        first, second = MetricsRegistry(enabled=True), MetricsRegistry(enabled=True)
        for registry, seconds in ((first, 0.5), (second, 1.5)):
            registry.count("c", 2)
            registry.record_timing("t", seconds)
            registry.observe("h", seconds, buckets=(1.0,))
        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["counters"] == {"c": 4}
        assert merged["timers"]["t"] == {
            "count": 2, "total_seconds": 2.0, "max_seconds": 1.5
        }
        assert merged["histograms"]["h"]["counts"] == [1, 1]
        assert merged["histograms"]["h"]["count"] == 2

    def test_mismatched_bucket_layouts_rejected(self):
        first, second = MetricsRegistry(enabled=True), MetricsRegistry(enabled=True)
        first.observe("h", 0.5, buckets=(1.0,))
        second.observe("h", 0.5, buckets=(2.0,))
        with pytest.raises(ValueError, match="mismatched bucket layouts"):
            merge_snapshots([first.snapshot(), second.snapshot()])


class TestModuleHelpers:
    def test_default_is_disabled(self):
        assert not telemetry.is_enabled()
        telemetry.count("should.not.record")
        assert telemetry.snapshot()["counters"] == {}

    def test_disabled_timer_is_shared_null(self):
        assert telemetry.timer("t") is NULL_TIMER

    def test_enabled_context_is_fresh_and_restores(self):
        telemetry.count("outside")  # no-op: disabled
        with telemetry.enabled() as registry:
            assert telemetry.is_enabled()
            telemetry.count("inside")
            assert registry.counter_value("inside") == 1
        assert not telemetry.is_enabled()
        assert telemetry.snapshot()["counters"] == {}

    def test_enabled_in_place_accumulates_and_restores_state(self):
        registry = MetricsRegistry(enabled=False)
        registry.count("pre")  # ignored: disabled
        with telemetry.activated(registry):
            with telemetry.enabled(fresh=False) as same:
                assert same is registry
                telemetry.count("during")
            assert not registry.enabled
        assert registry.counter_value("during") == 1

    def test_disabled_context_suppresses(self):
        with telemetry.enabled() as registry:
            with telemetry.disabled():
                telemetry.count("suppressed")
            telemetry.count("recorded")
            assert registry.counter_value("suppressed") == 0
            assert registry.counter_value("recorded") == 1

    def test_activated_nesting_restores_previous(self):
        first = MetricsRegistry(enabled=True)
        second = MetricsRegistry(enabled=True)
        with telemetry.activated(first):
            with telemetry.activated(second):
                telemetry.count("x")
            telemetry.count("x")
        assert first.counter_value("x") == 1
        assert second.counter_value("x") == 1

    def test_snapshot_is_json_like(self):
        with telemetry.enabled() as registry:
            telemetry.count("c", 2)
            telemetry.observe("h", 0.3)
            with telemetry.timer("t"):
                np.zeros(4)
            snap = registry.snapshot()
        telemetry.validate_snapshot(snap)
