"""Serving builds, charges and guards only the table predict reads.

A fused ``LookHDClassifier`` predicts from its ``(m, q^r, k)`` score table
and never touches the pre-bound encode table ``B = P ⊙ T`` (82 MB at the
paper's geometry, 40× the score table).  Warm-up, the registry charge and
the fleet scrubber must follow that: no pre-bound table for fused
tenants.  A classifier on the hypervector path, and a live
``OnlineLookHD``, do read the pre-bound table, so it stays warmed,
charged and guarded for them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticSpec, make_synthetic_classification
from repro.faults import inject_live_fault
from repro.lookhd import LookHDClassifier, LookHDConfig, OnlineLookHD
from repro.resilience import FleetScrubber, IntegrityGuard
from repro.serving import ModelRegistry

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.lookhd.inference.FusedFallbackWarning"
)


def _fit(dataset, seed=3, dim=512, chunk_size=4, retrain_iterations=0, **overrides):
    clf = LookHDClassifier(
        LookHDConfig(dim=dim, levels=4, chunk_size=chunk_size, seed=seed, **overrides)
    )
    clf.fit(
        dataset.train_features, dataset.train_labels, retrain_iterations=retrain_iterations
    )
    return clf


def _score_table_bytes(clf) -> int:
    return clf.fused_engine().table_bytes_needed()


@pytest.fixture(scope="module")
def paper_data():
    """The paper's efficiency geometry: n=100 features, k=13 classes."""
    return make_synthetic_classification(
        SyntheticSpec(n_features=100, n_classes=13, n_train=260, n_test=64, seed=5),
        name="paper-geometry",
    )


def test_paper_geometry_tenant_is_charged_only_its_score_table(paper_data):
    clf = _fit(paper_data, dim=2000, chunk_size=5)
    queries = paper_data.test_features
    expected = clf.predict_reference(queries)

    assert clf.served_table() == "score_table"
    assert clf.warm_tables() == 2_129_920  # m=20 × q^r=1024 × k=13 × 8 B
    assert clf.encoder.prebound_bytes_held() == 0

    registry = ModelRegistry()
    record = registry.publish("paper", clf)
    assert record.table_bytes == registry.bound_bytes == 2_129_920
    assert IntegrityGuard(clf).verify_all() == []
    assert clf.encoder.prebound_bytes_held() == 0
    np.testing.assert_array_equal(clf.predict(queries), expected)
    assert clf.encoder.prebound_bytes_held() == 0


def test_warm_drops_a_prebound_table_left_by_retraining(small_dataset):
    clf = _fit(small_dataset, retrain_iterations=2)
    assert clf.encoder.prebound_bytes_held() > 0  # retraining encodes through it
    assert clf.warm_tables() == _score_table_bytes(clf)
    assert clf.encoder.prebound_bytes_held() == 0
    assert clf.serving_table_bytes() == _score_table_bytes(clf)


def test_registry_charges_each_fused_tenant_its_score_table(small_dataset):
    registry = ModelRegistry()
    fleet = [_fit(small_dataset, seed) for seed in (3, 4, 5)]
    for index, clf in enumerate(fleet):
        registry.publish(f"t{index}", clf)
    per_tenant = _score_table_bytes(fleet[0])
    for index, clf in enumerate(fleet):
        assert registry.record(f"t{index}").table_bytes == per_tenant
        assert clf.encoder.prebound_bytes_held() == 0
    assert registry.bound_bytes == 3 * per_tenant


def test_fleet_scrub_sweep_never_builds_the_prebound_table(small_dataset):
    registry = ModelRegistry()
    fleet = [_fit(small_dataset, seed) for seed in (3, 4)]
    for index, clf in enumerate(fleet):
        registry.publish(f"t{index}", clf)
    # Every tick sweeps one tenant's whole schedule plus its canaries.
    scrubber = FleetScrubber(registry, blocks_per_tick=1 << 20, canary_every=1)
    for _ in range(2 * len(fleet)):
        assert scrubber.tick() == []
    status = scrubber.status()
    assert status["canary_checks"] == 2 * len(fleet)
    assert all(entry["derived_guarded"] for entry in status["tenants"].values())
    for clf in fleet:
        assert clf.encoder.prebound_bytes_held() == 0


@pytest.mark.parametrize(
    "overrides",
    [{"fused_inference": False}, {"score_table_budget_bytes": 1}],
    ids=["fused_off", "score_table_over_budget"],
)
def test_hypervector_path_still_warms_charges_and_guards_prebound(
    small_dataset, overrides
):
    clf = _fit(small_dataset, **overrides)
    assert clf.served_table() == "prebound_table"
    prebound = clf.encoder.prebound_bytes_needed()
    assert clf.warm_tables() == prebound
    assert clf.encoder.prebound_bytes_held() == prebound
    assert clf.fused_engine().memory_bytes() == 0

    registry = ModelRegistry()
    assert registry.publish("t", clf).table_bytes == prebound

    guard = IntegrityGuard(clf)
    assert guard.verify_all() == []
    inject_live_fault(clf, "prebound_table", ber=0.2, seed=1)
    # Both checks cover it: the block digests and the canary answers.
    digested = guard.verify_next_blocks(1 << 20)
    assert {error.artifact for error in digested} == {"prebound_table"}
    assert [error.artifact for error in guard.check_canaries()] == ["prebound_table"]


def test_degraded_classifier_warms_prebound(small_dataset):
    clf = _fit(small_dataset)
    clf.serve_reference = True
    assert clf.served_table() == "prebound_table"
    assert clf.warm_tables() == clf.encoder.prebound_bytes_needed()


def test_online_learner_is_charged_its_prebound_table(small_dataset):
    encoder = _fit(small_dataset).encoder
    encoder.invalidate_prebound()
    live = OnlineLookHD(encoder, n_classes=4)
    registry = ModelRegistry()
    record = registry.publish("live", live)
    assert record.table_bytes == encoder.prebound_bytes_needed() > 0
    assert live.serving_table_bytes() == record.table_bytes

    assert registry.evict("live") is True
    assert live.serving_table_bytes() == 0
    live.partial_fit(small_dataset.train_features[:32], small_dataset.train_labels[:32])
    assert registry.get("live").table_bytes == encoder.prebound_bytes_needed()
