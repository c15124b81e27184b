"""The compiled fused predict kernel against its NumPy oracle.

``kernels.fused_predict`` must reproduce the NumPy composition
(``searchsorted`` quantize → ``chunk_addresses`` → ``gather_accumulate``
→ ``argmax``) bit for bit, and every way the build can fail must leave
predict serving the same answers from NumPy.  Failures are forced by
monkeypatching :mod:`repro.kernels.compiled`, whose module-level state is
restored after each test.
"""

import os
import pickle
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.datasets.synthetic import SyntheticSpec, make_synthetic_classification
from repro.kernels import compiled, reference
from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.persistence import load_classifier, save_classifier
from repro.quantization.linear import LinearQuantizer
from repro.quantization.per_feature import PerFeatureEqualizedQuantizer
from repro.streaming.quantizer import StreamingQuantizer

SRC = Path(__file__).resolve().parents[2] / "src"

needs_compiled = pytest.mark.skipif(
    kernels.current_mode() != "compiled",
    reason=f"compiled kernel unavailable: {kernels.fallback_reason()}",
)


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """An empty cache directory and no loaded kernel: the next use builds."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(compiled, "_state", None)
    monkeypatch.setattr(compiled, "cache_dir", lambda: cache)
    return cache


@pytest.fixture(scope="module")
def dataset():
    spec = SyntheticSpec(
        n_features=23, n_classes=5, n_train=300, n_test=512, seed=11, skew=0.8
    )
    return make_synthetic_classification(spec, name="fused")


@pytest.fixture(scope="module")
def clf(dataset):
    model = LookHDClassifier(LookHDConfig(dim=256, levels=4, chunk_size=5, seed=2))
    model.fit(dataset.train_features, dataset.train_labels)
    return model


def _oracle(values, boundaries, q, chunk_size, n_chunks, table):
    levels = np.clip(
        np.searchsorted(boundaries, np.asarray(values, dtype=np.float64), side="right"),
        0,
        q - 1,
    )
    addresses = reference.chunk_addresses(levels, q, chunk_size, n_chunks, 0)
    scores = reference.gather_accumulate(table, addresses, np.float64)
    return scores, np.argmax(scores, axis=1).astype(np.int64)


def _spy(monkeypatch):
    calls = []
    original = kernels.fused_predict

    def spy(*args):
        calls.append(args[0].shape[0])
        return original(*args)

    monkeypatch.setattr(kernels, "fused_predict", spy)
    return calls


# -- the kernel itself ---------------------------------------------------------


@needs_compiled
@given(
    seed=st.integers(0, 2**31 - 1),
    q=st.sampled_from([2, 3, 4, 8]),
    chunk_size=st.integers(1, 6),
    padded=st.booleans(),
    n_chunks=st.integers(1, 4),
    k=st.sampled_from([1, 2, 13, 26]),
    n_rows=st.sampled_from([0, 1, 7, 512]),
    layout=st.sampled_from(["C", "F", "strided", "float32"]),
    tied_table=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_scores_and_predictions_bit_identical_to_numpy(
    seed, q, chunk_size, padded, n_chunks, k, n_rows, layout, tied_table
):
    n_features = n_chunks * chunk_size - (padded and chunk_size > 1)
    assume(n_chunks * q**chunk_size * k <= 2**21)
    rng = np.random.default_rng(seed)
    boundaries = np.sort(rng.normal(size=q - 1))
    if tied_table:  # small integers: exact ties exercise the first-max argmax
        table = rng.integers(-2, 3, size=(n_chunks, q**chunk_size, k)).astype(np.float64)
    else:
        table = rng.normal(size=(n_chunks, q**chunk_size, k)) * 10.0 ** rng.integers(-3, 4)
    # Values on the boundaries themselves, huge magnitudes and noise.
    big = 1e38 if layout == "float32" else 1e300
    pool = np.concatenate([boundaries, [big, -big, 0.0, -0.0], rng.normal(size=16)])
    values = rng.choice(pool, size=(n_rows, n_features))
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "strided":
        values = np.repeat(values, 2, axis=1)[:, ::2]
    elif layout == "float32":
        values = values.astype(np.float32)
    scores, predictions, bad_row = kernels.fused_predict(
        values, boundaries, q, chunk_size, n_chunks, table
    )
    expected_scores, expected_predictions = _oracle(
        values, boundaries, q, chunk_size, n_chunks, table
    )
    assert bad_row == -1
    assert scores.dtype == np.float64 and predictions.dtype == np.int64
    assert np.array_equal(scores, expected_scores)
    assert np.array_equal(predictions, expected_predictions)


@needs_compiled
def test_reports_first_non_finite_row():
    table = np.zeros((2, 4, 3))
    values = np.zeros((5, 4))
    values[3, 1] = np.inf
    values[4, 0] = np.nan
    assert kernels.fused_predict(values, np.array([0.0]), 2, 2, 2, table)[2] == 3


@needs_compiled
def test_rejects_a_table_that_does_not_fit_the_geometry():
    with pytest.raises(ValueError, match="do not fit"):
        kernels.fused_predict(np.zeros((1, 4)), np.array([0.0]), 2, 2, 2, np.zeros((2, 3, 1)))
    with pytest.raises(ValueError, match="do not fit"):
        kernels.fused_predict(np.zeros((1, 5)), np.array([0.0]), 2, 2, 2, np.zeros((2, 4, 1)))


# -- the classifier's fused path --------------------------------------------------


@needs_compiled
@pytest.mark.parametrize("layout", ["C", "F", "strided", "float32"])
def test_classifier_serves_compiled_and_matches_numpy(monkeypatch, clf, dataset, layout):
    features = dataset.test_features
    if layout == "F":
        features = np.asfortranarray(features)
    elif layout == "strided":
        features = np.repeat(features, 2, axis=1)[:, ::2]
    elif layout == "float32":
        features = features.astype(np.float32)
    calls = _spy(monkeypatch)
    engine = clf.fused_engine()
    compiled_scores = engine.scores(features)
    compiled_predictions = clf.predict(features)
    assert calls == [512, 512]
    monkeypatch.setattr(compiled, "_state", (None, None, "forced by test"))
    assert np.array_equal(engine.scores(features), compiled_scores)
    assert np.array_equal(clf.predict(features), compiled_predictions)
    assert calls == [512, 512]
    assert np.array_equal(clf.predict_reference(features[:200]), compiled_predictions[:200])


@needs_compiled
def test_single_query_keeps_the_int64_scalar_contract(monkeypatch, clf, dataset):
    calls = _spy(monkeypatch)
    prediction = clf.predict(dataset.test_features[7])
    assert type(prediction) is np.int64
    assert prediction == clf.predict(dataset.test_features)[7]
    assert clf.fused_engine().scores(dataset.test_features[7]).shape == (5,)
    assert calls[0] == 1


def test_nan_in_a_large_batch_raises_the_same_text_on_both_paths(clf, dataset, monkeypatch):
    features = dataset.test_features.copy()
    features[300, 4] = np.nan
    features[300, 9] = -np.inf
    messages = []
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(compiled, "_state", (None, None, "forced by test"))
        with pytest.raises(ValueError, match="2 non-finite") as info:
            clf.predict(features)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("features contains 2 non-finite value(s)")


@pytest.mark.parametrize(
    "quantizer",
    [LinearQuantizer(4), PerFeatureEqualizedQuantizer(4)],
    ids=["linear", "per_feature"],
)
def test_other_quantizers_take_the_numpy_path(monkeypatch, dataset, quantizer):
    model = LookHDClassifier(
        LookHDConfig(dim=256, levels=4, chunk_size=5, seed=2), quantizer=quantizer
    )
    model.fit(dataset.train_features, dataset.train_labels)

    def refuse(*args):
        raise AssertionError("the compiled kernel served a non-global quantizer")

    monkeypatch.setattr(kernels, "fused_predict", refuse)
    assert model.served_table() == "score_table"
    assert np.array_equal(
        model.predict(dataset.test_features[:100]),
        model.predict_reference(dataset.test_features[:100]),
    )


@needs_compiled
def test_streaming_boundary_move_rebuilds_and_stays_bit_identical(monkeypatch, dataset):
    quantizer = StreamingQuantizer(4)
    model = LookHDClassifier(LookHDConfig(dim=256, levels=4, chunk_size=5, seed=2), quantizer)
    model.fit(dataset.train_features, dataset.train_labels)
    engine = model.fused_engine()
    features = dataset.test_features
    model.predict(features)
    built = engine._built_encoding_version
    quantizer.partial_fit(dataset.train_features * 3.0 + 1.0)
    assert quantizer.version != built
    calls = _spy(monkeypatch)
    moved_scores = engine.scores(features)
    moved_predictions = model.predict(features)
    assert calls == [512, 512]
    assert engine._built_encoding_version == quantizer.version
    monkeypatch.setattr(compiled, "_state", (None, None, "forced by test"))
    assert np.array_equal(engine.scores(features), moved_scores)
    assert np.array_equal(model.predict(features), moved_predictions)


@needs_compiled
def test_persistence_and_pickle_round_trips_serve_compiled(monkeypatch, clf, dataset, tmp_path):
    expected = clf.predict(dataset.test_features)
    restored = load_classifier(save_classifier(clf, tmp_path / "model.npz"))
    unpickled = pickle.loads(pickle.dumps(clf))
    calls = _spy(monkeypatch)
    assert np.array_equal(restored.predict(dataset.test_features), expected)
    assert np.array_equal(unpickled.predict(dataset.test_features), expected)
    assert calls == [512, 512]


# -- build, cache and fallback ------------------------------------------------------


def _assert_numpy_serves(clf, dataset, reason_prefix):
    assert kernels.current_mode() == "numpy"
    assert kernels.fallback_reason().startswith(reason_prefix), kernels.fallback_reason()
    assert kernels.active_backends()["fused_predict"] == "numpy"
    features = dataset.test_features[:200]
    assert np.array_equal(clf.predict(features), clf.predict_reference(features))


def test_no_compiler_serves_numpy(monkeypatch, fresh_cache, clf, dataset):
    monkeypatch.setattr(compiled, "find_compiler", lambda: None)
    _assert_numpy_serves(clf, dataset, "no C compiler")
    assert not fresh_cache.exists()


@needs_compiled
def test_failing_compile_serves_numpy(monkeypatch, fresh_cache, tmp_path, clf, dataset):
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(compiled, "SOURCE", broken)
    _assert_numpy_serves(clf, dataset, "compile failed")
    assert list(fresh_cache.iterdir()) == []  # the temp file is gone too


@needs_compiled
def test_unwritable_cache_serves_numpy(monkeypatch, tmp_path, clf, dataset):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setattr(compiled, "_state", None)
    monkeypatch.setattr(compiled, "cache_dir", lambda: blocker / "cache")
    _assert_numpy_serves(clf, dataset, "cache unwritable")


@needs_compiled
def test_unloadable_library_serves_numpy(monkeypatch, fresh_cache, clf, dataset):
    library = compiled.library_path(compiled.find_compiler(), compiled.SOURCE.read_bytes())
    library.parent.mkdir(parents=True)
    library.write_bytes(b"not a shared library")
    _assert_numpy_serves(clf, dataset, "load failed")


@needs_compiled
def test_warm_cache_runs_no_compiler(monkeypatch, fresh_cache):
    assert kernels.current_mode() == "compiled"
    [library] = fresh_cache.iterdir()
    assert library.suffix == ".so"
    monkeypatch.setattr(compiled, "_state", None)

    def refuse(*args, **kwargs):
        raise AssertionError("the warm path ran a subprocess")

    monkeypatch.setattr(subprocess, "run", refuse)
    assert kernels.current_mode() == "compiled"


@needs_compiled
def test_concurrent_first_uses_in_one_process_build_once(monkeypatch, fresh_cache):
    builds = []
    run = subprocess.run

    def counting_run(*args, **kwargs):
        builds.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    barrier = threading.Barrier(8)
    modes = []

    def first_use():
        barrier.wait(timeout=30)
        modes.append(kernels.current_mode())

    threads = [threading.Thread(target=first_use) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert modes == ["compiled"] * 8
    assert len(builds) == 1
    assert [path.suffix for path in fresh_cache.iterdir()] == [".so"]


@needs_compiled
def test_two_processes_building_into_one_empty_cache_both_load(tmp_path):
    cache = tmp_path / "cache"
    script = textwrap.dedent(
        """
        import sys, time
        from pathlib import Path
        import numpy as np
        from repro.kernels import compiled
        cache, ready, other = Path(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
        compiled.cache_dir = lambda: cache
        ready.touch()
        deadline = time.monotonic() + 30
        while not other.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        table = np.arange(2 * 4 * 3, dtype=np.float64).reshape(2, 4, 3)
        _, predictions, _ = compiled.fused_predict(
            np.array([[0.5, -1.0, 2.0, 0.0]]), np.array([0.0]), 2, 2, 2, table
        )
        print(compiled.fallback_reason(), predictions.tolist())
        """
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    flags = [tmp_path / "ready-0", tmp_path / "ready-1"]
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(cache), str(flags[i]), str(flags[1 - i])],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for i in range(2)
    ]
    outputs = [process.communicate(timeout=120) for process in processes]
    for process, (out, err) in zip(processes, outputs):
        assert process.returncode == 0, err
        assert out.strip() == "None [2]"
    [library] = cache.iterdir()
    assert library.suffix == ".so"
