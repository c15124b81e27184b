"""End-to-end LookHD classifier — the library's primary public API.

Glues together every Section III/IV component: equalized quantization,
chunk lookup table, counter-based training, optional model compression with
decorrelation and class grouping, and compressed retraining.

Example
-------
>>> from repro.datasets import load_application
>>> from repro.lookhd import LookHDClassifier, LookHDConfig
>>> data = load_application("activity")
>>> clf = LookHDClassifier(LookHDConfig(dim=2000, levels=4, chunk_size=5))
>>> clf.fit(data.train_features, data.train_labels, retrain_iterations=5)
>>> accuracy = clf.score(data.test_features, data.test_labels)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hdc.item_memory import LevelItemMemory
from repro.hdc.model import ClassModel
from repro.lookhd.chunking import ChunkLayout
from repro.lookhd.compression import DEFAULT_GROUP_SIZE, CompressedModel
from repro.lookhd.encoder import LookupEncoder
from repro.lookhd.inference import DEFAULT_SCORE_TABLE_BUDGET_BYTES, FusedInferenceEngine
from repro.lookhd.lookup_table import ChunkLookupTable
from repro.lookhd.retraining import RetrainTrace, retrain_compressed
from repro.lookhd.trainer import LookHDTrainer
from repro.quantization.base import Quantizer
from repro.quantization.equalized import EqualizedQuantizer
from repro.utils.rng import derive_rng
from repro.utils.validation import check_2d, check_finite, check_labels, check_positive_int


@dataclass(frozen=True)
class LookHDConfig:
    """Hyperparameters of a LookHD classifier.

    Attributes
    ----------
    dim:
        Hypervector dimensionality ``D`` (paper efficiency studies: 2000).
    levels:
        Equalized quantization levels ``q`` (paper: 2 or 4).
    chunk_size:
        Features per chunk ``r`` (paper: 5 for most applications).
    compress:
        Fold the trained classes into compressed hypervector(s).
    group_size:
        Max classes per compressed hypervector.  The default (12) is the
        paper's accuracy-preserving "exact mode" (Sec. VI-G): apps with
        ``k <= 12`` get a single hypervector; SPEECH (k=26) gets three.
        Set ``None`` to force a single hypervector regardless of ``k``
        (the headline maximum-compression mode, lossy above ~12 classes).
    decorrelate:
        Remove the common class component before compression (Sec. IV-C).
    seed:
        Master seed; derives level memory, position memory, and keys.
    fused_inference:
        Serve ``predict``/``score`` from the lookup-domain score table
        (:mod:`repro.lookhd.inference`) when it fits the budget; argmax
        matches the hypervector path, scores match to float rounding.
    score_table_budget_bytes:
        Memory ceiling for that score table; above it inference silently
        falls back to the hypervector-domain path.
    """

    dim: int = 2_000
    levels: int = 4
    chunk_size: int = 5
    compress: bool = True
    group_size: int | None = DEFAULT_GROUP_SIZE
    decorrelate: bool = True
    seed: int = 0
    fused_inference: bool = True
    score_table_budget_bytes: int = DEFAULT_SCORE_TABLE_BUDGET_BYTES

    def __post_init__(self):
        check_positive_int(self.dim, "dim")
        check_positive_int(self.levels, "levels")
        check_positive_int(self.chunk_size, "chunk_size")
        if self.group_size is not None:
            check_positive_int(self.group_size, "group_size")


#: Group size for the paper's lossless "exact mode" (Sec. VI-G).
EXACT_GROUP_SIZE = DEFAULT_GROUP_SIZE


class LookHDClassifier:
    """LookHD classification with a ``fit`` / ``predict`` / ``score`` API.

    Parameters
    ----------
    config:
        Hyperparameters; see :class:`LookHDConfig`.
    quantizer:
        Optional custom (unfitted) quantizer; defaults to the paper's
        :class:`~repro.quantization.equalized.EqualizedQuantizer`.
    """

    def __init__(self, config: LookHDConfig | None = None, quantizer: Quantizer | None = None):
        self.config = config if config is not None else LookHDConfig()
        self.quantizer = (
            quantizer if quantizer is not None else EqualizedQuantizer(self.config.levels)
        )
        if self.quantizer.levels != self.config.levels:
            raise ValueError("quantizer level count must match config.levels")
        self.encoder: LookupEncoder | None = None
        self.trainer: LookHDTrainer | None = None
        self.class_model: ClassModel | None = None
        self.compressed_model: CompressedModel | None = None
        self.n_classes: int | None = None
        self._fused_engine: FusedInferenceEngine | None = None
        #: Degrade switch: when ``True``, ``predict`` skips the fused
        #: score-table path and serves from the hypervector domain even
        #: though ``config.fused_inference`` is on.  Set by the integrity
        #: layer (:mod:`repro.resilience`) when authoritative state is
        #: damaged beyond repair — correctness of the fused caches can no
        #: longer be certified, so the service routes around them.
        self.serve_reference = False

    # -- training ------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        retrain_iterations: int = 0,
        validation: tuple[np.ndarray, np.ndarray] | None = None,
        n_workers: int | None = None,
    ) -> RetrainTrace:
        """Train from scratch: counters → class model → (compression) → retrain.

        Parameters
        ----------
        features, labels:
            Training set; integer labels in ``[0, k)``.
        retrain_iterations:
            Perceptron passes over the compressed (or raw) model.
        validation:
            Optional raw ``(features, labels)`` for the retraining trace.
        n_workers:
            Shard the counter-training pass across this many worker
            processes (:class:`~repro.parallel.ParallelTrainer`); the
            resulting model is bit-identical to the sequential path.
            ``None``/``1`` trains in-process.

        Returns
        -------
        The retraining trace (empty when ``retrain_iterations == 0``).
        """
        cfg = self.config
        batch = check_finite(check_2d(features, "features"), "features")
        labels = check_labels(labels, "labels", n_samples=batch.shape[0])
        self.n_classes = int(labels.max()) + 1
        chunk_size = min(cfg.chunk_size, batch.shape[1])
        layout = ChunkLayout(batch.shape[1], chunk_size)
        self.quantizer.fit(batch)
        item_memory = LevelItemMemory(
            cfg.levels, cfg.dim, rng=derive_rng(cfg.seed, "lookhd-levels")
        )
        table = ChunkLookupTable(item_memory, chunk_size)
        self.encoder = LookupEncoder(
            self.quantizer, table, layout, seed=derive_rng(cfg.seed, "lookhd-positions")
        )
        if n_workers is not None and n_workers > 1:
            # Imported lazily: the lookhd package must stay importable
            # without pulling in the multiprocessing machinery.
            from repro.parallel.trainer import ParallelTrainer

            self.trainer = ParallelTrainer(self.encoder, self.n_classes, n_workers=n_workers)
        else:
            self.trainer = LookHDTrainer(self.encoder, self.n_classes)
        self.trainer.observe(batch, labels)
        self.class_model = self.trainer.build_model()
        if cfg.compress:
            self.compressed_model = CompressedModel(
                self.class_model,
                group_size=cfg.group_size,
                decorrelate=cfg.decorrelate,
                seed=derive_rng(cfg.seed, "lookhd-keys"),
            )
        else:
            self.compressed_model = None
        return self._retrain(batch, labels, retrain_iterations, validation)

    def _retrain(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        iterations: int,
        validation: tuple[np.ndarray, np.ndarray] | None,
    ) -> RetrainTrace:
        assert self.encoder is not None
        if iterations == 0:
            return RetrainTrace()
        encoded = self.encoder.encode_many(features)
        encoded_validation = None
        if validation is not None:
            validation_features = check_finite(
                check_2d(validation[0], "validation features"), "validation features"
            )
            encoded_validation = (
                self.encoder.encode_many(validation_features),
                check_labels(
                    validation[1],
                    "validation labels",
                    n_samples=validation_features.shape[0],
                ),
            )
        if self.compressed_model is not None:
            return retrain_compressed(
                self.compressed_model,
                encoded,
                labels,
                iterations=iterations,
                validation=encoded_validation,
            )
        return self._retrain_uncompressed(encoded, labels, iterations, encoded_validation)

    def _retrain_uncompressed(
        self,
        encoded: np.ndarray,
        labels: np.ndarray,
        iterations: int,
        validation: tuple[np.ndarray, np.ndarray] | None,
    ) -> RetrainTrace:
        assert self.class_model is not None
        trace = RetrainTrace()
        for _ in range(iterations):
            predictions = np.atleast_1d(self.class_model.predict(encoded))
            wrong = np.flatnonzero(predictions != labels)
            for index in wrong:
                self.class_model.retrain_update(
                    int(labels[index]), int(predictions[index]), encoded[index]
                )
            trace.updates_per_iteration.append(int(wrong.size))
            trace.train_accuracy.append(float(np.mean(predictions == labels)))
            if validation is not None:
                val_predictions = np.atleast_1d(self.class_model.predict(validation[0]))
                trace.validation_accuracy.append(
                    float(np.mean(val_predictions == validation[1]))
                )
            if wrong.size == 0:
                break
        return trace

    def rebuild_from_counters(self) -> None:
        """Regenerate the class and compressed models from the counters.

        The counters are the authoritative training record: materialising
        them reproduces the as-fit class model bit-for-bit, and the
        compressed model's keys re-derive from ``config.seed``, so the
        whole model family comes back identical to the original ``fit``
        (before any ``retrain_iterations`` — perceptron updates live in
        the models, not the counters, and are lost).  This is the
        integrity layer's repair path for corrupted model state
        (:mod:`repro.resilience`); it also drops the fused engine so no
        score table derived from the damaged model survives.
        """
        if self.trainer is None or not getattr(self.trainer, "counters", None):
            raise RuntimeError(
                "rebuild_from_counters requires the training counters; this "
                "classifier was restored without them (e.g. from a persisted "
                "artifact) — restore from a clean artifact or refit instead"
            )
        cfg = self.config
        self.class_model = self.trainer.build_model()
        if cfg.compress:
            self.compressed_model = CompressedModel(
                self.class_model,
                group_size=cfg.group_size,
                decorrelate=cfg.decorrelate,
                seed=derive_rng(cfg.seed, "lookhd-keys"),
            )
        else:
            self.compressed_model = None
        self._fused_engine = None

    # -- inference -------------------------------------------------------------

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode raw features with the fitted lookup encoder."""
        if self.encoder is None:
            raise RuntimeError("classifier must be fitted before encoding")
        return self.encoder.encode(features)

    def _inference_model(self) -> CompressedModel | ClassModel:
        model = self.compressed_model if self.compressed_model is not None else self.class_model
        if model is None or self.encoder is None:
            raise RuntimeError("classifier must be fitted before predicting")
        return model

    def fused_engine(self) -> FusedInferenceEngine:
        """The lazily built lookup-domain inference engine for this model.

        Rebuilt automatically when ``fit`` swaps the model out; the engine
        itself refreshes its score table when the model is retrained.
        """
        model = self._inference_model()
        engine = self._fused_engine
        if engine is None or engine.model is not model or engine.encoder is not self.encoder:
            engine = FusedInferenceEngine(
                self.encoder, model, budget_bytes=self.config.score_table_budget_bytes
            )
            self._fused_engine = engine
        return engine

    # -- serving table lifecycle -----------------------------------------------

    def served_table(self) -> str:
        """The one derived table :meth:`predict` reads right now.

        ``"score_table"`` while the fused engine serves (fused inference
        on, not degraded via :attr:`serve_reference`, table within its
        budget); otherwise ``"prebound_table"``, the encoder's
        ``B = P ⊙ T`` behind the hypervector path.  Warm-up, the registry
        charge, the integrity guard and the live-fault targets all follow
        this answer, so serving never builds, charges or hashes a table
        predict does not read.
        """
        return "prebound_table" if self._serving_engine() is None else "score_table"

    def _serving_engine(self) -> FusedInferenceEngine | None:
        """The fused engine when :meth:`served_table` is the score table."""
        if self.config.fused_inference and not self.serve_reference:
            engine = self.fused_engine()
            if engine.enabled:
                return engine
        return None

    def warm_tables(self) -> int:
        """Build the :meth:`served_table` off the request path; returns bytes held.

        A model is published into a registry fully bound, so the first
        request after a hot-swap never pays a build.  When fused predict
        serves, a pre-bound table left behind by retraining or ``encode``
        is dropped (the encoder rebuilds it lazily).  A table over its
        budget stays unbuilt and the exact fallback path serves.  The
        return value is the bytes held, which the registry charges
        against its cache budget.
        """
        if self.encoder is None:
            raise RuntimeError("classifier must be fitted before warming tables")
        if self.served_table() == "score_table":
            if self.encoder.prebound_bytes_held():
                self.encoder.invalidate_prebound()
            self.fused_engine().score_table  # noqa: B018 — property access builds
        else:
            self.encoder.prebound_table  # noqa: B018 — property access builds
        return self.serving_table_bytes()

    def release_tables(self) -> None:
        """Drop the serving caches (registry LRU eviction entry point).

        Only derived state goes: the authoritative model family stays, so
        the next ``predict``/:meth:`warm_tables` rebuilds bit-identical
        tables lazily.
        """
        if self._fused_engine is not None:
            self._fused_engine.invalidate()
        if self.encoder is not None:
            self.encoder.invalidate_prebound()

    def serving_table_bytes(self) -> int:
        """Live bytes held by the serving caches (0 when released/unbuilt)."""
        held = 0
        if self.encoder is not None:
            held += self.encoder.prebound_bytes_held()
        if self._fused_engine is not None:
            held += self._fused_engine.memory_bytes()
        return held

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Classify raw feature vectors (compressed search when enabled).

        Served from the fused lookup-domain score table when
        :meth:`served_table` says so (by the compiled kernel when it is
        loaded, see :mod:`repro.kernels`); otherwise encodes in
        memory-bounded batches and searches in the hypervector domain.
        All paths agree on every prediction.

        Inputs are validated the same on every path: a query containing
        NaN/inf raises ``ValueError`` instead of quantizing to garbage.
        Single-query contract (relied on by :mod:`repro.serving`): a 1-D
        ``(n,)`` sample returns a NumPy ``int64`` scalar; an ``(N, n)``
        batch returns an ``(N,)`` ``int64`` array — including ``N == 0``,
        which returns an empty array.
        """
        model = self._inference_model()
        single = np.asarray(features).ndim == 1
        batch = check_2d(features, "features")
        if batch.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        engine = self._serving_engine()
        if engine is not None:
            # The engine checks finiteness itself, in the kernel's pass.
            predictions = engine.predict(batch)
            return predictions[0] if single else predictions
        check_finite(batch, "features")
        if self.config.fused_inference and not self.serve_reference:
            self.fused_engine().note_fallback()  # fused was asked for: over budget
        predictions = model.predict(self.encoder.encode_many(batch))
        return predictions[0] if single else predictions

    def predict_reference(self, features: np.ndarray) -> np.ndarray:
        """Classify via the unfused hypervector-domain reference path.

        Materialises the full ``(N, m, D)`` Eq. 3 intermediate and runs the
        group-loop Eq. 4/5 search — the pre-optimisation pipeline, kept as
        the equivalence oracle and benchmark baseline for the fused path.
        Validates inputs and follows the single-query ``int64`` contract
        exactly like :meth:`predict`.
        """
        model = self._inference_model()
        single = np.asarray(features).ndim == 1
        batch = check_finite(check_2d(features, "features"), "features")
        if batch.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        encoded = self.encoder.encode_reference(batch)
        if isinstance(model, CompressedModel):
            scores = model.scores_reference(encoded)
            predictions = np.argmax(scores, axis=1).astype(np.int64, copy=False)
        else:
            predictions = model.predict(encoded)
        return predictions[0] if single else predictions

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy.

        Labels are validated against the prediction count, so an
        ``(N, 1)``-shaped label array raises instead of broadcasting
        ``predictions == labels`` to an ``(N, N)`` matrix and returning a
        confidently wrong accuracy.
        """
        predictions = np.atleast_1d(self.predict(features))
        labels = check_labels(labels, "labels", n_samples=predictions.shape[0])
        return float(np.mean(predictions == labels))

    # -- reporting ---------------------------------------------------------------

    def model_size_bytes(self, bytes_per_element: int = 4) -> int:
        """Deployed model footprint (compressed when compression is on)."""
        if self.compressed_model is not None:
            return self.compressed_model.model_size_bytes(bytes_per_element)
        if self.class_model is None:
            raise RuntimeError("classifier must be fitted first")
        return self.class_model.model_size_bytes(bytes_per_element)

    def lookup_table_bytes(self) -> int:
        """Footprint of the pre-stored chunk table (the BRAM budget)."""
        if self.encoder is None:
            raise RuntimeError("classifier must be fitted first")
        return self.encoder.lookup_table.memory_bytes()
