"""Fused lookup-domain inference: classify without ever touching ``D``.

The encoding (Eq. 3) and the associative search are both linear in the
chunk hypervectors:

    score_j(H) = H · W_j = Σ_i (P_i ⊙ T[a_i]) · W_j

where ``W_j`` is the class-``j`` search vector (the normalised class
hypervector for a :class:`~repro.hdc.model.ClassModel`, or
``P'_j ⊙ C_{group(j)}`` for a :class:`~repro.lookhd.compression.CompressedModel`).
Every inner product on the right depends only on the *chunk address*
``a_i``, of which there are ``q^r`` per position — so the whole pipeline
factorises into a **score table**

    S[i, a, j] = (P_i ⊙ T[a]) · W_j        # shape (m, q^r, k)

precomputed once per fitted model.  A query is then scored with ``m``
gathers of ``k``-vectors and a sum: **no hypervector is ever
materialised and the dimensionality ``D`` appears nowhere in the
per-query cost** (``O(m·k)`` vs ``O(m·D + k·D)``).  For the paper's
efficiency configuration (``D=2000, q^r=1024, m≈20, k≤26``) the table is a
few MB — the same trade the paper makes for training (Fig. 6), applied to
inference.

Staleness: retraining mutates the model after the table is built.  The
engine records the model's ``version`` counter at build time and
transparently rebuilds when it changes, so
:meth:`~repro.lookhd.classifier.LookHDClassifier.fit` →
``retrain_update`` → ``predict`` sequences stay exact without manual
cache management.  The encoder's ``encoding_version`` (bumped when a
streaming quantizer moves its boundaries) is tracked the same way, so
boundary refreshes can never serve a table keyed to a stale value →
address map.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import kernels, telemetry
from repro.hdc.model import ClassModel
from repro.lookhd.compression import CompressedModel
from repro.lookhd.encoder import LookupEncoder
from repro.utils.validation import check_finite

#: Default ceiling for the ``(m, q^r, k)`` float64 score table.  Generous:
#: the paper-scale table is a few MB, so hitting this signals an unusual
#: geometry where the hypervector-domain path is the better choice anyway.
DEFAULT_SCORE_TABLE_BUDGET_BYTES = 128 * 2**20


class FusedFallbackWarning(RuntimeWarning):
    """The fused score table exceeded its budget; serving the slower path.

    Raised as a *warning*, not an error: the hypervector-domain fallback is
    exact, just slower — but a deployment sized around the fused path
    should know it is not getting it, rather than discovering the
    regression in a latency dashboard.
    """


class FusedInferenceEngine:
    """Score-table inference over a fitted encoder + model pair.

    Parameters
    ----------
    encoder:
        Fitted :class:`~repro.lookhd.encoder.LookupEncoder`; supplies the
        chunk geometry, lookup table, and position hypervectors.
    model:
        A :class:`~repro.lookhd.compression.CompressedModel` or
        :class:`~repro.hdc.model.ClassModel` to search against.
    budget_bytes:
        Memory ceiling for the score table.  When the table would exceed
        it, :attr:`enabled` is ``False`` and callers should fall back to
        the hypervector-domain path.
    """

    def __init__(
        self,
        encoder: LookupEncoder,
        model: CompressedModel | ClassModel,
        budget_bytes: int = DEFAULT_SCORE_TABLE_BUDGET_BYTES,
    ):
        if not isinstance(model, (CompressedModel, ClassModel)):
            raise TypeError(f"unsupported model type {type(model).__name__}")
        if encoder.dim != model.dim:
            raise ValueError(
                f"encoder dimension {encoder.dim} != model dimension {model.dim}"
            )
        self.encoder = encoder
        self.model = model
        self.budget_bytes = int(budget_bytes)
        self.n_classes = model.n_classes
        #: Whether the score table fits the memory budget.  Fixed for the
        #: engine's life: its encoder, model, class count and budget are.
        self.enabled = self.table_bytes_needed() <= self.budget_bytes
        self._score_table: np.ndarray | None = None
        self._built_version: int | None = None
        self._built_encoding_version: int | None = None
        #: Human-readable reason the last fallback happened (``None`` while
        #: the fused path is serving).  Queryable by monitoring code.
        self.fallback_reason: str | None = None
        self._fallback_warned = False

    # -- table management ------------------------------------------------------

    def table_bytes_needed(self) -> int:
        """Footprint of the ``(m, q^r, k)`` float64 score table."""
        return (
            self.encoder.layout.n_chunks
            * self.encoder.lookup_table.n_rows
            * self.n_classes
            * np.dtype(np.float64).itemsize
        )

    def note_fallback(self) -> str:
        """Record (and warn once about) a fall back to the hypervector path.

        Called by consumers that route around a disabled engine — e.g.
        :meth:`~repro.lookhd.classifier.LookHDClassifier.predict`.  Sets
        :attr:`fallback_reason` and emits one :class:`FusedFallbackWarning`
        per engine, so a long-running service logs the condition exactly
        once instead of on every query (or never).
        """
        self.fallback_reason = (
            f"score table needs {self.table_bytes_needed()} bytes "
            f"(m={self.encoder.layout.n_chunks}, q^r={self.encoder.lookup_table.n_rows}, "
            f"k={self.n_classes}) but the budget is {self.budget_bytes} bytes; "
            "serving the exact hypervector-domain path instead"
        )
        telemetry.count("inference.fused.fallbacks", reason="score_table_over_budget")
        if not self._fallback_warned:
            warnings.warn(self.fallback_reason, FusedFallbackWarning, stacklevel=3)
            self._fallback_warned = True
        return self.fallback_reason

    def _search_vectors(self) -> np.ndarray:
        """``(k, D)`` float64 class search matrix ``W``."""
        if isinstance(self.model, CompressedModel):
            return self.model.search_matrix
        return self.model.normalized.astype(np.float64, copy=False)

    @property
    def score_table(self) -> np.ndarray | None:
        """The ``(m, q^r, k)`` score table, rebuilt when the model changed."""
        if not self.enabled:
            return None
        # Single read, local return: a concurrent invalidate() (registry
        # eviction, hot-swap releasing a superseded record's tables) must
        # never turn a mid-predict access into None — the caller keeps the
        # complete table it resolved and the *next* access rebuilds.
        table = self._score_table
        encoding_version = self.encoder.encoding_version
        if (
            table is None
            or self._built_version != self.model.version
            or self._built_encoding_version != encoding_version
        ):
            with telemetry.timer("inference.score_table.build_seconds"):
                table = self._build()
            telemetry.count(
                "inference.score_table.builds",
                trigger="initial" if self._built_version is None else "version_change",
            )
            self._score_table = table
            self._built_version = self.model.version
            self._built_encoding_version = encoding_version
        return table

    def invalidate(self) -> None:
        """Drop the built score table so the next access rebuilds it.

        The version counter only tracks *legitimate* model mutation; an
        in-place corruption of the cached table (a flipped bit in BRAM)
        leaves the version untouched and would be served forever.  The
        integrity layer (:mod:`repro.resilience`) calls this to force a
        rebuild from authoritative state.
        """
        self._score_table = None
        self._built_version = None
        self._built_encoding_version = None
        telemetry.count("inference.score_table.invalidations")

    def _build(self) -> np.ndarray:
        table = self.encoder.lookup_table.table.astype(np.float64)  # (q^r, D)
        positions = self.encoder.position_memory.vectors  # (m, D)
        search = self._search_vectors().T  # (D, k)
        n_chunks = self.encoder.layout.n_chunks
        scores = np.empty(
            (n_chunks, self.encoder.lookup_table.n_rows, self.n_classes),
            dtype=np.float64,
        )
        if not self.encoder.bind_positions:
            # Naive aggregation: every position shares the unbound table.
            scores[:] = (table @ search)[np.newaxis]
            return scores
        for chunk in range(n_chunks):
            # (q^r, D) ⊙ P_i  @  (D, k)  ->  (q^r, k): one GEMM per chunk
            # keeps the bound-table intermediate at (q^r, D).
            scores[chunk] = (table * positions[chunk].astype(np.float64)) @ search
        return scores

    # -- inference -------------------------------------------------------------

    def _require_table(self) -> np.ndarray:
        table = self.score_table
        if table is None:
            raise RuntimeError(
                self.note_fallback()
                + " (call the classifier's predict(), which handles the fallback)"
            )
        return table

    def scores_addresses(self, addresses: np.ndarray) -> np.ndarray:
        """Per-class scores for pre-computed ``(N, m)`` chunk addresses."""
        out = kernels.gather_accumulate(self._require_table(), np.asarray(addresses), np.float64)
        telemetry.count("inference.fused.queries", out.shape[0])
        telemetry.count("inference.fused.batches")
        return out

    def _score(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``(scores, predictions)`` for a batch; predictions ``None`` on NumPy.

        The compiled kernel (:func:`repro.kernels.fused_predict`) serves
        whenever it is loaded and the quantizer searches one global
        boundary array; it checks finiteness in the same pass, and only
        when it reports a bad row are the values counted, for the same
        ``ValueError`` as :func:`~repro.utils.validation.check_finite`.
        Otherwise the NumPy composition serves: quantize → chunk
        addresses → gather-accumulate.
        """
        batch = self.encoder.check_features(features)
        boundaries = self.encoder.quantizer.searchsorted_boundaries()
        if boundaries is None or kernels.current_mode() != "compiled":
            check_finite(batch, "features")
            return self.scores_addresses(self.encoder.addresses(batch)), None
        # One read of the table: a concurrent invalidate() cannot free it
        # while the kernel reads it.
        table = self._require_table()
        values = np.ascontiguousarray(batch, dtype=np.float64)
        layout = self.encoder.layout
        scores, predictions, bad_row = kernels.fused_predict(
            values, boundaries, self.encoder.quantizer.levels,
            layout.chunk_size, layout.n_chunks, table,
        )
        if bad_row >= 0:
            check_finite(batch, "features")
            check_finite(values, "values")
        telemetry.count("inference.fused.queries", scores.shape[0])
        telemetry.count("inference.fused.batches")
        return scores, predictions

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Per-class scores for raw ``(n,)`` / ``(N, n)`` feature vectors.

        Matches the hypervector-domain scores to float rounding (the only
        difference is summation order), with identical argmax in practice;
        the compiled and NumPy paths agree bit for bit.
        """
        out, _ = self._score(features)
        return out[0] if np.asarray(features).ndim == 1 else out

    def predict(self, features: np.ndarray) -> np.ndarray | np.int64:
        """Argmax class per query (the first maximum on ties).

        Follows the library-wide single-query contract: a 1-D sample
        returns a NumPy ``int64`` scalar, a batch an ``(N,)`` ``int64``
        array (see :meth:`repro.hdc.model.ClassModel.predict`).  Raises
        ``ValueError`` for a wrong feature count or a NaN/inf value.
        """
        scores, predictions = self._score(features)
        if predictions is None:
            predictions = np.argmax(scores, axis=1).astype(np.int64, copy=False)
        return predictions[0] if np.asarray(features).ndim == 1 else predictions

    # -- reporting -------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Actual bytes held by the built score table (0 before first use)."""
        return 0 if self._score_table is None else int(self._score_table.nbytes)
