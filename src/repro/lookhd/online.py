"""OnlineLookHD: single-pass adaptive training (extension).

The paper cites OnlineHD ([13]) as the state of the art in single-pass
HDC learning: instead of bundling every sample with weight 1, each
encoded sample is added with weight ``1 − δ`` (its similarity to its own
class) and subtracted with weight proportional to its similarity to the
best wrong class — samples the model already explains contribute little,
hard samples contribute a lot.  This module combines that update rule
with LookHD's lookup encoder and compressed model, giving a single-pass
learner that needs no retraining iterations at all.

Unlike counter training this touches a D-dimensional vector per sample
(weights are continuous, so occurrences can't be factorised into integer
counts); the trade is one pass instead of initial-train + ~10 retraining
passes.

Concept drift
-------------
Two knobs adapt the learner to non-stationary streams
(:mod:`repro.datasets.drift`):

* ``decay`` — exponential forgetting.  Before each sample's update the
  whole model is scaled by ``decay``; cosine scoring is scale-invariant,
  so the *only* effect is to shrink old evidence relative to fresh
  updates — a class vector is an exponentially-weighted sum of its
  history with half-life ``ln 2 / ln(1/decay)`` samples.  ``decay=1``
  (default) recovers the stationary learner exactly.
* ``window`` — prequential (test-then-train) accuracy over the last
  ``window`` samples: each sample is first scored against the current
  model, *then* trained on.  :meth:`drift_stats` exposes the window so a
  serving deployment can watch recovery after a drift event without a
  held-out set.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro import telemetry
from repro.hdc.model import ClassModel
from repro.hdc.similarity import cosine_similarity
from repro.lookhd.compression import CompressedModel
from repro.lookhd.encoder import LookupEncoder
from repro.utils.validation import check_2d, check_finite, check_labels, check_positive_int

#: Histogram buckets for the rival-push magnitude ``rival_sim − own_sim``
#: (bounded by 2 for cosine similarities).
_RIVAL_PUSH_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0)

#: Default prequential-accuracy window length.
DEFAULT_WINDOW = 256


class OnlineLookHD:
    """Single-pass adaptive LookHD learner.

    Parameters
    ----------
    encoder:
        A fitted :class:`~repro.lookhd.encoder.LookupEncoder`.
    n_classes:
        Number of classes ``k``.
    learning_rate:
        Scales every update; OnlineHD's default of 1 works here too since
        the similarity weights already normalise the step.
    decay:
        Per-sample exponential forgetting factor in ``(0, 1]``; 1 keeps
        all history (stationary behaviour), smaller values track drift
        faster at the cost of statistical efficiency.
    window:
        Length of the prequential accuracy window for
        :meth:`drift_stats`.
    """

    def __init__(
        self,
        encoder: LookupEncoder,
        n_classes: int,
        learning_rate: float = 1.0,
        decay: float = 1.0,
        window: int = DEFAULT_WINDOW,
    ):
        self.encoder = encoder
        self.n_classes = check_positive_int(n_classes, "n_classes")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.decay = float(decay)
        window = check_positive_int(window, "window")
        self._window: deque[bool] = deque(maxlen=window)
        self._model = np.zeros((self.n_classes, encoder.dim), dtype=np.float64)
        self.samples_seen = 0
        self._snapshot: ClassModel | None = None

    def partial_fit(self, features: np.ndarray, labels: np.ndarray) -> None:
        """Consume a batch in one adaptive pass (order-dependent).

        Inputs are validated like every other public ``fit``: a batch
        containing NaN/inf raises *before* any state is touched, so a bad
        sensor window can never poison the adaptive weights.

        The batch is applied **copy-commit**: all per-sample updates land
        on a private copy of the weights, which replaces ``self._model``
        only after the whole batch succeeded — immediately followed by
        the live-snapshot refresh.  An exception mid-batch (or a
        concurrent :meth:`class_model` consumer between samples) can
        therefore never observe half a batch or updated weights paired
        with a stale snapshot version.
        """
        batch = check_finite(check_2d(features, "features"), "features")
        labels = check_labels(labels, "labels", n_samples=batch.shape[0])
        if labels.max() >= self.n_classes:
            raise ValueError(f"labels must be in [0, {self.n_classes})")
        encoded = self.encoder.encode(batch).astype(np.float64)
        norms = np.linalg.norm(encoded, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        encoded = encoded / norms
        model = self._model.copy()
        rival_pushes = []
        hits: list[bool] = []
        for sample, label in zip(encoded, labels):
            similarities = np.asarray(cosine_similarity(sample, model))
            correct = int(label)
            # Prequential (test-then-train): score before this sample's
            # update so the window never grades the model on data it has
            # already absorbed.
            hits.append(bool(int(np.argmax(similarities)) == correct))
            if self.decay < 1.0:
                # Cosine scoring is scale-invariant, so decaying the whole
                # model only re-weights old evidence against the updates
                # below — it cannot change any prediction by itself.
                model *= self.decay
            own = similarities[correct]
            # Weight by how *badly* the model explains the sample.
            model[correct] += self.learning_rate * (1.0 - own) * sample
            others = np.delete(np.arange(self.n_classes), correct)
            if others.size:
                rival = int(others[np.argmax(similarities[others])])
                rival_sim = similarities[rival]
                if rival_sim > own:
                    model[rival] -= self.learning_rate * (rival_sim - own) * sample
                    rival_pushes.append(float(rival_sim - own))
        # Commit point: publish the batch and refresh the snapshot in one
        # step, so snapshot version and weights always move together.
        self._model = model
        self.samples_seen += batch.shape[0]
        self._window.extend(hits)
        if self._snapshot is not None:
            # A live-served snapshot must track every online update: the
            # refresh bumps its version counter, so any fused score table
            # built over it (FusedInferenceEngine caches by model version)
            # rebuilds on the next query instead of serving stale scores.
            self._refresh_snapshot()
        telemetry.count("online.samples", batch.shape[0])
        telemetry.count("online.updates.applied", len(rival_pushes))
        telemetry.count("online.updates.skipped", batch.shape[0] - len(rival_pushes))
        telemetry.count("online.prequential.errors", len(hits) - sum(hits))
        if telemetry.is_enabled():
            for magnitude in rival_pushes:
                telemetry.observe(
                    "online.rival_push", magnitude, buckets=_RIVAL_PUSH_BUCKETS
                )

    def drift_stats(self) -> dict:
        """Prequential window telemetry for drift monitoring.

        ``window_accuracy`` is test-then-train accuracy over the last
        ``window`` samples (``None`` before any training): a sharp dip
        followed by recovery is the signature of an absorbed drift event.
        """
        return {
            "samples_seen": self.samples_seen,
            "decay": self.decay,
            "window": self._window.maxlen,
            "window_filled": len(self._window),
            "window_accuracy": (
                float(np.mean(self._window)) if self._window else None
            ),
        }

    def _refresh_snapshot(self) -> None:
        assert self._snapshot is not None
        peak = float(np.abs(self._model).max()) if self._model.size else 0.0
        # Scale so rounding keeps ~3 significant digits per element.
        scale = 1.0 if peak == 0.0 else 1000.0 / peak
        self._snapshot.class_vectors = np.round(self._model * scale).astype(np.int64)
        self._snapshot.mark_dirty()

    def class_model(self) -> ClassModel:
        """The adaptive weights as a *live* (integer-scaled) ClassModel.

        The returned model is a persistent view: every later
        :meth:`partial_fit` refreshes its vectors in place and bumps its
        ``version`` counter, so consumers that cache state derived from it
        (a :class:`~repro.lookhd.inference.FusedInferenceEngine` score
        table serving this learner live) detect the update through the
        standard version-counter idiom instead of serving stale answers.

        An untrained (or degenerately all-zero) learner snapshots to an
        all-zero model with scale 1.0, not a ``1000 / 1e-12`` blow-up of
        numerical dust.
        """
        if self._snapshot is None:
            self._snapshot = ClassModel(self.n_classes, self.encoder.dim)
            self._refresh_snapshot()
        return self._snapshot

    def compressed(self, **kwargs) -> CompressedModel:
        """Compress the snapshot (same options as :class:`CompressedModel`)."""
        return CompressedModel(self.class_model(), **kwargs)

    # -- serving table lifecycle -----------------------------------------------

    def warm_tables(self) -> int:
        """Build the pre-bound encode table off the request path; returns bytes.

        Every :meth:`predict` and :meth:`partial_fit` encodes through the
        encoder's pre-bound table ``B = P ⊙ T``, so that is the table a
        registry must charge for a live learner — the same "charge what
        predict reads" rule as
        :meth:`~repro.lookhd.classifier.LookHDClassifier.warm_tables`.
        """
        self.encoder.prebound_table  # noqa: B018 — property access builds
        return self.serving_table_bytes()

    def release_tables(self) -> None:
        """Drop the pre-bound table; the next encode rebuilds it bit-identically."""
        self.encoder.invalidate_prebound()

    def serving_table_bytes(self) -> int:
        """Live bytes held by the pre-bound table (0 when released/unbuilt)."""
        return self.encoder.prebound_bytes_held()

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Classify with the current adaptive weights.

        A single ``(n,)`` sample returns a NumPy ``int64`` scalar (the
        library-wide single-query contract — see
        :meth:`repro.hdc.model.ClassModel.predict`); an ``(N, n)`` batch
        returns an ``(N,)`` ``int64`` array — including ``N == 0``, which
        returns an empty array rather than tripping on downstream shapes.
        """
        single = np.asarray(features).ndim == 1
        batch = check_finite(check_2d(features, "features"), "features")
        if batch.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        encoded = self.encoder.encode(batch).astype(np.float64)
        scores = np.atleast_2d(cosine_similarity(np.atleast_2d(encoded), self._model))
        predictions = np.argmax(scores, axis=1).astype(np.int64, copy=False)
        return predictions[0] if single else predictions

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy on a labelled batch.

        Labels are validated against the *feature* count before any
        prediction runs (the library-wide contract): a malformed labels
        array fails fast instead of silently broadcasting against the
        predictions — e.g. an ``(N, 1)`` labels array against a
        single-sample ``(1,)`` prediction.
        """
        batch = check_2d(features, "features")
        labels = check_labels(labels, "labels", n_samples=batch.shape[0])
        predictions = np.atleast_1d(self.predict(batch))
        return float(np.mean(predictions == labels))
