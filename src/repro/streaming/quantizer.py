"""Streaming equalized quantizer: sketch-backed boundaries with versioning.

``EqualizedQuantizer`` needs the whole training set in memory to place its
``i/q`` quantile boundaries.  :class:`StreamingQuantizer` replaces that
full pass with a :class:`~repro.streaming.sketch.QuantileSketch`: call
:meth:`partial_fit` on each arriving batch and the boundaries converge to
the full-pass placement within the sketch's rank-error guarantee, using
``O(k log(n/k))`` memory regardless of stream length.

Because downstream caches (the encoder's pre-bound table, fused score
tables) bake the value → level map into their addressing, every boundary
refresh bumps :attr:`~repro.quantization.base.Quantizer.version` — the
library-wide version-counter idiom — and :meth:`freeze` pins the
boundaries so a serving deployment can keep ingesting sketch updates
without churning its caches, then :meth:`unfreeze` to adopt the
accumulated picture in one hop.
"""

from __future__ import annotations

import numpy as np

from repro.quantization.base import Quantizer
from repro.quantization.equalized import separate_boundaries
from repro.streaming.sketch import DEFAULT_CAPACITY, QuantileSketch
from repro.utils.validation import check_finite


class StreamingQuantizer(Quantizer):
    """Equalized quantization learned single-pass from a stream.

    Satisfies the full :class:`~repro.quantization.base.Quantizer`
    contract — ``fit`` resets the sketch and ingests in one shot, so the
    class is a drop-in for :class:`EqualizedQuantizer` anywhere in the
    library — while adding the streaming surface:

    - :meth:`partial_fit` absorbs a batch and (unless frozen) refreshes
      the boundaries from the sketch, bumping ``version`` when they move.
    - :meth:`freeze` / :meth:`unfreeze` gate boundary refreshes for
      serving deployments that want cache stability under ingestion.
    - :meth:`rank_error_bound` exposes the sketch's instance-tracked
      guarantee, which the drift bench's divergence gate checks against.
    """

    def __init__(self, levels: int, sketch_capacity: int = DEFAULT_CAPACITY):
        super().__init__(levels)
        self.sketch = QuantileSketch(sketch_capacity)
        self._boundaries = np.empty(0, dtype=np.float64)
        self._frozen = False

    # -- streaming surface -----------------------------------------------------

    def partial_fit(self, values: np.ndarray) -> "StreamingQuantizer":
        """Absorb a batch of raw values and refresh boundaries if unfrozen.

        The sketch always ingests — freezing only pins the *published*
        boundaries, so an unfreeze adopts everything seen meanwhile.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return self
        check_finite(values, "values")
        self.sketch.update(values.ravel())
        self._fitted = True
        if not self._frozen:
            self._refresh_boundaries()
        return self

    def merge(self, other) -> "StreamingQuantizer":
        """Absorb a sketch — or another streaming quantizer's sketch —
        built by a parallel ingestion worker over its shard of the stream.

        The parallel-ingestion protocol: each worker feeds its own
        :class:`~repro.streaming.sketch.QuantileSketch` (same capacity),
        ships the sketch back, and the owning quantizer merges them —
        boundary placement then honours the *combined* stream within the
        composed rank-error bound.  Freezing applies as for
        :meth:`partial_fit`: the sketch always absorbs, the published
        boundaries only refresh (version-bumped) when unfrozen.
        """
        if isinstance(other, StreamingQuantizer):
            if other.levels != self.levels:
                raise ValueError(
                    f"cannot merge a {other.levels}-level quantizer into a "
                    f"{self.levels}-level one"
                )
            other = other.sketch
        self.sketch.merge(other)
        self._fitted = True
        if not self._frozen:
            self._refresh_boundaries()
        return self

    def freeze(self) -> "StreamingQuantizer":
        """Pin current boundaries; ingestion continues but versions do not."""
        self._frozen = True
        return self

    def unfreeze(self, refresh: bool = True) -> "StreamingQuantizer":
        """Resume boundary refreshes; by default adopt the sketch state now."""
        self._frozen = False
        if refresh and self.sketch.n:
            self._refresh_boundaries()
        return self

    @property
    def frozen(self) -> bool:
        """Whether boundary refreshes are currently pinned."""
        return self._frozen

    def rank_error_bound(self) -> float:
        """The sketch's relative rank-error guarantee ``ε`` for this stream."""
        return self.sketch.rank_error_bound()

    def _refresh_boundaries(self) -> None:
        """Recompute boundaries from the sketch; bump version if they moved."""
        fractions = np.arange(1, self.levels) / self.levels
        raw = np.maximum.accumulate(self.sketch.quantiles(fractions))
        boundaries = separate_boundaries(raw, self.sketch.max)
        if (
            boundaries.shape != self._boundaries.shape
            or not np.array_equal(boundaries, self._boundaries)
        ):
            self._boundaries = boundaries
            self._version += 1

    # -- Quantizer contract ----------------------------------------------------

    def _fit(self, flat_values: np.ndarray) -> None:
        # ``fit`` semantics are "learn from exactly this data": start a
        # fresh sketch so earlier partial_fit history does not leak in.
        self.sketch = QuantileSketch(self.sketch.capacity)
        self.sketch.update(flat_values)
        self._frozen = False
        self._refresh_boundaries()

    def _transform(self, values: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._boundaries, values, side="right").astype(np.int64)

    @property
    def boundaries(self) -> np.ndarray:
        return self._boundaries.copy()

    def searchsorted_boundaries(self) -> np.ndarray:
        return self._boundaries

    def describe(self) -> dict:
        """Sketch + boundary snapshot for bench payloads."""
        return {
            "levels": self.levels,
            "frozen": self._frozen,
            "version": self.version,
            "sketch": self.sketch.describe(),
        }
