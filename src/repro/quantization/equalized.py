"""Equalized (quantile) quantization — the paper's proposed scheme."""

from __future__ import annotations

import numpy as np

from repro.quantization.base import Quantizer


def separate_boundaries(boundaries: np.ndarray, data_max: float) -> np.ndarray:
    """Make quantile boundaries strictly increasing without leaving the data.

    Heavy point masses can collapse several quantiles onto one value; the
    upward pass nudges duplicates one ulp apart so distinct input values
    never share a level just because the boundary list had ties.  (ulp
    spacing scales exactly with the data's magnitude, keeping the
    quantizer invariant under exact rescaling.)

    When the tie sits at the data maximum, an unchecked nudge chain pushes
    the top boundary *above* every value the quantizer will ever see —
    the highest level silently becomes unreachable and the tied mass lands
    one level short.  The downward pass clamps the chain so the last
    boundary never exceeds ``data_max``, repairing earlier duplicates one
    ulp *below* instead: the data maximum always reaches the top level and
    every level keeps a non-empty preimage (``searchsorted`` side="right"
    maps each boundary value to its own level).

    Shared by :class:`EqualizedQuantizer` (full-pass quantiles) and
    :class:`~repro.streaming.StreamingQuantizer` (sketch quantiles) so the
    two paths disagree only in where the quantiles came from.
    """
    boundaries = np.asarray(boundaries, dtype=np.float64).copy()
    for index in range(1, boundaries.size):
        if boundaries[index] <= boundaries[index - 1]:
            boundaries[index] = np.nextafter(boundaries[index - 1], np.inf)
    if boundaries.size and boundaries[-1] > data_max:
        boundaries[-1] = data_max
        for index in range(boundaries.size - 2, -1, -1):
            if boundaries[index] >= boundaries[index + 1]:
                boundaries[index] = np.nextafter(boundaries[index + 1], -np.inf)
    return boundaries


class EqualizedQuantizer(Quantizer):
    """Quantize so every level receives (approximately) equal mass.

    Boundaries are placed at the ``i/q`` quantiles of the training values
    (Sec. III-B, Fig. 3b).  With skewed feature distributions this packs
    resolution where the data actually lives, which is why the paper reaches
    baseline accuracy with ``q = 2``–``4`` levels — small enough to make the
    ``q^r`` chunk lookup table practical.
    """

    def __init__(self, levels: int):
        super().__init__(levels)
        self._boundaries = np.empty(0, dtype=np.float64)

    def _fit(self, flat_values: np.ndarray) -> None:
        quantiles = np.arange(1, self.levels) / self.levels
        boundaries = np.maximum.accumulate(np.quantile(flat_values, quantiles))
        self._boundaries = separate_boundaries(boundaries, float(flat_values.max()))

    def _transform(self, values: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._boundaries, values, side="right").astype(np.int64)

    @property
    def boundaries(self) -> np.ndarray:
        return self._boundaries.copy()

    def searchsorted_boundaries(self) -> np.ndarray:
        return self._boundaries

    def balance(self, values: np.ndarray) -> float:
        """Ratio of the emptiest to fullest level occupancy in ``values``.

        1.0 is perfectly equalized; linear quantization on skewed data
        scores near 0.  Useful as a quantitative Fig. 3 companion.
        """
        counts = self.level_counts(values)
        fullest = counts.max()
        return float(counts.min() / fullest) if fullest else 0.0
