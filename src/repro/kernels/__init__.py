"""The batched lookup-domain hot-path primitives.

The paper's pitch is that LookHD reduces HD learning to a handful of
cheap hardware primitives.  This package makes that explicit in the
software reproduction: quantized chunk addressing, counter
observe/materialise, fused score-table gather-accumulate, packed
popcount and compressed-model scoring are each defined once, in NumPy,
in :mod:`repro.kernels.reference`, and re-exported here.

Callers reach them as module attributes, one call per batch::

    from repro import kernels

    addresses = kernels.chunk_addresses(levels, q, r, m)
    scores = kernels.gather_accumulate(score_table, addresses)

Fused predict has one compiled kernel besides: :func:`fused_predict`
quantizes, addresses, scores and takes the argmax of each row in a
single C pass (``fused_predict.c``, built on first use with the system
compiler by :mod:`repro.kernels.compiled`).  The NumPy composition above
is its fallback and its test oracle.  :func:`current_mode` says which
one serves and :func:`fallback_reason` why the NumPy path does.
"""

from __future__ import annotations

from repro.kernels.compiled import fallback_reason, fused_predict, kernel
from repro.kernels.reference import (
    BITWISE_COUNT,
    OP_NAMES,
    POPCOUNT_LUT,
    REFERENCE_OPS,
    chunk_addresses,
    compressed_score,
    counter_materialize,
    counter_observe,
    gather_accumulate,
    packed_popcount,
    popcount_lut,
)

__all__ = [
    "BITWISE_COUNT",
    "OP_NAMES",
    "POPCOUNT_LUT",
    "REFERENCE_OPS",
    "active_backends",
    "chunk_addresses",
    "compressed_score",
    "counter_materialize",
    "counter_observe",
    "current_mode",
    "fallback_reason",
    "fused_predict",
    "gather_accumulate",
    "packed_popcount",
    "popcount_lut",
]


def current_mode() -> str:
    """The path serving fused predict: ``"compiled"`` or ``"numpy"``."""
    return "numpy" if kernel() is None else "compiled"


def active_backends() -> dict[str, str]:
    """``{op: "numpy"}`` for every primitive, plus ``fused_predict``'s mode."""
    return {**{op: "numpy" for op in OP_NAMES}, "fused_predict": current_mode()}
