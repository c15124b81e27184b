"""Bit-packed bipolar hypervectors: the hardware representation in software.

The paper's FPGA stores binary base hypervectors at one bit per element
(−1 ↦ 0, +1 ↦ 1) and computes with bitwise logic.  This module mirrors
that representation in NumPy ``uint64`` words:

* **binding** is XOR (sign multiplication in the ±1 domain),
* **Hamming similarity** is popcount,
* **permutation** is a word-level bit rotation,
* **majority bundling** packs the sign of an integer bundle.

A packed vector uses 64× less memory than ``int8`` bipolar storage and
its similarity search runs on whole words — the software analogue of the
paper's LUT-level datapaths, and the natural deployment format for the
binary-model related work (Sec. VII).
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.hdc.ops import BIPOLAR_DTYPE
from repro.utils.validation import check_positive_int

_WORD_BITS = 64


def _n_words(dim: int) -> int:
    return -(-dim // _WORD_BITS)


def pack_bipolar(vectors: np.ndarray) -> np.ndarray:
    """Pack ±1 vectors into ``uint64`` words (+1 ↦ 1, −1 ↦ 0).

    Accepts ``(D,)`` or ``(N, D)``; returns ``(W,)`` or ``(N, W)`` with
    ``W = ceil(D / 64)``.  Bit ``i`` of the packed row is element ``i``
    (little-endian within each word).
    """
    vectors = np.asarray(vectors)
    single = vectors.ndim == 1
    if single:
        vectors = vectors[np.newaxis, :]
    if not np.all(np.isin(vectors, (-1, 1))):
        raise ValueError("pack_bipolar requires strictly ±1 input")
    bits = (vectors > 0).astype(np.uint8)
    dim = bits.shape[1]
    padded = np.zeros((bits.shape[0], _n_words(dim) * _WORD_BITS), dtype=np.uint8)
    padded[:, :dim] = bits
    packed = np.packbits(padded, axis=1, bitorder="little").view(np.uint64)
    return packed[0] if single else packed


def unpack_bipolar(packed: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`pack_bipolar` for dimensionality ``dim``."""
    check_positive_int(dim, "dim")
    packed = np.asarray(packed, dtype=np.uint64)
    single = packed.ndim == 1
    if single:
        packed = packed[np.newaxis, :]
    as_bytes = packed.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :dim]
    vectors = (2 * bits.astype(np.int8) - 1).astype(BIPOLAR_DTYPE)
    return vectors[0] if single else vectors


def xor_bind(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bind packed vectors: XOR realises ±1 multiplication bit-wise.

    NOTE: in the 0/1 encoding, multiplication of signs is XNOR of bits;
    we use XOR and absorb the global inversion, which is irrelevant for
    Hamming *ranking* but flips absolute similarity.  To keep semantics
    exact we complement the result, so
    ``unpack(xor_bind(pack(x), pack(y))) == x * y``.
    """
    return ~(np.asarray(a, dtype=np.uint64) ^ np.asarray(b, dtype=np.uint64))


def _popcount(words: np.ndarray) -> np.ndarray:
    """Per-row population count of ``(…, W)`` uint64 words.

    Routed through the ``kernels.packed_popcount`` primitive,
    which owns the NumPy ≥ 2 ``np.bitwise_count`` feature check (one
    check at import, in :mod:`repro.kernels.reference`) and the tested
    256-entry byte-LUT fallback for older NumPy.
    """
    return kernels.packed_popcount(words)


def hamming_matches(query: np.ndarray, keys: np.ndarray, dim: int) -> np.ndarray:
    """Number of matching elements between packed vectors.

    Padding bits beyond ``dim`` are identical across packed rows produced
    by :func:`pack_bipolar` (always zero), so they are masked off exactly.
    """
    check_positive_int(dim, "dim")
    query = np.atleast_2d(np.asarray(query, dtype=np.uint64))
    keys = np.atleast_2d(np.asarray(keys, dtype=np.uint64))
    diff = query[:, np.newaxis, :] ^ keys[np.newaxis, :, :]
    # Mask padding in the last word so it never counts as agreement; the
    # XOR result is a fresh array, so masking in place is safe and the
    # popcount runs exactly once either way.
    pad = _n_words(dim) * _WORD_BITS - dim
    if pad:
        last_mask = np.uint64((1 << (_WORD_BITS - pad)) - 1)
        diff[..., -1] &= last_mask
    return dim - _popcount(diff)


class PackedAssociativeMemory:
    """Binary associative memory over packed class hypervectors.

    The software model of the paper's combinational associative memory
    (related work [63]): classes are sign-binarised, packed, and queries
    classify by maximum Hamming match — one popcount per class word.
    """

    def __init__(self, class_vectors: np.ndarray):
        class_vectors = np.asarray(class_vectors)
        if class_vectors.ndim != 2:
            raise ValueError("class_vectors must be (k, D)")
        self.dim = class_vectors.shape[1]
        signs = np.sign(class_vectors).astype(np.int8)
        signs[signs == 0] = 1
        self.packed = pack_bipolar(signs)
        self.n_classes = class_vectors.shape[0]

    def predict(self, queries: np.ndarray) -> np.ndarray:
        """Classify ±1 (or integer, sign-taken) queries."""
        queries = np.atleast_2d(np.asarray(queries))
        signs = np.sign(queries).astype(np.int8)
        signs[signs == 0] = 1
        packed_queries = pack_bipolar(signs)
        matches = hamming_matches(packed_queries, self.packed, self.dim)
        predictions = np.argmax(matches, axis=1)
        return int(predictions[0]) if queries.shape[0] == 1 else predictions

    def memory_bytes(self) -> int:
        """Deployed footprint: one bit per element."""
        return int(np.atleast_2d(self.packed).nbytes)
