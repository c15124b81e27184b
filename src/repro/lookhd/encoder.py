"""Lookup-based encoder with position-bound chunk aggregation (Eq. 3).

Encoding a sample is: quantize features → form chunk addresses → read the
``m`` pre-stored chunk hypervectors → bind each with its position
hypervector ``P_i`` → sum:

    H = P_1 ⊙ H_1 + P_2 ⊙ H_2 + … + P_m ⊙ H_m

The position binding preserves chunk order; without it, permuting whole
chunks of the input would encode to the same hypervector (the "naive
aggregation" the paper rejects, kept available here for the ablation
bench).

Fast path
---------
Because binding with a fixed position vector is itself a table transform,
the per-sample multiply can be hoisted out of the batch loop entirely: the
*pre-bound* table ``B[i] = P_i ⊙ T`` (shape ``(m, q^r, D)``) is built once,
lazily, under a configurable memory budget, after which encoding is a pure
gather + sum — no elementwise multiply per sample and no ``(N, m, D)``
intermediate.  When the pre-bound table exceeds the budget the encoder
falls back to a chunk-at-a-time loop that binds on the fly but still never
materialises the ``(N, m, D)`` tensor.  Both paths are bit-identical to
the reference Eq. 3 implementation (integer arithmetic, addition
reordering only), which is kept as :meth:`LookupEncoder.encode_reference`
for equivalence tests and benchmarking.
"""

from __future__ import annotations

import numpy as np

from repro import kernels, telemetry
from repro.hdc.item_memory import RandomItemMemory
from repro.hdc.ops import ACCUM_DTYPE
from repro.lookhd.chunking import ChunkLayout
from repro.lookhd.lookup_table import ChunkLookupTable
from repro.quantization.base import Quantizer
from repro.utils.rng import derive_rng
from repro.utils.validation import check_2d

#: Default ceiling for the pre-bound table ``B = P ⊙ T``; above this the
#: encoder silently falls back to binding on the fly (still fused).
DEFAULT_PREBIND_BUDGET_BYTES = 256 * 2**20

#: Sentinel distinguishing "not built yet" from "over budget" (None).
_UNSET = object()


class LookupEncoder:
    """Encode feature vectors via the chunk lookup table.

    Parameters
    ----------
    quantizer:
        Fitted quantizer with ``q`` levels.
    lookup_table:
        Pre-built table for chunks of size ``r`` over the same levels.
    layout:
        Chunk geometry for the expected feature width.
    seed:
        Seed for the position hypervectors ``P_1 … P_m``.
    bind_positions:
        When ``False``, chunks are aggregated by plain addition (the naive
        scheme of Sec. III-A); used only for ablation.
    prebind_budget_bytes:
        Memory ceiling for the lazily built pre-bound table ``B = P ⊙ T``.
        Set to 0 to disable pre-binding entirely.
    """

    def __init__(
        self,
        quantizer: Quantizer,
        lookup_table: ChunkLookupTable,
        layout: ChunkLayout,
        seed: int | np.random.Generator | None = 0,
        bind_positions: bool = True,
        prebind_budget_bytes: int = DEFAULT_PREBIND_BUDGET_BYTES,
    ):
        if quantizer.levels != lookup_table.q:
            raise ValueError("quantizer and lookup table disagree on q")
        if layout.chunk_size != lookup_table.chunk_size:
            raise ValueError("layout and lookup table disagree on chunk size")
        self.quantizer = quantizer
        self.lookup_table = lookup_table
        self.layout = layout
        self.dim = lookup_table.dim
        self.bind_positions = bind_positions
        self.prebind_budget_bytes = int(prebind_budget_bytes)
        self.position_memory = RandomItemMemory(
            layout.n_chunks, self.dim, rng=derive_rng(seed, "positions")
        )
        self._prebound = _UNSET
        self._quantizer_version = quantizer.version

    @property
    def n_features(self) -> int:
        return self.layout.n_features

    @property
    def encoding_version(self) -> int:
        """Version of the value → address map this encoder realises.

        Tracks :attr:`Quantizer.version`: when a streaming quantizer
        refreshes its boundaries, the *meaning* of every chunk address
        shifts, so anything cached against addresses produced earlier is
        stale.  Reading this property syncs the encoder — the pre-bound
        table is dropped on a version change (conservative: its values do
        not embed boundaries, but dropping it puts every boundary move
        through one rebuild path) — and consumers such as
        :class:`~repro.lookhd.inference.FusedInferenceEngine` key their
        fused score tables to the returned counter, mirroring how
        ``model.version`` keys the class-model side.
        """
        version = self.quantizer.version
        if version != self._quantizer_version:
            self._quantizer_version = version
            self.invalidate_prebound()
        return version

    def __getstate__(self) -> dict:
        # The pre-bound table is a pure cache of table × positions; drop it
        # so worker broadcasts stay small.  It also must not be pickled:
        # the _UNSET sentinel would not survive a round trip (a fresh
        # ``object()`` on unpickling would no longer be ``is _UNSET``).
        state = self.__dict__.copy()
        state.pop("_prebound", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._prebound = _UNSET

    def addresses(self, features: np.ndarray) -> np.ndarray:
        """Quantize and form chunk addresses: ``(N, n)`` floats → ``(N, m)`` ints."""
        batch = check_2d(features, "features")
        if batch.shape[1] != self.layout.n_features:
            raise ValueError(
                f"expected {self.layout.n_features} features, got {batch.shape[1]}"
            )
        levels = self.quantizer.transform(batch)
        return self.layout.addresses(levels, self.quantizer.levels)

    # -- pre-bound table -------------------------------------------------------

    def prebound_bytes_needed(self) -> int:
        """Footprint of the full ``(m, q^r, D)`` pre-bound table."""
        return (
            self.layout.n_chunks
            * self.lookup_table.n_rows
            * self.dim
            * self.lookup_table.table.itemsize
        )

    @property
    def prebound_table(self) -> np.ndarray | None:
        """The pre-bound table ``B[i] = P_i ⊙ T``, or ``None`` if over budget.

        Built lazily on first access; ``(m, q^r, D)`` in the lookup table's
        dtype.  Position binding is a ±1 multiply, so the dtype never widens.
        """
        self.encoding_version  # sync against quantizer boundary moves
        # Single read, local return: a concurrent invalidate_prebound()
        # (registry eviction releasing a tenant's tables mid-request) must
        # never leak the _UNSET sentinel to a caller that already passed
        # the check — it keeps the complete table, the next access rebuilds.
        prebound = self._prebound
        if prebound is _UNSET:
            if (
                not self.bind_positions
                or self.prebound_bytes_needed() > self.prebind_budget_bytes
            ):
                prebound = None
            else:
                table = self.lookup_table.table
                prebound = (
                    table[np.newaxis, :, :]
                    * self.position_memory.vectors[:, np.newaxis, :].astype(table.dtype)
                )
            self._prebound = prebound
        return prebound

    def prebound_bytes_held(self) -> int:
        """Bytes actually held by the built pre-bound table (0 when unbuilt).

        Unlike :meth:`prebound_bytes_needed` this reports live memory, so
        the serving registry can account cached table sets against its
        byte budget without forcing a build.
        """
        if self._prebound is _UNSET or self._prebound is None:
            return 0
        return int(self._prebound.nbytes)

    def invalidate_prebound(self) -> None:
        """Drop the pre-bound table so the next access rebuilds it.

        In-place corruption of the cached table is invisible to the
        quantizer-version key.  The integrity layer
        (:mod:`repro.resilience`) calls this to force a rebuild from the
        raw lookup table and positions.
        """
        self._prebound = _UNSET
        telemetry.count("encoder.prebound.invalidations")

    # -- encoding --------------------------------------------------------------

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode one sample or a batch to ``(D,)`` / ``(N, D)`` hypervectors."""
        single = np.asarray(features).ndim == 1
        encoded = self.encode_addresses(self.addresses(features))
        return encoded[0] if single else encoded

    def encode_addresses(self, addresses: np.ndarray) -> np.ndarray:
        """Encode pre-computed ``(N, m)`` chunk addresses to ``(N, D)``.

        Accumulates one chunk position at a time — a gather + add per chunk
        against the pre-bound table when it fits the budget, otherwise a
        gather + bind + add against the raw table.  Either way the peak
        intermediate is ``(N, D)``, never ``(N, m, D)``.
        """
        addresses = np.asarray(addresses)
        prebound = self.prebound_table
        if prebound is not None:
            # The gather_accumulate primitive: gather + sum per
            # chunk position, accumulated directly in ACCUM_DTYPE.
            encoded = kernels.gather_accumulate(prebound, addresses, ACCUM_DTYPE)
            telemetry.count("encoder.encode.batches", path="prebound")
            telemetry.count("encoder.encode.samples", encoded.shape[0])
            telemetry.count("encoder.encode.bytes", encoded.nbytes)
            return encoded
        encoded = np.zeros((addresses.shape[0], self.dim), dtype=ACCUM_DTYPE)
        table = self.lookup_table.table
        positions = self.position_memory.vectors
        for chunk in range(self.layout.n_chunks):
            chunk_hvs = table[addresses[:, chunk]].astype(ACCUM_DTYPE)
            if self.bind_positions:
                chunk_hvs *= positions[chunk]
            encoded += chunk_hvs
        telemetry.count("encoder.encode.batches", path="raw_table")
        telemetry.count("encoder.encode.samples", encoded.shape[0])
        telemetry.count("encoder.encode.bytes", encoded.nbytes)
        return encoded

    def encode_reference(self, features: np.ndarray) -> np.ndarray:
        """Reference Eq. 3 path: materialises the ``(N, m, D)`` intermediate.

        Kept verbatim for equivalence tests and as the benchmark baseline;
        bit-identical to :meth:`encode` (integer addition commutes).
        """
        single = np.asarray(features).ndim == 1
        addresses = self.addresses(features)  # (N, m)
        chunk_hvs = self.lookup_table.lookup(addresses).astype(ACCUM_DTYPE)  # (N, m, D)
        if self.bind_positions:
            chunk_hvs = chunk_hvs * self.position_memory.vectors[np.newaxis, :, :]
        encoded = chunk_hvs.sum(axis=1)
        return encoded[0] if single else encoded

    def encode_many(self, features: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Encode a large dataset in memory-bounded batches.

        The output is preallocated once and filled in place, so peak memory
        stays at one output array plus one ``(batch_size, D)`` working set.
        """
        batch = check_2d(features, "features")
        encoded = np.empty((batch.shape[0], self.dim), dtype=ACCUM_DTYPE)
        for start in range(0, batch.shape[0], batch_size):
            stop = min(start + batch_size, batch.shape[0])
            encoded[start:stop] = self.encode_addresses(self.addresses(batch[start:stop]))
        return encoded
