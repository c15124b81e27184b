import numpy as np
import pytest

from repro.hdc.item_memory import LevelItemMemory
from repro.lookhd.chunking import ChunkLayout
from repro.lookhd.encoder import LookupEncoder
from repro.lookhd.lookup_table import ChunkLookupTable
from repro.quantization.equalized import EqualizedQuantizer


def make_encoder(n_features=12, chunk=4, levels=4, dim=256, seed=0, bind_positions=True):
    rng = np.random.default_rng(seed)
    quantizer = EqualizedQuantizer(levels).fit(rng.random(1000))
    memory = LevelItemMemory(levels, dim, rng=seed)
    table = ChunkLookupTable(memory, chunk)
    layout = ChunkLayout(n_features, chunk)
    return LookupEncoder(quantizer, table, layout, seed=seed, bind_positions=bind_positions)


class TestLookupEncoder:
    def test_output_shape(self):
        encoder = make_encoder()
        assert encoder.encode(np.random.default_rng(0).random(12)).shape == (256,)

    def test_batch_shape(self):
        encoder = make_encoder()
        out = encoder.encode(np.random.default_rng(1).random((5, 12)))
        assert out.shape == (5, 256)

    def test_matches_equation_three(self):
        # H = sum_i P_i * T[address_i], bit-exact.
        encoder = make_encoder()
        sample = np.random.default_rng(2).random(12)
        addresses = encoder.addresses(sample)[0]
        expected = np.zeros(256, dtype=np.int64)
        for chunk_index, address in enumerate(addresses):
            chunk_hv = encoder.lookup_table.table[address].astype(np.int64)
            expected += chunk_hv * encoder.position_memory[chunk_index].astype(np.int64)
        assert np.array_equal(encoder.encode(sample), expected)

    def test_chunk_order_matters_with_positions(self):
        encoder = make_encoder(n_features=8, chunk=4)
        rng = np.random.default_rng(3)
        first, second = rng.random(4), rng.random(4)
        a = encoder.encode(np.concatenate([first, second]))
        b = encoder.encode(np.concatenate([second, first]))
        assert not np.array_equal(a, b)

    def test_chunk_order_ignored_without_positions(self):
        # The naive aggregation the paper rejects: swapping whole chunks
        # encodes identically.
        encoder = make_encoder(n_features=8, chunk=4, bind_positions=False)
        rng = np.random.default_rng(4)
        first, second = rng.random(4), rng.random(4)
        a = encoder.encode(np.concatenate([first, second]))
        b = encoder.encode(np.concatenate([second, first]))
        assert np.array_equal(a, b)

    def test_addresses_in_range(self):
        encoder = make_encoder()
        addresses = encoder.addresses(np.random.default_rng(5).random((20, 12)))
        assert addresses.min() >= 0
        assert addresses.max() < len(encoder.lookup_table)

    def test_uneven_features_padded(self):
        encoder = make_encoder(n_features=10, chunk=4)
        assert encoder.layout.n_chunks == 3
        assert encoder.encode(np.random.default_rng(6).random(10)).shape == (256,)

    def test_wrong_width_rejected(self):
        encoder = make_encoder(n_features=12)
        with pytest.raises(ValueError):
            encoder.encode(np.zeros(13))

    def test_q_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        quantizer = EqualizedQuantizer(8).fit(rng.random(100))
        memory = LevelItemMemory(4, 64, rng=0)
        table = ChunkLookupTable(memory, 2)
        with pytest.raises(ValueError):
            LookupEncoder(quantizer, table, ChunkLayout(4, 2))

    def test_encode_many_matches_encode(self):
        encoder = make_encoder()
        batch = np.random.default_rng(8).random((30, 12))
        assert np.array_equal(
            encoder.encode_many(batch, batch_size=7), encoder.encode(batch)
        )

    def test_deterministic_across_instances(self):
        a = make_encoder(seed=5)
        b = make_encoder(seed=5)
        sample = np.random.default_rng(9).random(12)
        assert np.array_equal(a.encode(sample), b.encode(sample))

    def test_single_sample_matches_batch_row(self):
        # 1-D parity: encode(x) must be bit-identical to encode(X)[i] on
        # both the pre-bound and the raw-table (bind-on-the-fly) paths.
        batch = np.random.default_rng(10).random((6, 12))
        for prebind_budget in (2**30, 0):
            encoder = make_encoder()
            encoder.prebind_budget_bytes = prebind_budget
            encoded_batch = encoder.encode(batch)
            for index in range(batch.shape[0]):
                single = encoder.encode(batch[index])
                assert single.shape == (encoder.dim,)
                assert np.array_equal(single, encoded_batch[index])


class TestEncoderPickling:
    def test_pickle_round_trip_encodes_identically(self):
        # The parallel trainer broadcasts the fitted encoder to worker
        # processes by pickling it; the copy must encode bit-identically.
        import pickle

        encoder = make_encoder()
        batch = np.random.default_rng(11).random((5, 12))
        expected = encoder.encode(batch)
        clone = pickle.loads(pickle.dumps(encoder))
        assert np.array_equal(clone.encode(batch), expected)
        assert np.array_equal(clone.addresses(batch), encoder.addresses(batch))

    def test_pickle_drops_prebound_cache(self):
        # The lazy pre-bound table is a cache keyed by a module-level
        # sentinel; it must not travel (the sentinel's identity does not
        # survive pickling) and must rebuild on demand in the clone.
        import pickle

        encoder = make_encoder()
        batch = np.random.default_rng(12).random((4, 12))
        encoder.encode(batch)  # builds the pre-bound cache when in budget
        clone = pickle.loads(pickle.dumps(encoder))
        assert clone.prebound_table is None or isinstance(clone.prebound_table, np.ndarray)
        assert np.array_equal(clone.encode(batch), encoder.encode(batch))

