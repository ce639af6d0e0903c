"""Attention mechanism tests against explicit-loop oracles, plus the
score-product accounting and the masking corner cases."""

import re

import numpy as np
import pytest

from multiformer.attention import (ConvParams, OpCounter, conv_compress,
                                   full_attention, local_attention)
from multiformer.mhma import HeadSpec
from multiformer.oracles import naive_attention, naive_conv1d
from multiformer.tensor import Tensor, band_to_dense, band_uses_gemm, using_dtype


def local(window):
    return HeadSpec("local", window=window)


def hole_mask(rng, n):
    # random validity with at least one True
    keep = rng.random(n) > 0.35
    if not keep.any():
        keep[rng.integers(n)] = True
    return keep


def _compress(x, mask):
    rng = np.random.default_rng(0)
    d = x.shape[-1]
    params = ConvParams(kernel=3, stride=2, weights=Tensor(rng.normal(size=(3, d, d))),
                        bias=Tensor(rng.normal(size=d)))
    xc, keep_c = conv_compress(x, params, mask)
    return xc.data, keep_c


# Each kernel run over one self-attention stream x under a key mask.
KERNELS = {
    "full": lambda x, mask: (full_attention(x, x, x, mask)[0].data,),
    "local": lambda x, mask: (local_attention(x, x, x, local(2), mask)[0].data,),
    "conv": _compress,
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
class TestKeyMaskRule:
    """Every kernel reads a key mask by one rule: None is all valid, the
    last axis covers the stream, and the leading axes broadcast over its
    batch axes, which rules out a per-query mask."""

    B, N = 2, 5

    def stream(self):
        return Tensor(np.random.default_rng(1).normal(size=(self.B, self.N, 3)))

    def test_none_means_all_valid(self, kernel):
        x = self.stream()
        with using_dtype("float64"):
            got = KERNELS[kernel](x, None)
            want = KERNELS[kernel](x, np.ones(self.N, dtype=bool))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_wrong_length_raises(self, kernel):
        with pytest.raises(ValueError, match="mask covers 4 positions, expected 5"):
            KERNELS[kernel](self.stream(), np.ones(self.N - 1, dtype=bool))

    def test_per_query_mask_raises(self, kernel):
        causal = np.tril(np.ones((self.N, self.N), dtype=bool))
        with pytest.raises(ValueError, match="does not broadcast"):
            KERNELS[kernel](self.stream(), causal)

    def test_batch_axes_must_broadcast(self, kernel):
        keep = np.ones((3, self.N), dtype=bool)
        with pytest.raises(ValueError, match=r"mask \(3, 5\) .* \(2, 5\) positions"):
            KERNELS[kernel](self.stream(), keep)


class TestOpCounter:
    def test_accumulates(self):
        c = OpCounter()
        assert c.score_products == 0
        c.add(10)
        c.add(5)
        assert c.score_products == 15


class TestFullAttention:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_oracle_with_key_mask(self, seed):
        rng = np.random.default_rng(seed)
        n, m, d = int(rng.integers(2, 24)), int(rng.integers(2, 24)), 8
        q, k, v = rng.normal(size=(n, d)), rng.normal(size=(m, d)), rng.normal(size=(m, d))
        keep = hole_mask(rng, m)
        with using_dtype("float64"):
            z, a = full_attention(Tensor(q), Tensor(k), Tensor(v), keep)
        zr, ar = naive_attention(q, k, v, valid=keep)
        np.testing.assert_allclose(z.data, zr, atol=1e-12)
        np.testing.assert_allclose(a.data, ar, atol=1e-12)

    def test_counter_is_n_times_m_per_sequence(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(3, 5, 4)))
        kv = Tensor(rng.normal(size=(3, 7, 4)))
        c = OpCounter()
        full_attention(q, kv, kv, counter=c)
        assert c.score_products == 3 * 5 * 7

    def test_batched_key_mask_broadcasts_over_queries(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(2, 4, 4))
        kv = rng.normal(size=(2, 6, 4))
        keep = np.ones((2, 6), dtype=bool)
        keep[0, 3:] = False
        with using_dtype("float64"):
            _, a = full_attention(Tensor(q), Tensor(kv), Tensor(kv), keep)
        assert (a.data[0, :, 3:] == 0.0).all()
        np.testing.assert_allclose(a.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_per_query_causal_mask(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4))
        causal = np.tril(np.ones((5, 5), dtype=bool))
        with using_dtype("float64"):
            _, a = full_attention(Tensor(x), Tensor(x), Tensor(x), causal)
        assert (np.triu(a.data, 1) == 0.0).all()

    @pytest.mark.parametrize("batch", [4, 3])
    def test_key_mask_is_per_sequence_whatever_the_batch_size(self, batch):
        """A [B, m] mask is key validity per sequence, also when B equals
        the query count n."""
        rng = np.random.default_rng(4)
        n = 4
        q, kv = rng.normal(size=(batch, n, 3)), rng.normal(size=(batch, n, 3))
        keep = np.ones((batch, n), dtype=bool)
        keep[0, 1:] = False
        keep[1, 0] = False
        with using_dtype("float64"):
            z, a = full_attention(Tensor(q), Tensor(kv), Tensor(kv), keep)
        for b in range(batch):
            zr, ar = naive_attention(q[b], kv[b], kv[b], valid=keep[b])
            np.testing.assert_allclose(z.data[b], zr, atol=1e-12)
            np.testing.assert_allclose(a.data[b], ar, atol=1e-12)

    def test_batched_per_query_causal_mask(self):
        """A [B, n, m] mask has q's rank, so it is per-query."""
        rng = np.random.default_rng(5)
        b, n = 4, 4
        x = rng.normal(size=(b, n, 3))
        causal = np.tril(np.ones((n, n), dtype=bool))
        with using_dtype("float64"):
            _, a = full_attention(Tensor(x), Tensor(x), Tensor(x),
                                  np.broadcast_to(causal, (b, n, n)))
            for i in range(b):
                _, ai = full_attention(Tensor(x[i]), Tensor(x[i]), Tensor(x[i]), causal)
                np.testing.assert_allclose(a.data[i], ai.data, atol=1e-12)
        assert (np.triu(a.data, 1) == 0.0).all()

    def test_unbatched_square_mask_with_batched_q_must_fit_the_batch(self):
        """With batched q, an [n, m] mask is a key mask over the batch axis,
        so B != n cannot be read and raises with both shapes."""
        q = Tensor(np.zeros((3, 4, 2)))
        causal = np.tril(np.ones((4, 4), dtype=bool))
        with pytest.raises(ValueError, match=r"mask \(4, 4\).*\(3, 4\) positions"):
            full_attention(q, q, q, causal)

    def test_batched_key_mask_names_the_empty_rows(self):
        """A [B, m] key mask that empties one sequence reports every query
        row of that sequence, as [batch, query] indices."""
        q = Tensor(np.random.default_rng(13).normal(size=(3, 3, 4)))
        kv = Tensor(np.random.default_rng(14).normal(size=(3, 5, 4)))
        keep = np.ones((3, 5), dtype=bool)
        keep[1] = False
        msg = "softmax row(s) fully masked at index [[1, 0], [1, 1], [1, 2]]"
        with pytest.raises(ValueError, match=re.escape(msg) + "$"):
            full_attention(q, kv, kv, keep)

    def test_shape_and_mask_validation(self):
        q = Tensor(np.zeros((3, 4)))
        k = Tensor(np.zeros((5, 4)))
        with pytest.raises(ValueError, match="mismatch"):
            full_attention(q, k, Tensor(np.zeros((5, 3))))
        with pytest.raises(ValueError, match="mask covers"):
            full_attention(q, k, k, np.ones(4, dtype=bool))
        with pytest.raises(ValueError, match="fully masked"):
            full_attention(q, k, k, np.zeros(5, dtype=bool))


class TestLocalAttention:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_banded_oracle(self, seed):
        """At a drawn n, and at one length on each side of the crossover
        where banded attend turns from dense GEMMs to per-row products."""
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(3, 30))
        w = 2 * int(rng.integers(1, 6))
        half = w // 2
        crossover = next(m for m in range(1, 1000) if not band_uses_gemm(m, half))
        gemm_n = int(rng.integers(w + 2, crossover))
        rows_n = int(rng.integers(crossover, crossover + 30))
        assert band_uses_gemm(gemm_n, half) and not band_uses_gemm(rows_n, half)
        for n in (n, gemm_n, rows_n):
            x = rng.normal(size=(n, 6))
            keep = hole_mask(rng, n)
            with using_dtype("float64"):
                z, bw = local_attention(Tensor(x), Tensor(x), Tensor(x),
                                        local(w), keep)
            zr, ar = naive_attention(x, x, x, valid=keep, band_half=half)
            np.testing.assert_allclose(z.data, zr, atol=1e-12)
            np.testing.assert_allclose(bw.dense(), ar, atol=1e-12)

    def test_wide_window_bit_matches_full(self):
        """A window covering every pair must reproduce full attention down
        to the last bit, not merely within tolerance."""
        rng = np.random.default_rng(4)
        n = 9
        x = rng.normal(size=(2, n, 5))
        keep = np.ones((2, n), dtype=bool)
        keep[1, 6:] = False
        zf, af = full_attention(Tensor(x), Tensor(x), Tensor(x), keep)
        zl, bl = local_attention(Tensor(x), Tensor(x), Tensor(x),
                                 local(2 * (n - 1)), keep)
        assert np.array_equal(zl.data[keep], zf.data[keep])
        assert np.array_equal(bl.dense()[keep], af.data[keep])

    def test_band_truncates_at_boundaries(self):
        # n=4, w=2: token 0 sees {0,1}, token 3 sees {2,3}
        x = np.eye(4, 3)
        with using_dtype("float64"):
            _, bw = local_attention(Tensor(x), Tensor(x), Tensor(x), local(2))
        a = bw.dense()
        assert a[0, 2] == 0.0 and a[0, 3] == 0.0
        assert a[3, 0] == 0.0 and a[3, 1] == 0.0
        np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12)

    def test_padded_queries_get_zero_rows(self):
        rng = np.random.default_rng(5)
        n = 10
        x = rng.normal(size=(n, 4))
        keep = np.zeros(n, dtype=bool)
        keep[:4] = True
        with using_dtype("float64"):
            z, bw = local_attention(Tensor(x), Tensor(x), Tensor(x),
                                    local(4), keep)
        a = bw.dense()
        # a padded query has no valid in-band key once it sits far enough out
        assert (a[7:] == 0.0).all()
        assert (z.data[7:] == 0.0).all()

    @pytest.mark.parametrize("window", [2, 20])
    def test_all_padding_sequence_gives_zero_rows(self, window):
        """Banded (window 2) and dense (window covers n) alike."""
        x = np.random.default_rng(6).normal(size=(2, 6, 3))
        keep = np.ones((2, 6), dtype=bool)
        keep[1] = False
        with using_dtype("float64"):
            z, bw = local_attention(Tensor(x), Tensor(x), Tensor(x),
                                    local(window), keep)
        assert (z.data[1] == 0.0).all() and (bw.dense()[1] == 0.0).all()
        np.testing.assert_allclose(bw.dense()[0].sum(axis=-1), 1.0, atol=1e-12)

    def test_counter_counts_admissible_pairs_only(self):
        n, w = 12, 4
        x = np.zeros((n, 3))
        keep = np.ones(n, dtype=bool)
        c = OpCounter()
        with using_dtype("float64"):
            local_attention(Tensor(x), Tensor(x), Tensor(x), local(w),
                            keep, counter=c)
        half = w // 2
        expect = sum(min(n - 1, i + half) - max(0, i - half) + 1
                     for i in range(n))
        assert c.score_products == expect
        assert c.score_products <= n * (w + 1)

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window must be an even integer"):
            HeadSpec("local", window=3)
        with pytest.raises(ValueError, match="window must be an even integer"):
            HeadSpec("local", window=0)
        x = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="self-attention"):
            local_attention(x, Tensor(np.zeros((5, 2))), x, local(2))

    def test_band_to_dense_offsets(self):
        # band columns are offsets -half..+half around the diagonal
        band = np.zeros((3, 3))
        band[:, 1] = 1.0  # offset 0
        dense = band_to_dense(band, 2)
        np.testing.assert_array_equal(dense, np.eye(3))


class TestConvCompress:
    def test_matches_conv_oracle_on_zeroed_input(self):
        rng = np.random.default_rng(6)
        n, d = 11, 5
        x = rng.normal(size=(n, d))
        keep = np.ones(n, dtype=bool)
        keep[8:] = False
        params = ConvParams(kernel=5, stride=2,
                            weights=Tensor(rng.normal(size=(5, d, d))),
                            bias=Tensor(rng.normal(size=d)))
        with using_dtype("float64"):
            xc, keep_c = conv_compress(Tensor(x), params, keep)
        ref = naive_conv1d(np.where(keep[:, None], x, 0.0),
                           params.weights.data, params.bias.data,
                           stride=2, padding=2)
        np.testing.assert_allclose(xc.data, ref, atol=1e-12)

    def test_compressed_mask_takes_center_validity(self):
        # n=9, K=5, stride 2, six valid positions: centers land on
        # 0,2,4,6,8 and only the first three are valid
        n = 9
        keep = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0], dtype=bool)
        rng = np.random.default_rng(7)
        params = ConvParams(kernel=5, stride=2,
                            weights=Tensor(rng.normal(size=(5, 2, 2))),
                            bias=Tensor(np.zeros(2)))
        with using_dtype("float64"):
            _, keep_c = conv_compress(Tensor(rng.normal(size=(n, 2))), params, keep)
        np.testing.assert_array_equal(keep_c, [True, True, True, False, False])

    @pytest.mark.parametrize("n,stride", [(8, 2), (9, 2), (10, 3), (7, 1)])
    def test_output_length_is_ceil(self, n, stride):
        rng = np.random.default_rng(8)
        params = ConvParams(kernel=3, stride=stride,
                            weights=Tensor(rng.normal(size=(3, 2, 2))),
                            bias=Tensor(np.zeros(2)))
        xc, keep_c = conv_compress(Tensor(rng.normal(size=(n, 2))), params)
        expect = -(-n // stride)
        assert xc.shape[-2] == expect
        assert keep_c.shape[-1] == expect

    def test_padding_never_leaks_into_valid_frames(self):
        """Compressing a sequence with junk after the valid prefix must give
        the same valid frames as compressing the trimmed sequence."""
        rng = np.random.default_rng(9)
        d, n_valid = 3, 8
        x_valid = rng.normal(size=(n_valid, d))
        junk = rng.normal(size=(4, d)) * 100.0
        params = ConvParams(kernel=3, stride=2,
                            weights=Tensor(rng.normal(size=(3, d, d))),
                            bias=Tensor(rng.normal(size=d)))
        keep = np.concatenate([np.ones(n_valid, bool), np.zeros(4, bool)])
        with using_dtype("float64"):
            padded, keep_c = conv_compress(
                Tensor(np.concatenate([x_valid, junk])), params, keep)
            alone, _ = conv_compress(Tensor(x_valid), params,
                                     np.ones(n_valid, bool))
        m_valid = alone.shape[-2]
        assert np.array_equal(padded.data[:m_valid], alone.data)
        assert keep_c[:m_valid].all() and not keep_c[m_valid:].any()

    def test_kernel_must_be_odd(self):
        with pytest.raises(ValueError):
            ConvParams(kernel=4, stride=2, weights=Tensor(np.zeros((4, 2, 2))),
                       bias=Tensor(np.zeros(2)))

