"""Attention mechanism tests against explicit-loop oracles, plus the
score-product accounting and the masking corner cases."""

import re

import numpy as np
import pytest

from multiformer import attention, tensor
from multiformer.attention import (ConvParams, OpCounter, conv_compress,
                                   full_attention, local_attention)
from multiformer.mhma import HeadSpec, init_mhma_weights, mhma_forward
from multiformer.oracles import naive_attention, naive_conv1d
from multiformer.tensor import (BAND_BLOCK, SEQUENCE_PAIRS, Tensor, attend,
                                band_to_dense, using_dtype)


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
    params = ConvParams(stride=2, weights=Tensor(rng.normal(size=(3, d, d))),
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
        """Neither an [n, m] mask nor one of q's rank, [B, n, m], is a key
        mask; causality is full_attention's causal argument."""
        causal = np.tril(np.ones((self.N, self.N), dtype=bool))
        for mask in (causal, np.broadcast_to(causal, (self.B, self.N, self.N))):
            with pytest.raises(ValueError, match="does not broadcast"):
                KERNELS[kernel](self.stream(), mask)

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
        """causal=True hides key j from query i when j > i."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4))
        with using_dtype("float64"):
            _, a = full_attention(Tensor(x), Tensor(x), Tensor(x), causal=True)
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
        """causal=True over a batch is causal=True on each sequence, also
        when B equals n."""
        rng = np.random.default_rng(5)
        b, n = 4, 4
        x = rng.normal(size=(b, n, 3))
        with using_dtype("float64"):
            _, a = full_attention(Tensor(x), Tensor(x), Tensor(x), causal=True)
            for i in range(b):
                _, ai = full_attention(Tensor(x[i]), Tensor(x[i]), Tensor(x[i]),
                                       causal=True)
                np.testing.assert_allclose(a.data[i], ai.data, atol=1e-12)
        assert (np.triu(a.data, 1) == 0.0).all()

    def test_causal_is_the_explicit_causal_and_key_mask(self):
        """causal=True under a padded [B, U] key mask gives the bytes of
        attend under tri & key mask: z, weights and q/k/v gradients."""
        rng = np.random.default_rng(6)
        u = 7
        q, k, v = (rng.normal(size=(3, u, 4)).astype(np.float32) for _ in range(3))
        probe = rng.normal(size=q.shape).astype(np.float32)
        tmask = np.arange(u) < np.array([[u], [4], [1]])

        def run(call):
            tq, tk, tv = (Tensor(x, requires_grad=True) for x in (q, k, v))
            z, a = call(tq, tk, tv)
            (z * Tensor(probe)).sum().backward()
            return [x.tobytes() for x in (z.data, a.data, tq.grad, tk.grad, tv.grad)]

        explicit = np.tri(u, u, dtype=bool) & tmask[:, None, :]
        assert run(lambda q, k, v: full_attention(q, k, v, tmask, causal=True)) == run(
            lambda q, k, v: attend(q, k, v, explicit))

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
        # batched queries over one unbatched key stream are not broadcast
        with pytest.raises(ValueError, match=re.escape("q (2, 3, 4), k (5, 4), v (5, 4)")):
            full_attention(Tensor(np.zeros((2, 3, 4))), k, k, np.ones(5, dtype=bool))


class TestLocalAttention:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_banded_oracle(self, seed):
        """At a drawn n, and at one length on each side of the first band
        block boundary, where banded attend turns from one block of query
        rows to several."""
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(3, 30))
        w = 2 * int(rng.integers(1, 6))
        half = w // 2
        one_block = int(rng.integers(w + 2, BAND_BLOCK + 1))
        blocks = int(rng.integers(BAND_BLOCK + 1, BAND_BLOCK + 30))
        for n in (n, one_block, blocks):
            x = rng.normal(size=(n, 6))
            keep = hole_mask(rng, n)
            with using_dtype("float64"):
                z, bw = local_attention(Tensor(x), Tensor(x), Tensor(x),
                                        local(w), keep)
            zr, ar = naive_attention(x, x, x, valid=keep, band_half=half)
            np.testing.assert_allclose(z.data, zr, atol=1e-12)
            np.testing.assert_allclose(band_to_dense(bw.data, w), ar, atol=1e-12)

    def test_covering_window_matches_full_attention(self):
        """A window covering every pair runs the band kernel as one block
        whose keys are the whole sequence: its band is [n, 2n-1], and it
        gives full attention's z and weights."""
        rng = np.random.default_rng(4)
        n = 9
        x = rng.normal(size=(2, n, 5))
        keep = np.ones((2, n), dtype=bool)
        keep[1, 6:] = False
        with using_dtype("float64"):
            zl, bl = local_attention(Tensor(x), Tensor(x), Tensor(x),
                                     local(2 * (n - 1)), keep)
        assert bl.shape == (2, n, 2 * n - 1)
        for b in range(2):
            z0, a0 = naive_attention(x[b], x[b], x[b], valid=keep[b])
            np.testing.assert_allclose(zl.data[b], z0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(band_to_dense(bl.data[b], 2 * (n - 1)), a0,
                                       rtol=0, atol=1e-12)

    def test_wide_window_buffers_stop_at_the_sequence(self, monkeypatch):
        """local(64) at n=20 keeps its [n, 65] band, but no block buffer its
        forward, its backward or band_to_dense fills is wider than
        r + 2(n-1) columns for r rows: no key lies further than n-1 from
        its query.  z, the gradients and the band's inner columns are
        those of the covering window 2(n-1), and the outer columns are
        0."""
        rng = np.random.default_rng(12)
        n, w, cover = 20, 64, 2 * (20 - 1)
        x = rng.normal(size=(3, 2, n, 5))
        keep = np.ones((2, n), dtype=bool)
        keep[1, 13:] = False
        widths, real = [], tensor._diagonals

        def spy(p, half):
            widths.append(p.shape[-1] - p.shape[-2])
            return real(p, half)

        monkeypatch.setattr(tensor, "_diagonals", spy)
        runs = []
        for window in (w, cover):
            with using_dtype("float64"):
                q, k, v = (Tensor(t, requires_grad=True) for t in x)
                z, band = local_attention(q, k, v, local(window), keep)
                (z * z).sum().backward()
            runs.append((z.data, band.data, band_to_dense(band.data, window),
                         q.grad, k.grad, v.grad))
        assert widths and max(widths) <= 2 * (n - 1), max(widths)
        (z, band, dense, *grads), (z_c, band_c, *rest_c) = runs
        assert band.shape == (2, n, w + 1)
        off = w // 2 - (n - 1)
        assert not band[..., :off].any() and not band[..., -off:].any()
        for got, want in zip([z, band[..., off:-off], dense, *grads], [z_c, band_c, *rest_c]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for b in range(2):
            z0, a0 = naive_attention(x[0, b], x[1, b], x[2, b], valid=keep[b])
            np.testing.assert_allclose(z[b], z0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dense[b], a0, rtol=0, atol=1e-12)

    def test_short_sequence_bytes_ignore_appended_padding(self):
        """A toy local head (window 8, float32, d_h 16) over n <= 5 valid
        rows: the valid rows of z are the unpadded call's bit for bit,
        whatever junk rows the mask appends, so the padded length picks no
        kernel."""
        rng = np.random.default_rng(30)
        for n in range(1, 6):
            x = rng.normal(size=(3, 2, n + 60, 16)).astype(np.float32)
            z0, _ = local_attention(*(Tensor(t[:, :n]) for t in x), local(8))
            for junk in range(1, 61):
                keep = np.broadcast_to(np.arange(n + junk) < n, (2, n + junk))
                z, _ = local_attention(*(Tensor(t[:, :n + junk]) for t in x),
                                       local(8), keep)
                assert np.array_equal(z.data[:, :n], z0.data), f"n={n}, junk={junk}"

    def test_band_truncates_at_boundaries(self):
        # n=4, w=2: token 0 sees {0,1}, token 3 sees {2,3}
        x = np.eye(4, 3)
        with using_dtype("float64"):
            _, bw = local_attention(Tensor(x), Tensor(x), Tensor(x), local(2))
        a = band_to_dense(bw.data, 2)
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
        a = band_to_dense(bw.data, 4)
        # a padded query has no valid in-band key once it sits far enough out
        assert (a[7:] == 0.0).all()
        assert (z.data[7:] == 0.0).all()

    @pytest.mark.parametrize("window", [2, 20])
    def test_all_padding_sequence_gives_zero_rows(self, window):
        """A narrow window (2) and one covering n (20) alike."""
        x = np.random.default_rng(6).normal(size=(2, 6, 3))
        keep = np.ones((2, 6), dtype=bool)
        keep[1] = False
        with using_dtype("float64"):
            z, bw = local_attention(Tensor(x), Tensor(x), Tensor(x),
                                    local(window), keep)
        a = band_to_dense(bw.data, window)
        assert (z.data[1] == 0.0).all() and (a[1] == 0.0).all()
        np.testing.assert_allclose(a[0].sum(axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("window", [4, 64])
    def test_no_band_mask_without_a_counter(self, window, monkeypatch):
        """A narrow window (4) and one covering n (64) alike: a counter
        counts the in-band valid keys, and without one no band mask is
        built and z is the same."""
        rng = np.random.default_rng(9)
        n, half = 30, window // 2
        x = Tensor(rng.normal(size=(2, n, 4)))
        keep = np.stack([hole_mask(rng, n) for _ in range(2)])
        c = OpCounter()
        z_c, _ = local_attention(x, x, x, local(window), keep, counter=c)
        assert c.score_products == sum(int(row[max(0, i - half):i + half + 1].sum())
                                       for row in keep for i in range(n))

        def no_band_mask(*args):
            raise AssertionError("local_attention built a band mask")

        monkeypatch.setattr(attention, "windows", no_band_mask)
        z, _ = local_attention(x, x, x, local(window), keep)
        assert np.array_equal(z.data, z_c.data)

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
        with pytest.raises(ValueError, match="shape mismatch"):
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
        params = ConvParams(stride=2,
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
        params = ConvParams(stride=2,
                            weights=Tensor(rng.normal(size=(5, 2, 2))),
                            bias=Tensor(np.zeros(2)))
        with using_dtype("float64"):
            _, keep_c = conv_compress(Tensor(rng.normal(size=(n, 2))), params, keep)
        np.testing.assert_array_equal(keep_c, [True, True, True, False, False])

    @pytest.mark.parametrize("n,stride", [(8, 2), (9, 2), (10, 3), (7, 1)])
    def test_output_length_is_ceil(self, n, stride):
        rng = np.random.default_rng(8)
        params = ConvParams(stride=stride,
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
        params = ConvParams(stride=2,
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
        """The kernel is the weights' first axis, checked at construction."""
        with pytest.raises(ValueError, match="kernel 4"):
            ConvParams(stride=2, weights=Tensor(np.zeros((4, 2, 2))),
                       bias=Tensor(np.zeros(2)))



def head_inputs(kind, lengths, n, seed, extra=0, d=16, d_h=8):
    """float32 q [B, n + extra, d_h] and k, v of one full or conv(3, 2)
    head over frames with the given valid lengths, each followed by extra
    junk rows, with the valid query rows and valid keys."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(len(lengths), n, d)).astype(np.float32)
    rows = np.arange(n) < np.asarray(lengths)[:, None]
    stream, keys = Tensor(x), rows
    if kind == "conv":
        params = ConvParams(2, Tensor(rng.normal(size=(3, d, d)) / 4), Tensor(np.zeros(d)))
        stream, keys = conv_compress(stream, params, rows)
    wq, wk, wv = (rng.normal(size=(d, d_h)).astype(np.float32) / 4 for _ in range(3))
    q, k, v = x @ wq, stream.data @ wk, stream.data @ wv

    def junk(a):  # False in a mask, noise of scale 1e3 in q, k and v
        tail = np.zeros(a.shape[:1] + (extra,) + a.shape[2:], a.dtype)
        if a.dtype != bool:
            tail += 1e3 * rng.normal(size=tail.shape)
        return np.concatenate([a, tail], axis=1)

    return junk(q), junk(k), junk(v), junk(rows), junk(keys)


def run_head(q, k, v, rows, keys, probe, use_rows=True):
    """full_attention's z, weights and the gradients of (z * probe).sum()."""
    tq, tk, tv = (Tensor(x, requires_grad=True) for x in (q, k, v))
    z, a = full_attention(tq, tk, tv, keys, rows=rows if use_rows else None)
    (z * Tensor(probe)).sum().backward()
    return z.data, a.data, tq.grad, tk.grad, tv.grad


@pytest.mark.parametrize("kind", ["full", "conv"])
class TestPerSequenceHeads:
    """Full and conv heads over a padded batch whose longest sequence is
    past tensor.SEQUENCE_PAIRS run per sequence over its valid rows and
    keys: bit for bit full_attention on each sequence alone, and exact
    zeros at the padding."""

    @staticmethod
    def long(kind):
        """A length whose n_b * m_b is past the rule for this head."""
        n = int(np.sqrt(SEQUENCE_PAIRS * (2 if kind == "conv" else 1))) + 4
        return n + n % 2

    def test_each_sequence_matches_full_attention_alone(self, kind):
        n = self.long(kind)
        q, k, v, rows, keys = head_inputs(kind, [n - 61, n, 12], n, seed=1)
        probe = np.random.default_rng(2).normal(size=q.shape).astype(np.float32)
        z, a, gq, gk, gv = run_head(q, k, v, rows, keys, probe)
        sizes = rows.sum(axis=-1) * keys.sum(axis=-1)
        assert a.shape == (sizes.sum(),)
        for b, (n_b, m_b) in enumerate(zip(rows.sum(axis=-1), keys.sum(axis=-1))):
            zb, ab, gqb, gkb, gvb = run_head(q[b, :n_b], k[b, :m_b], v[b, :m_b], None,
                                             None, probe[b, :n_b])
            assert z[b, :n_b].tobytes() == zb.tobytes()
            assert a[sizes[:b].sum():sizes[:b + 1].sum()].tobytes() == ab.tobytes()
            assert gq[b, :n_b].tobytes() == gqb.tobytes()
            assert gk[b, :m_b].tobytes() == gkb.tobytes()
            assert gv[b, :m_b].tobytes() == gvb.tobytes()
        for x, valid in ((z, rows), (gq, rows), (gk, keys), (gv, keys)):
            assert not x[~valid].any()

    def test_junk_rows_under_the_mask_leave_valid_bytes_unchanged(self, kind):
        n = self.long(kind)
        lengths = [n, n - 30]
        probe = np.random.default_rng(3).normal(size=(2, n + 9, 8)).astype(np.float32)
        cut = run_head(*head_inputs(kind, lengths, n, seed=4), probe[:, :n])
        padded = run_head(*head_inputs(kind, lengths, n, seed=4, extra=9), probe)
        assert padded[1].tobytes() == cut[1].tobytes()
        for got, want in zip(padded[:1] + padded[2:], cut[:1] + cut[2:]):
            assert got[:, :want.shape[1]].tobytes() == want.tobytes()
            assert not got[:, want.shape[1]:].any()

    def test_batch_below_the_rule_stays_batched(self, kind):
        """Short sequences in a long padded batch give the bytes of the
        call without valid rows, whose padded rows attend too."""
        n = int(np.sqrt(SEQUENCE_PAIRS)) // 2
        q, k, v, rows, keys = head_inputs(kind, [n, n - 7], n, seed=5, extra=n)
        probe = np.random.default_rng(6).normal(size=q.shape).astype(np.float32)
        got = run_head(q, k, v, rows, keys, probe)
        assert got[1].shape == q.shape[:-1] + k.shape[-2:-1]
        assert got[0][~rows].any()
        for x, want in zip(got, run_head(q, k, v, rows, keys, probe, use_rows=False)):
            assert x.tobytes() == want.tobytes()

    def test_self_attention_layer_passes_its_frame_mask_as_rows(self, kind):
        """mhma_forward runs a head past the rule per sequence in
        self-attention (z is 0 at padded rows) and batched for
        cross-attention over the same frames and for causal
        self-attention (full heads only)."""
        n = self.long(kind)
        rng = np.random.default_rng(7)
        spec = [HeadSpec("full") if kind == "full" else HeadSpec("conv", kernel=3, stride=2)]
        weights = init_mhma_weights(8, spec, rng)
        x = Tensor(rng.normal(size=(2, n + 5, 8)))
        mask = np.arange(n + 5) < np.array([[n], [n - 40]])
        z_self = mhma_forward(x, spec, weights, mask).z[0].data
        assert not z_self[~mask].any() and z_self[mask].all()
        z_cross = mhma_forward(x, spec, weights, mask, kv_in=x).z[0].data
        assert z_cross[~mask].all()
        if kind == "full":
            z_causal = mhma_forward(x, spec, weights, mask, causal=True).z[0].data
            assert z_causal[~mask].all()

    def test_unbatched_self_attention_runs_per_sequence(self, kind):
        """An unbatched [n, d] layer under an [n] frame mask gets its mask
        as rows too: z is exactly 0 at padded rows, and its valid rows are
        the bytes of the same layer called as a batch of one."""
        n = self.long(kind)
        rng = np.random.default_rng(8)
        spec = [HeadSpec("full") if kind == "full" else HeadSpec("conv", kernel=3, stride=2)]
        weights = init_mhma_weights(8, spec, rng)
        x = rng.normal(size=(n + 5, 8)).astype(np.float32)
        mask = np.arange(n + 5) < n
        z = mhma_forward(Tensor(x), spec, weights, mask).z[0].data
        z1 = mhma_forward(Tensor(x[None]), spec, weights, mask[None]).z[0].data[0]
        assert not z[~mask].any()
        assert z[mask].tobytes() == z1[mask].tobytes()
