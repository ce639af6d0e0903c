"""Autodiff engine tests: forward values against numpy, gradients against
central finite differences, and the bookkeeping rules (accumulation,
pruning, precision modes) that the rest of the package relies on."""

import platform
import re
import weakref

import numpy as np
import pytest

from multiformer.oracles import naive_attention, naive_conv1d
from multiformer import tensor
from multiformer.tensor import (BAND_BLOCK, FFN_BLOCK, SEQUENCE_PAIRS, Parameter, Tensor, attend,
                                band_to_dense, concat, conv1d, dropout,
                                embedding, ffn, gather_last, grad_check,
                                layer_norm, log_softmax, matmul, mul, pack, relu,
                                tsum, unpack, using_dtype, zero_grad,
                                _band_dot, _band_mix, _band_tmix, _make,
                                _Node, _topo_order)


def fd_grad(f, x, i, h=1e-6):
    # central difference on one coordinate of a flat view
    flat = x.data.reshape(-1)
    orig = flat[i]
    flat[i] = orig + h
    up = float(f().data)
    flat[i] = orig - h
    down = float(f().data)
    flat[i] = orig
    return (up - down) / (2 * h)


class TestArithmetic:
    def test_add_broadcast_unbroadcasts_grad(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
        np.testing.assert_array_equal(b.grad, np.full(4, 3.0))

    def test_scalar_operand_variants(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = (1.0 + x) * 2.0 - 1.0
        np.testing.assert_allclose(y.data, [5.0, 7.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_power_and_neg(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = -(x * x * x)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [-12.0, -27.0])

    def test_exp_log_relu_values(self):
        x = Tensor(np.array([-1.0, 0.5, 2.0]))
        np.testing.assert_array_equal(relu(x).data, [0.0, 0.5, 2.0])

    def test_relu_gradient_gate(self):
        x = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        relu(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])


class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False),
                                               (1, True), (-1, False)])
    def test_sum_matches_numpy(self, axis, keepdims):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        with using_dtype("float64"):
            out = tsum(Tensor(x), axis=axis, keepdims=keepdims)
        np.testing.assert_allclose(out.data, x.sum(axis=axis, keepdims=keepdims))

    def test_sum_axis_gradient(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        tsum(tsum(x, axis=1)).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


class TestShapeOps:
    def test_concat_splits_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=-1)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_array_equal(b.grad, np.full((2, 3), 2.0))

    def test_matmul_batched_vs_numpy(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        with using_dtype("float64"):
            out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b, atol=1e-12)

    def test_matmul_broadcast_gradients(self):
        rng = np.random.default_rng(6)
        with using_dtype("float64"):
            a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
            report = grad_check(lambda: matmul(a, b).sum(),
                                [Parameter("a", a), Parameter("b", b)])
        assert report.ok, report.failures()


def qkv(rng, n, m, d_h=4, lead=()):
    """Random float64 queries [*lead, n, d_h] and keys/values [*lead, m, d_h]."""
    return (rng.normal(size=lead + (n, d_h)), rng.normal(size=lead + (m, d_h)),
            rng.normal(size=lead + (m, d_h)))


PACK_MASKS = {
    "batched": np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 0, 0, 0, 0]], bool),
    "unbatched": np.array([1, 1, 1, 1, 0, 0], bool),
    "all_valid": np.ones((2, 4), bool),
    "one_all_padding": np.array([[1, 1, 0, 0], [0, 0, 0, 0], [1, 1, 1, 0]], bool),
}


class TestPackRows:
    """pack gathers the valid rows of a padded batch into [N, d]; unpack
    scatters them back with zero rows at the padding."""

    @pytest.mark.parametrize("case", sorted(PACK_MASKS))
    def test_round_trip_zeroes_the_padding(self, case):
        keep = PACK_MASKS[case]
        x = np.random.default_rng(1).normal(size=keep.shape + (3,)).astype(np.float32)
        rows = pack(Tensor(x), keep)
        assert rows.shape == (keep.sum(), 3)
        np.testing.assert_array_equal(rows.data, x[keep])
        back = unpack(rows, keep)
        assert back.shape == x.shape
        np.testing.assert_array_equal(back.data, np.where(keep[..., None], x, 0.0))

    @pytest.mark.parametrize("case", sorted(PACK_MASKS))
    def test_gradient_through_both_nodes(self, case):
        keep = PACK_MASKS[case]
        rng = np.random.default_rng(2)
        with using_dtype("float64"):
            x = Tensor(rng.normal(size=keep.shape + (3,)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
            r = rng.normal(size=keep.shape + (3,))
            report = grad_check(
                lambda: (unpack(matmul(pack(x, keep), w), keep) * r).sum(),
                [Parameter("x", x), Parameter("w", w)])
        assert report.ok, report.failures()
        # padded rows of x reach nothing, so their gradient is exactly 0
        zero_grad([Parameter("x", x)])
        (unpack(pack(x, keep), keep) * r).sum().backward()
        np.testing.assert_array_equal(x.grad, np.where(keep[..., None], r, 0.0))

    def test_shape_validation(self):
        keep = PACK_MASKS["batched"]
        with pytest.raises(ValueError, match="does not match rows"):
            pack(Tensor(np.zeros((3, 4, 2))), keep)
        with pytest.raises(ValueError, match="kept positions"):
            unpack(Tensor(np.zeros((int(keep.sum()) + 1, 2))), keep)
        with pytest.raises(ValueError, match="kept positions"):
            unpack(Tensor(np.zeros(keep.shape + (2,))), keep)


class TestSoftmaxFamily:
    """attend's softmax: masking, empty rows, and its gradient."""

    def test_masked_weights_exactly_zero(self):
        rng = np.random.default_rng(7)
        q, k, v = qkv(rng, 4, 6)
        mask = rng.random((4, 6)) > 0.4
        mask[:, 0] = True  # every row keeps one position
        with using_dtype("float64"):
            z, a = attend(Tensor(q), Tensor(k), Tensor(v), mask)
        assert (a.data[~mask] == 0.0).all()
        np.testing.assert_allclose(a.data.sum(axis=-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(z.data, a.data @ v, atol=1e-12)

    def test_empty_row_weighs_all_zero(self):
        q, k, v = (Tensor(x) for x in qkv(np.random.default_rng(11), 2, 3))
        mask = np.array([[True, False, False], [False, False, False]])
        z, a = attend(q, k, v, mask)
        np.testing.assert_array_equal(a.data[1], 0.0)
        np.testing.assert_array_equal(z.data[1], 0.0)
        np.testing.assert_allclose(a.data[0], [1.0, 0.0, 0.0])

    def test_no_mask_equals_all_true_mask(self):
        """An all-True key mask leaves the scaled softmax of q kᵀ, taken
        with no mask at all, unchanged to the last bit."""
        q, k, v = (Tensor(x) for x in qkv(np.random.default_rng(10), 4, 9, lead=(3,)))
        z1, a1 = attend(q, k, v, np.ones(9, dtype=bool))
        a0 = q.data @ np.swapaxes(k.data, -1, -2)
        a0 *= 1.0 / np.sqrt(q.shape[-1])
        a0 -= a0.max(axis=-1, keepdims=True)
        np.exp(a0, out=a0)
        a0 /= a0.sum(axis=-1, keepdims=True)
        assert a0.tobytes() == a1.data.tobytes()
        assert (a0 @ v.data).tobytes() == z1.data.tobytes()

    def test_masked_attend_gradient(self):
        """Dense attend's gradient with respect to every entry of q, k and
        v, under an all-True mask, a key mask, a per-sequence key mask and
        a causal mask."""
        rng = np.random.default_rng(8)
        n = 5
        q, k, v = qkv(rng, n, n, lead=(2,))
        r = rng.normal(size=q.shape)
        masks = [np.ones(n, dtype=bool), np.array([True, False, True, True, False]),
                 np.array([[True] * 5, [True, True, False, True, False]])[:, None, :],
                 np.tril(np.ones((n, n), dtype=bool))]
        for mask in masks:
            with using_dtype("float64"):
                tq, tk, tv = (Tensor(x, requires_grad=True) for x in (q, k, v))
                report = grad_check(lambda: (attend(tq, tk, tv, mask)[0] * r).sum(),
                                    [Parameter("q", tq), Parameter("k", tk),
                                     Parameter("v", tv)], max_samples=q.size)
            assert report.ok, (mask, report.failures())
            assert [e.checked for e in report.entries] == [q.size, k.size, v.size]

    def test_weights_stay_outside_the_graph(self):
        q, k, v = (Tensor(x, requires_grad=True)
                   for x in qkv(np.random.default_rng(12), 3, 4))
        z, a = attend(q, k, v, np.ones(4, dtype=bool))
        assert z._parents == (q, k, v)
        assert not a.requires_grad and a._parents == ()

    def test_log_softmax_consistency(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 7)) * 3.0
        with using_dtype("float64"):
            got = np.exp(log_softmax(Tensor(x)).data)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_allclose(got, e / e.sum(axis=-1, keepdims=True), atol=1e-12)

    def test_embedding_accumulates_duplicate_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        ids = np.array([1, 1, 3])
        out = embedding(table, ids)
        np.testing.assert_array_equal(out.data, table.data[ids])
        out.sum().backward()
        expect = np.zeros((4, 3))
        expect[1] = 2.0
        expect[3] = 1.0
        np.testing.assert_array_equal(table.grad, expect)

    def test_gather_last_picks_and_scatters(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        ids = np.array([0, 3, 2])
        g = gather_last(x, ids)
        np.testing.assert_array_equal(g.data, [0.0, 7.0, 10.0])
        g.sum().backward()
        expect = np.zeros((3, 4))
        expect[[0, 1, 2], ids] = 1.0
        np.testing.assert_array_equal(x.grad, expect)


# Both band edges are hit at every n.  All but the last two run in one
# band block: 2*BAND_BLOCK + 5 rows end in a ragged third block, and a
# half wider than a block reaches keys two blocks away.
BAND_CASES = [(half, n) for half in (1, 3) for n in range(2 * half + 2, 21)] + [
    (3, 30), (2, 2 * BAND_BLOCK + 5), (BAND_BLOCK + 3, 2 * BAND_BLOCK + 11)]


class TestBanded:
    """Banded attend on [2, 3, n, d_h] float64 inputs."""

    @staticmethod
    def inputs(half, n, d_h=4):
        rng = np.random.default_rng(1000 * half + n)
        q, k, v = qkv(rng, n, n, d_h, lead=(2, 3))
        keep = rng.random((2, 3, n)) < 0.8
        keep[..., 0] = True
        return q, k, v, keep, keep[..., None, :]

    @pytest.mark.parametrize("half,n", BAND_CASES)
    def test_values_match_dense_and_naive_oracle(self, half, n):
        q, k, v, keep, keys = self.inputs(half, n)
        with using_dtype("float64"):
            z, w = attend(Tensor(q), Tensor(k), Tensor(v), keys, half=half)
            dense_mask = (np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= half) & keys
            z_d, w_d = attend(Tensor(q), Tensor(k), Tensor(v), dense_mask)
        # the band holds exactly the dense kernel's in-band weights
        np.testing.assert_allclose(band_to_dense(w.data, 2 * half), w_d.data, atol=1e-12)
        np.testing.assert_allclose(z.data, z_d.data, atol=1e-12)
        for b in range(2):
            for h in range(3):
                z_ref, a_ref = naive_attention(q[b, h], k[b, h], v[b, h],
                                               valid=keep[b, h], band_half=half)
                np.testing.assert_allclose(z.data[b, h], z_ref, atol=1e-12)
                np.testing.assert_allclose(band_to_dense(w.data[b, h], 2 * half),
                                           a_ref, atol=1e-12)

    # the widest case finite-differences about 15,400 forward passes (14-16 s
    # on a 2-vCPU VM), so it runs with the slow tests
    @pytest.mark.parametrize("half,n", BAND_CASES[:-1] + [
        pytest.param(*BAND_CASES[-1], marks=pytest.mark.slow)])
    def test_gradients_every_entry(self, half, n):
        q, k, v, _, keys = self.inputs(half, n)
        r_z = np.random.default_rng(n).normal(size=v.shape)
        with using_dtype("float64"):
            tq, tk, tv = (Tensor(x, requires_grad=True) for x in (q, k, v))
            report = grad_check(
                lambda: (attend(tq, tk, tv, keys, half=half)[0] * r_z).sum(),
                [Parameter("q", tq), Parameter("k", tk), Parameter("v", tv)],
                max_samples=q.size)
        assert report.ok, report.failures()
        assert [e.checked for e in report.entries] == [q.size, k.size, v.size]

    @pytest.mark.parametrize("half,n", [
        (1, 2), (1, 7), (3, 20), (3, 40), (3, BAND_BLOCK), (1, 2 * BAND_BLOCK),
        (3, 2 * BAND_BLOCK + 7), (BAND_BLOCK + 2, 3 * BAND_BLOCK - 5)])
    def test_blocked_band_products_match_dense_ones(self, half, n):
        """One block, exactly two, a ragged last block, and a half wider
        than a block: the band scores are the diagonals of x yᵀ, and the
        products with a band are those with its dense matrix and its
        transpose."""
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=(2, 2, n, 5))
        band = rng.normal(size=(2, n, 2 * half + 1))
        i, j = np.indices((n, n))
        in_band = np.abs(i - j) <= half
        scores = _band_dot(x, y, half)
        np.testing.assert_allclose(band_to_dense(scores, 2 * half),
                                   np.where(in_band, x @ np.swapaxes(y, -1, -2), 0.0),
                                   rtol=0, atol=1e-12)
        # and zero off the sequence, where band_to_dense does not look
        assert np.count_nonzero(scores) == np.count_nonzero(band_to_dense(scores, 2 * half))
        dense = band_to_dense(band, 2 * half)
        expect = np.where(in_band, band[..., i, np.clip(j - i + half, 0, 2 * half)], 0.0)
        assert np.array_equal(dense, expect)
        np.testing.assert_allclose(_band_mix(band, y, half), dense @ y, rtol=0, atol=1e-12)
        np.testing.assert_allclose(_band_tmix(band, y, half),
                                   np.swapaxes(dense, -1, -2) @ y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("half,n", [
        (1, 6), (1, 30), (3, 20), (3, 40), (1, 10), (3, 26), (32, 256),
        (1, BAND_BLOCK - 2), (4, BAND_BLOCK), (4, 2 * BAND_BLOCK - 3)])
    def test_junk_rows_leave_valid_rows_bitwise_unchanged(self, half, n):
        """Masked junk rows appended to each sequence leave z and the
        weights of the first n rows bit for bit the same, in training
        precision, also where the junk starts a new band block."""
        extra = 5
        rng = np.random.default_rng(n)
        q, k, v = (rng.normal(size=(2, n + extra, 16)) for _ in range(3))
        for x in (q, k, v):
            x[:, n:] *= 1e3
        keep = np.ones((2, n + extra), dtype=bool)
        keep[:, n:] = False
        keep[1, n - 2] = False
        keys = keep[:, None, :]
        z, w = attend(Tensor(q[:, :n]), Tensor(k[:, :n]), Tensor(v[:, :n]),
                      keys[..., :n], half=half)
        zj, wj = attend(Tensor(q), Tensor(k), Tensor(v), keys, half=half)
        assert np.array_equal(zj.data[:, :n], z.data)
        assert np.array_equal(wj.data[:, :n], w.data)

    def test_no_mask_admits_every_in_sequence_key(self):
        """Under the key mask of a sequence with no padding, the band's
        off-sequence columns weigh 0: at half=1, row 0 splits its weight
        between keys 0 and 1 alone, and z is dense attention under the
        tridiagonal mask."""
        def in_sequence(n):
            return np.ones((1, n), dtype=bool)

        ones = Tensor(np.ones((4, 2)))
        _, w = attend(ones, ones, ones, in_sequence(4), half=1)
        np.testing.assert_array_equal(w.data[0], [0.0, 0.5, 0.5])
        np.testing.assert_array_equal(w.data[-1], [0.5, 0.5, 0.0])
        rng = np.random.default_rng(3)
        q, k, v = qkv(rng, 6, 6, 4, lead=(2,))
        with using_dtype("float64"):
            z, w = attend(Tensor(q), Tensor(k), Tensor(v), in_sequence(6), half=1)
            tridiagonal = np.abs(np.subtract.outer(np.arange(6), np.arange(6))) <= 1
            z_d, w_d = attend(Tensor(q), Tensor(k), Tensor(v), tridiagonal)
        np.testing.assert_allclose(z.data, z_d.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(band_to_dense(w.data, 2), w_d.data, rtol=0, atol=1e-12)

    def test_shape_validation(self):
        x = Tensor(np.zeros((5, 2)))
        keep = np.ones(5, dtype=bool)
        with pytest.raises(ValueError, match="mismatch"):
            attend(x, x, Tensor(np.zeros((4, 2))), keep)
        with pytest.raises(ValueError, match="mismatch"):
            attend(x, Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 2))), keep, half=1)
        # q, k and v share their batch axes; only the key mask broadcasts
        q = Tensor(np.zeros((2, 5, 2)))
        for kv in (x, Tensor(np.zeros((1, 5, 2))), Tensor(np.zeros((3, 5, 2)))):
            shapes = re.escape(f"q {q.shape}, k {kv.shape}, v {kv.shape}")
            for half in (None, 1):
                with pytest.raises(ValueError, match=shapes):
                    attend(q, kv, kv, keep, half=half)

    @pytest.mark.parametrize("n,half,shape", [(5, 2, (2, 5, 5)), (5, 1, (5, 3)),
                                              (4, 1, (4,)), (4, 1, (2, 1, 3)),
                                              (4, 1, (3, 2, 1, 4))])
    def test_band_layout_keep_is_refused(self, n, half, shape):
        """Banded attend takes the [..., 1, n] key mask a dense head takes;
        an [..., n, 2*half+1] band-layout keep raises naming keep, also
        when 2*half+1 == n would let it broadcast, and so does a key mask
        without its query axis, of the wrong length or with more batch
        axes than q."""
        x = Tensor(np.ones((2, n, 3)))
        with pytest.raises(ValueError, match="keep"):
            attend(x, x, x, np.ones(shape, dtype=bool), half=half)

    @pytest.mark.parametrize("keep", [None, [True] * 5, True])
    def test_keep_must_be_an_array(self, keep):
        """A mask that is not an array (None would mask every pair and
        give all-zero output) is refused, naming keep."""
        x = Tensor(np.ones((5, 2)))
        with pytest.raises(TypeError, match="keep"):
            attend(x, x, x, keep)
        with pytest.raises(TypeError, match="keep"):
            attend(x, x, x, keep, half=1)


def ragged_batch(rng, lengths, n, d_h=8, extra=0):
    """float32 q, k, v [B, n + extra, d_h] whose rows past each sequence's
    length are junk of scale 1e3, and the [B, n + extra] validity mask."""
    q, k, v = (rng.normal(size=(len(lengths), n + extra, d_h)).astype(np.float32)
               for _ in range(3))
    keep = np.arange(n + extra) < np.asarray(lengths)[:, None]
    for x in (q, k, v):
        x[~keep] *= 1e3
    return q, k, v, keep


def attend_rows(q, k, v, keep, probe, rows=True):
    """attend with keep as the key mask and rows as the valid query rows
    (keep itself when True, none when False); returns z, the weights and
    the gradients of (z * probe).sum()."""
    tq, tk, tv = (Tensor(x, requires_grad=True) for x in (q, k, v))
    rows = keep if rows is True else None if rows is False else rows
    z, a = attend(tq, tk, tv, keep[..., None, :], rows=rows)
    (z * Tensor(probe)).sum().backward()
    return z.data, a.data, tq.grad, tk.grad, tv.grad


class TestPerSequenceRows:
    """Dense attend given valid query rows: past SEQUENCE_PAIRS each
    sequence runs alone over its valid rows and keys, bit for bit as if
    called on that sequence, with exact zeros at the padding."""

    LONG = int(np.ceil(np.sqrt(SEQUENCE_PAIRS))) + 3  # n_b * n_b past the rule

    def test_each_sequence_matches_attend_alone_bit_for_bit(self):
        """Per sequence, over as many keys as queries (a full head) and
        half as many (a conv head's compressed stream): z, the weights and
        the gradients, which the backward takes from weights it remakes
        from their row statistics, are the bytes of attend on that
        sequence alone, which keeps its weights."""
        rng = np.random.default_rng(21)
        short = [self.LONG - 40, self.LONG, 9]
        for lengths, key_lengths in ((short, short), ([2 * n for n in short], short)):
            q, _, _, rows = ragged_batch(rng, lengths, max(lengths))
            _, k, v, keys = ragged_batch(rng, key_lengths, max(key_lengths))
            probe = rng.normal(size=q.shape).astype(np.float32)
            z, a, gq, gk, gv = attend_rows(q, k, v, keys, probe, rows=rows)
            assert a.shape == (sum(n * m for n, m in zip(lengths, key_lengths)),)
            start = 0
            for b, (n, m) in enumerate(zip(lengths, key_lengths)):
                zb, ab, gqb, gkb, gvb = attend_rows(q[b, :n], k[b, :m], v[b, :m],
                                                    np.ones(m, dtype=bool), probe[b, :n],
                                                    rows=False)
                assert z[b, :n].tobytes() == zb.tobytes()
                assert a[start:start + n * m].tobytes() == ab.tobytes()
                for got, want, valid in ((gq, gqb, n), (gk, gkb, m), (gv, gvb, m)):
                    assert got[b, :valid].tobytes() == want.tobytes()
                start += n * m
            for x, valid in ((z, rows), (gq, rows), (gk, keys), (gv, keys)):
                assert not x[~valid].any()

    def test_appended_junk_rows_leave_valid_bytes_unchanged(self):
        rng = np.random.default_rng(22)
        lengths = [self.LONG, self.LONG - 100]
        q, k, v, keep = ragged_batch(rng, lengths, self.LONG, extra=7)
        probe = rng.normal(size=q.shape).astype(np.float32)
        cut = attend_rows(q[:, :self.LONG], k[:, :self.LONG], v[:, :self.LONG],
                          keep[:, :self.LONG], probe[:, :self.LONG])
        padded = attend_rows(q, k, v, keep, probe)
        assert padded[1].tobytes() == cut[1].tobytes()
        for got, want in zip(padded[:1] + padded[2:], cut[:1] + cut[2:]):
            assert got[:, :self.LONG].tobytes() == want.tobytes()
            assert not got[:, self.LONG:].any()

    def test_batch_below_the_rule_stays_batched(self):
        """Lengths whose pairs fall short of the rule, however much padding
        the batch has, give the bytes of attend without rows."""
        rng = np.random.default_rng(23)
        short = int(np.sqrt(SEQUENCE_PAIRS)) - 1
        q, k, v, keep = ragged_batch(rng, [short, short - 5], short + 200)
        probe = rng.normal(size=q.shape).astype(np.float32)
        got = attend_rows(q, k, v, keep, probe)
        assert got[1].shape == q.shape[:-1] + (q.shape[-2],)
        for x, want in zip(got, attend_rows(q, k, v, keep, probe, rows=False)):
            assert x.tobytes() == want.tobytes()

    def test_gradients_every_entry(self, monkeypatch):
        """Finite differences through a small batch the lowered rule sends
        per sequence, with queries and keys of different lengths and a
        sequence with no valid row."""
        monkeypatch.setattr(tensor, "SEQUENCE_PAIRS", 6)
        rng = np.random.default_rng(24)
        q, k, v = qkv(rng, 5, 4, d_h=3, lead=(3,))
        rows = np.arange(5) < np.array([[5], [2], [0]])
        keys = np.arange(4) < np.array([[3], [4], [2]])
        r = rng.normal(size=q.shape)
        with using_dtype("float64"):
            tq, tk, tv = (Tensor(x, requires_grad=True) for x in (q, k, v))
            assert attend(tq, tk, tv, keys[:, None, :], rows=rows)[1].shape == (5 * 3 + 2 * 4,)
            report = grad_check(
                lambda: (attend(tq, tk, tv, keys[:, None, :], rows=rows)[0] * r).sum(),
                [Parameter("q", tq), Parameter("k", tk), Parameter("v", tv)],
                max_samples=q.size)
        assert report.ok, report.failures()
        assert [e.checked for e in report.entries] == [q.size, k.size, v.size]

    def test_rows_need_a_dense_head_and_a_key_mask(self):
        x = Tensor(np.zeros((2, 5, 3)))
        rows = np.ones((2, 5), dtype=bool)
        with pytest.raises(ValueError, match="rows"):
            attend(x, x, x, np.ones((2, 5, 5), dtype=bool), rows=rows)
        with pytest.raises(ValueError, match="rows"):
            attend(x, x, x, np.ones((2, 5, 3), dtype=bool), half=1, rows=rows)
        with pytest.raises(ValueError, match="rows"):
            attend(x, x, x, np.ones(5, dtype=bool), rows=rows)
        with pytest.raises(ValueError, match="broadcast"):
            attend(x, x, x, np.ones((2, 1, 5), dtype=bool), rows=rows[:, :4])

    def test_rows_broadcast_over_any_leading_axes(self, monkeypatch):
        """rows broadcasts to q's rows, and the parts are cut over every
        leading axis: a [2, 3] batch gives the bytes of the same six
        sequences as a [6] batch, one [n] sequence those of a batch of
        one, and [n] rows over a batch those of the rows repeated."""
        monkeypatch.setattr(tensor, "SEQUENCE_PAIRS", 6)
        rng = np.random.default_rng(25)
        q, k, v = (x.reshape(2, 3, 5, 4) for x in ragged_batch(rng, [5] * 6, 5, d_h=4)[:3])
        rows = rng.random((2, 3, 5)) > 0.3
        keys = rng.random((2, 3, 5)) > 0.3
        keys[..., 0] = True
        rows[0, 0] = keys[0, 0] = True  # 25 pairs: past the lowered rule alone
        probe = rng.normal(size=q.shape).astype(np.float32)
        got = attend_rows(q, k, v, keys, probe, rows=rows)
        flat = attend_rows(*(x.reshape((6,) + x.shape[2:]) for x in (q, k, v, keys, probe)),
                           rows=rows.reshape(6, 5))
        assert [x.tobytes() for x in got] == [x.tobytes() for x in flat]
        one = attend_rows(q[0, 0], k[0, 0], v[0, 0], keys[0, 0], probe[0, 0], rows=rows[0, 0])
        batch_of_one = attend_rows(q[0, :1], k[0, :1], v[0, :1], keys[0, :1], probe[0, :1],
                                   rows=rows[0, :1])
        assert [x.tobytes() for x in one] == [x.tobytes() for x in batch_of_one]
        assert got[1].ndim == one[1].ndim == 1  # per sequence, flat weights
        shared = attend_rows(q[0], k[0], v[0], keys[0], probe[0], rows=rows[0, 0])
        repeated = attend_rows(q[0], k[0], v[0], keys[0], probe[0],
                               rows=np.repeat(rows[0, :1], 3, axis=0))
        assert [x.tobytes() for x in shared] == [x.tobytes() for x in repeated]


class TestConv1d:
    @pytest.mark.parametrize("t,k,stride", [
        (8, 3, 1), (9, 5, 2), (7, 1, 1), (10, 3, 2), (5, 5, 2), (2, 5, 1),
    ])
    def test_matches_naive_oracle(self, t, k, stride):
        """Zero-padded by k//2 at both ends, so output frame j is centred
        on input frame j*stride."""
        rng = np.random.default_rng(100 + t + k)
        x = rng.normal(size=(2, t, 3))
        w = rng.normal(size=(k, 3, 4))
        b = rng.normal(size=4)
        with using_dtype("float64"):
            got = conv1d(Tensor(x), Tensor(w), Tensor(b), stride)
        assert got.shape == (2, -(-t // stride), 4)
        for bi in range(2):
            want = naive_conv1d(x[bi], w, b, stride, k // 2)
            np.testing.assert_allclose(got.data[bi], want, atol=1e-12)

    def test_shape_validation(self):
        x = Tensor(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="channel"):
            conv1d(x, Tensor(np.zeros((3, 2, 4))), Tensor(np.zeros(4)))
        for k in (0, 2, 4):
            with pytest.raises(ValueError, match="odd kernel"):
                conv1d(x, Tensor(np.zeros((k, 3, 4))), Tensor(np.zeros(4)))
        with pytest.raises(ValueError, match="stride"):
            conv1d(x, Tensor(np.zeros((3, 3, 4))), Tensor(np.zeros(4)), stride=0)

    def test_gradients(self):
        rng = np.random.default_rng(13)
        for k, stride in ((3, 2), (5, 2), (1, 2)):
            with using_dtype("float64"):
                x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
                w = Tensor(rng.normal(size=(k, 3, 2)), requires_grad=True)
                b = Tensor(rng.normal(size=2), requires_grad=True)

                def f():
                    y = conv1d(x, w, b, stride=stride)
                    return (y * y).sum()

                report = grad_check(
                    f, [Parameter("x", x), Parameter("w", w), Parameter("b", b)])
            assert report.ok, (k, stride, report.failures())

    @pytest.mark.parametrize("lead,t,d_in,d_out,k,stride", [
        ((2,), 9, 3, 4, 5, 2),  # toy
        ((4,), 1024, 80, 256, 5, 2),  # paper-width subsampler, many GEMM blocks
    ])
    def test_keep_is_a_conv_over_the_masked_input(self, lead, t, d_in, d_out, k, stride):
        """conv1d(x, w, b, s, keep) gives the output and the x, w and b
        gradients of conv1d over mul(x, keep) byte for byte, the signs of
        the -0.0s at masked frames included."""
        rng = np.random.default_rng(14 + t)
        arrays = [rng.normal(size=lead + (t, d_in)), rng.normal(size=(k, d_in, d_out)),
                  rng.normal(size=d_out)]
        keep = np.arange(t) < rng.integers(1, t, size=lead)[..., None]
        probe = rng.normal(size=lead + (-(-t // stride), d_out)).astype(np.float32)
        got = []
        for fused in (True, False):
            x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
            if fused:
                y = conv1d(x, w, b, stride, keep)
            else:
                y = conv1d(mul(x, keep[..., None].astype(np.float32)), w, b, stride)
            (y * probe).sum().backward()
            got.append([a.tobytes() for a in (y.data, x.grad, w.grad, b.grad)])
        assert got[0] == got[1]
        assert np.signbit(np.frombuffer(got[0][1], np.float32)).any()

    def test_gradients_with_keep(self):
        rng = np.random.default_rng(15)
        keep = np.array([[True] * 6, [True] * 4 + [False] * 2])
        with using_dtype("float64"):
            x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
            b = Tensor(rng.normal(size=2), requires_grad=True)

            def f():
                y = conv1d(x, w, b, 2, keep)
                return (y * y).sum()

            report = grad_check(f, [Parameter("x", x), Parameter("w", w), Parameter("b", b)])
            f().backward()
        assert report.ok, report.failures()
        assert not x.grad[1, 4:].any()  # masked frames reach nothing


def generic_ffn(x, w1, b1, w2, b2):
    """The feed-forward block as a chain of generic nodes."""
    return matmul(relu(matmul(x, w1) + b1), w2) + b2


def ffn_leaves(rng, lead, d=8, hidden=16):
    """x [*lead, d] and FFN weights, with some pre-activations exactly 0:
    the first position of x is zero and so are the first four of b1."""
    x = rng.normal(size=lead + (d,))
    x[..., 0, :] = 0.0
    b1 = rng.normal(size=hidden)
    b1[:4] = 0.0
    return [x, rng.normal(size=(d, hidden)), b1, rng.normal(size=(hidden, d)),
            rng.normal(size=d)]


class TestFFN:
    @pytest.mark.parametrize("lead", [(3, 5), (5,)], ids=["batched", "2d"])
    def test_bit_identical_to_generic_chain(self, lead):
        """Output and all five gradients match the matmul -> add -> relu ->
        matmul -> add chain bit for bit, in float32."""
        rng = np.random.default_rng(21)
        arrays = ffn_leaves(rng, lead)
        r = rng.normal(size=lead + (8,)).astype(np.float32)
        results = []
        for op in (ffn, generic_ffn):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = op(*leaves)
            (out * r).sum().backward()
            results.append([out.data] + [t.grad for t in leaves])
        pre = arrays[0].astype(np.float32) @ arrays[1].astype(np.float32)
        assert ((pre + arrays[2].astype(np.float32)) == 0.0).any()
        for got, want in zip(*results):
            assert got.dtype == np.float32
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("lead", [(2, 2 * FFN_BLOCK + 37), (2 * FFN_BLOCK + 37,)],
                             ids=["batched", "2d"])
    def test_row_blocks_are_row_blocks_of_the_generic_chain(self, lead):
        """Past FFN_BLOCK rows, y and x's gradient are still bit for bit the
        generic chain's, being row blocks of its GEMMs; the w1, b1 and w2
        gradients are the block-order sums of the generic chain's per
        block, and b2's is the generic chain's."""
        blocks = [slice(r0, r0 + FFN_BLOCK) for r0 in range(0, lead[-1], FFN_BLOCK)]
        assert len(blocks) == 3
        rng = np.random.default_rng(24)
        arrays = ffn_leaves(rng, lead)
        r = rng.normal(size=lead + (8,)).astype(np.float32)

        def run(op, rows=slice(None)):
            leaves = [Tensor(a, requires_grad=True)
                      for a in [arrays[0][..., rows, :], *arrays[1:]]]
            out = op(*leaves)
            (out * r[..., rows, :]).sum().backward()
            return [out.data] + [t.grad for t in leaves]

        got, whole = run(ffn), run(generic_ffn)
        for i in (0, 1, 5):  # y, x's gradient, b2's gradient
            assert np.array_equal(got[i], whole[i]), i
        summed = None
        for rows in blocks:
            part = run(generic_ffn, rows)[2:5]
            if summed is None:
                summed = part
            else:
                for total, term in zip(summed, part):
                    total += term
        for i, want in zip((2, 3, 4), summed):
            assert got[i].dtype == np.float32
            assert np.array_equal(got[i], want), i
            np.testing.assert_allclose(got[i], whole[i], rtol=1e-4, atol=1e-3)

    def test_gradient_across_row_blocks(self):
        # each hidden unit is on, or off, at every row: a step of w1 moves
        # thousands of pre-activations, and none may cross the kink
        rng = np.random.default_rng(25)
        arrays = [rng.normal(size=s) for s in
                  [(2 * FFN_BLOCK + 37, 4), (4, 8), (8,), (8, 3), (3,)]]
        arrays[1] *= 0.05
        arrays[2] = np.tile([2.0, -2.0], 4)
        r = rng.normal(size=(2 * FFN_BLOCK + 37, 3))
        with using_dtype("float64"):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            report = grad_check(lambda: (ffn(*leaves) * r).sum(),
                                [Parameter(n, t) for n, t in
                                 zip(("x", "w1", "b1", "w2", "b2"), leaves)], max_samples=64)
        assert report.ok, report.failures()

    def test_leaves_incoming_gradient_untouched(self):
        """add hands one gradient array to both parents, so the node must
        not write into it."""
        rng = np.random.default_rng(22)
        out = ffn(*(Tensor(a, requires_grad=True) for a in ffn_leaves(rng, (2, 4))))
        g = rng.normal(size=out.shape).astype(np.float32)
        before = g.copy()
        out._backward(g)
        assert np.array_equal(g, before)

    def test_gradient(self):
        # no exact-zero pre-activations here: a finite difference across
        # the rectifier's kink is not a derivative
        rng = np.random.default_rng(23)
        arrays = [rng.normal(size=s) for s in [(2, 3, 8), (8, 16), (16,), (16, 8), (8,)]]
        r = rng.normal(size=(2, 3, 8))
        with using_dtype("float64"):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            report = grad_check(lambda: (ffn(*leaves) * r).sum(),
                                [Parameter(n, t) for n, t in
                                 zip(("x", "w1", "b1", "w2", "b2"), leaves)])
        assert report.ok, report.failures()


class TestLayerNormAndDropout:
    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(4, 16)))
        ones, zeros = Tensor(np.ones(16)), Tensor(np.zeros(16))
        out = layer_norm(x, ones, zeros).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_gradient(self):
        # gain and bias are [8] and broadcast over every leading axis
        rng = np.random.default_rng(15)
        for shape in ((3, 8), (2, 3, 8)):
            with using_dtype("float64"):
                x = Tensor(rng.normal(size=shape), requires_grad=True)
                g = Tensor(rng.normal(size=8), requires_grad=True)
                b = Tensor(rng.normal(size=8), requires_grad=True)

                def f():
                    y = layer_norm(x, g, b)
                    return (y * y).sum()

                report = grad_check(
                    f, [Parameter("x", x), Parameter("g", g), Parameter("b", b)])
            assert report.ok, (shape, report.failures())

    def test_dropout_zero_rate_is_identity(self):
        x = Tensor(np.ones((5, 5)))
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_scales_survivors(self):
        x = Tensor(np.ones((1000,)))
        out = dropout(x, 0.25, np.random.default_rng(16)).data
        kept = out != 0.0
        np.testing.assert_allclose(out[kept], 1.0 / 0.75)
        assert 0.6 < kept.mean() < 0.9

    def test_dropout_seed_reproducible(self):
        x = Tensor(np.ones((4, 4)))
        a = dropout(x, 0.5, np.random.default_rng(17)).data
        b = dropout(x, 0.5, np.random.default_rng(17)).data
        np.testing.assert_array_equal(a, b)
        with pytest.raises(ValueError):
            dropout(x, 1.0, np.random.default_rng(0))


class TestAutogradEngine:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_gradients_accumulate_until_cleared(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 3.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])
        zero_grad([Parameter("x", x)])
        assert x.grad is None

    def test_graph_pruning_skips_frozen_leaves(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=False)
        (a * b).sum().backward()
        assert b.grad is None
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])

    def test_only_leaves_keep_gradients(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        h = relu(matmul(x, w))
        loss = (h * h).sum()
        inner = [node for node in _topo_order(loss._node) if node._backward is not None]
        loss.backward()
        # inner nodes have no gradient slot at all, and the inner tensors
        # they stand for keep none
        assert len(inner) == 4 and all(type(node) is _Node for node in inner)
        assert not any(hasattr(node, "grad") for node in inner)
        assert h.grad is None and loss.grad is None
        mask = x.data @ w.data > 0
        gh = 2.0 * np.where(mask, x.data @ w.data, 0.0)
        np.testing.assert_allclose(x.grad, gh @ w.data.T, rtol=1e-6)
        np.testing.assert_allclose(w.grad, x.data.T @ gh, rtol=1e-6)

    def test_backward_consumes_its_graph(self):
        """A sweep frees every node it passes: each drops its parents and
        backward rule, so nothing of the graph outlives the sweep."""
        x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        y = relu(x * 3.0)
        loss = (y * y).sum()
        inner = [node for node in _topo_order(loss) if node._backward is not None]
        loss.backward()
        assert len(inner) == 4
        assert all(node._parents == () for node in inner)
        assert x.requires_grad and x._backward is None
        np.testing.assert_array_equal(x.grad, [36.0, 0.0])

    def test_second_sweep_through_a_consumed_node_raises(self):
        """Two losses share y.  The first backward() consumes y, so the
        second raises instead of skipping y or counting it twice, and
        leaves every gradient as the first left it; a fresh forward still
        backpropagates."""
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x * 3.0
        first, second = y.sum(), (y * y).sum()
        first.backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])
        with pytest.raises(ValueError, match="consumed"):
            second.backward()
        with pytest.raises(ValueError, match="consumed"):
            first.backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])
        ((x * 3.0) * (x * 3.0)).sum().backward()
        np.testing.assert_array_equal(x.grad, [3.0 + 18.0, 3.0 + 36.0])

    def test_dropped_outputs_are_freed_while_their_graph_lives(self):
        """An output no backward rule reads is freed as soon as the caller
        drops it: the conv output its rectifier replaces by a bool mask,
        the rectified frames pack gathers rows from, and the packed rows a
        constant is added to.  The backward then gives the gradients a
        pass that kept them gives."""
        rng = np.random.default_rng(30)
        arrays = [rng.normal(size=s) for s in [(2, 8, 4), (3, 4, 4), (4,)]]
        keep = np.ones((2, 8), dtype=bool)
        keep[1, 5:] = False
        grads = []
        for drop in (False, True):
            x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
            c = conv1d(x, w, b)
            h = relu(c)
            rows = pack(h, keep)
            out = rows + 1.0
            loss = (out * out).sum()
            if drop:
                freed = [weakref.ref(t.data) for t in (c, h, rows)]
                del c, h, rows
                assert [r() is None for r in freed] == [True] * 3
            loss.backward()
            grads.append([t.grad for t in (x, w, b)])
        for kept, dropped in zip(*grads):
            np.testing.assert_array_equal(kept, dropped)

    def test_a_product_keeps_nothing_for_an_untracked_factor(self):
        """mul and matmul keep the untracked factor's data for the tracked
        one's gradient, but not the tracked one's data, which only the
        untracked factor's gradient reads; they return None for it."""
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 4)))
        g = rng.normal(size=(3, 4)).astype(np.float32)
        cases = [(mul, c, g, g * c.data), (matmul, c.mT, g[:, :3], g[:, :3] @ c.data)]
        for op, other, g_out, want in cases:
            h = x * 2.0
            y = op(h, other)
            freed = weakref.ref(h.data)
            del h
            assert freed() is None
            gh, gc = y._backward(g_out)
            assert gc is None
            np.testing.assert_array_equal(gh, want)

    def test_shared_node_gets_summed_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        (y + y).sum().backward()
        np.testing.assert_array_equal(x.grad, [6.0])


class TestPrecisionModes:
    def test_using_dtype_scopes_and_restores(self):
        base = Tensor(np.zeros(1)).data.dtype
        with using_dtype("float64"):
            assert Tensor(np.zeros(1)).data.dtype == np.float64
            with using_dtype("float32"):
                assert Tensor(np.zeros(1)).data.dtype == np.float32
            assert Tensor(np.zeros(1)).data.dtype == np.float64
        assert Tensor(np.zeros(1)).data.dtype == base

    def test_grad_check_refuses_float32_mode(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda: x.sum(), [Parameter("x", x)])


class TestGradCheckHarness:
    def test_passes_on_composite_function(self):
        rng = np.random.default_rng(18)
        with using_dtype("float64"):
            x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

            def f():
                h = relu(matmul(x, w))
                return (attend(h, h, h, np.ones(3, dtype=bool))[0] * h).sum()

            report = grad_check(f, [Parameter("x", x), Parameter("w", w)])
        assert report.ok
        assert report.max_rel_err() < 1e-6

    def test_flags_a_wrong_gradient(self):
        # negative control: an op whose backward is off by 2x must fail
        with using_dtype("float64"):
            x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

            def bad_double(t):
                return _make(t.data * 2.0, (t,), lambda g: (g * 4.0,))

            report = grad_check(lambda: bad_double(x).sum(),
                                [Parameter("x", x)])
        assert not report.ok
        assert report.failures()[0].name == "x"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting applies to glibc's malloc only")
def test_freed_memory_stays_mapped():
    """Importing the tensor module keeps freed heap memory mapped, so a
    second large allocation reuses pages instead of faulting them in."""
    import resource

    size = 64 << 20
    first = np.empty(size, dtype=np.uint8)
    first.fill(1)
    del first
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    second = np.empty(size, dtype=np.uint8)
    second.fill(1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    del second
    assert faults < 64, f"{faults} minor faults refilling a freed 64 MiB block"
