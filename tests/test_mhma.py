"""Mixed-mechanism multi-head attention: head spec validation, the output
recomposition identity, weight sharing, and gradients."""

import numpy as np
import pytest

from multiformer.mhma import (HeadSpec, MHMAWeights, head_outputs,
                              init_mhma_weights, mhma_forward, mhma_parameters,
                              recompose_check)
from multiformer.oracles import naive_attention, naive_conv1d, reference_mhsa
from multiformer.tensor import Parameter, Tensor, grad_check, using_dtype
from multiformer.attention import ConvParams, OpCounter, conv_compress, full_attention

MIXED = [HeadSpec("full"), HeadSpec("local", window=4),
         HeadSpec("conv", kernel=3, stride=2),
         HeadSpec("conv", kernel=3, stride=2)]


class TestHeadSpec:
    @pytest.mark.parametrize("spec,label", [
        (HeadSpec("full"), "full"),
        (HeadSpec("local", window=64), "local(64)"),
        (HeadSpec("conv", kernel=5, stride=2), "conv(5,2)"),
    ])
    def test_labels(self, spec, label):
        assert spec.label() == label

    @pytest.mark.parametrize("kwargs", [
        dict(mechanism="sparse"),
        dict(mechanism="local"),                       # window missing
        dict(mechanism="local", window=5),             # odd window
        dict(mechanism="local", window=4, kernel=3),   # stray field
        dict(mechanism="conv", kernel=3),              # stride missing
        dict(mechanism="conv", kernel=4, stride=2),    # even kernel
        dict(mechanism="conv", kernel=3, stride=0),
        dict(mechanism="full", window=2),
    ])
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            HeadSpec(**kwargs)

    def test_frozen(self):
        spec = HeadSpec("full")
        with pytest.raises(Exception):
            spec.mechanism = "local"


class TestInit:
    def test_shapes_and_grad_flags(self):
        rng = np.random.default_rng(0)
        w = init_mhma_weights(12, MIXED, rng)
        assert w.heads == 4 and w.head_dim == 3
        for h in range(4):
            assert w.wq[h].shape == (12, 3)
            assert w.wk[h].shape == (12, 3)
            assert w.wv[h].shape == (12, 3)
        assert w.wo.shape == (12, 12) and w.bo.shape == (12,)
        params = mhma_parameters("x", w)
        assert all(p.tensor.requires_grad for p in params)

    def test_conv_heads_with_same_shape_share_weights(self):
        rng = np.random.default_rng(1)
        w = init_mhma_weights(8, MIXED, rng)
        assert set(w.conv_params) == {(3, 2)}
        mixed2 = MIXED + [HeadSpec("conv", kernel=5, stride=2)]
        w2 = init_mhma_weights(10, mixed2, rng)
        assert set(w2.conv_params) == {(3, 2), (5, 2)}

    def test_deterministic_for_fixed_seed(self):
        a = init_mhma_weights(8, MIXED, np.random.default_rng(7))
        b = init_mhma_weights(8, MIXED, np.random.default_rng(7))
        assert np.array_equal(a.wo.data, b.wo.data)
        assert np.array_equal(a.wq[2].data, b.wq[2].data)

    def test_parameter_names(self):
        w = init_mhma_weights(8, MIXED[:2], np.random.default_rng(2))
        names = {p.name for p in mhma_parameters("enc0", w)}
        assert "enc0.head0.wq" in names
        assert "enc0.head1.wv" in names
        assert "enc0.wo" in names and "enc0.bo" in names

    def test_conv_weights_appear_once_in_parameters(self):
        w = init_mhma_weights(8, MIXED, np.random.default_rng(3))
        names = [p.name for p in mhma_parameters("l", w)]
        conv_names = [n for n in names if "compress" in n]
        assert sorted(conv_names) == ["l.compress.k3s2.bias",
                                      "l.compress.k3s2.weights"]
        assert len(names) == len(set(names))


class TestForward:
    def test_all_full_heads_match_plain_mhsa(self):
        rng = np.random.default_rng(4)
        specs = [HeadSpec("full")] * 4
        d = 16
        w = init_mhma_weights(d, specs, rng)
        x = rng.normal(size=(2, 9, d))
        keep = np.ones((2, 9), dtype=bool)
        keep[0, 7:] = False
        with using_dtype("float64"):
            out = mhma_forward(Tensor(x), specs, w, keep)
        for b in range(2):
            ref = reference_mhsa(x[b], [t.data for t in w.wq],
                                 [t.data for t in w.wk], [t.data for t in w.wv],
                                 w.wo.data, w.bo.data, valid=keep[b])
            got = out.y.data[b][keep[b]]
            np.testing.assert_allclose(got, ref[keep[b]], atol=1e-12)

    def test_output_recomposes_from_head_terms(self):
        rng = np.random.default_rng(5)
        d = 12
        with using_dtype("float64"):
            w = init_mhma_weights(d, MIXED, rng)
            x = Tensor(rng.normal(size=(7, d)))
            out = mhma_forward(x, MIXED, w)
            err = recompose_check(out, w)
            total = sum(head_outputs(out, w)) + w.bo.data
        assert err < 1e-10
        np.testing.assert_allclose(out.y.data, total, atol=1e-10)

    def test_recomposition_float32(self):
        rng = np.random.default_rng(6)
        d = 12
        w = init_mhma_weights(d, MIXED, rng)
        out = mhma_forward(Tensor(rng.normal(size=(2, 7, d))), MIXED, w)
        assert recompose_check(out, w) < 1e-5

    def test_head_outputs_project_z_through_wo_blocks(self):
        """xi^h is z^h times the transposed h-th column block of Wo, bit
        for bit, with the model width on its last axis."""
        rng = np.random.default_rng(7)
        d = 8
        d_h = d // len(MIXED)
        w = init_mhma_weights(d, MIXED, rng)
        out = mhma_forward(Tensor(rng.normal(size=(3, 5, d))), MIXED, w)
        xi = head_outputs(out, w)
        assert len(xi) == len(out.z) == len(MIXED)
        for h, z in enumerate(out.z):
            assert xi[h].shape == (3, 5, d)
            assert np.array_equal(
                xi[h], z.data @ w.wo.data[:, h * d_h:(h + 1) * d_h].T)

    def test_score_product_accounting(self):
        rng = np.random.default_rng(8)
        d, n = 8, 10
        w = init_mhma_weights(d, MIXED, rng)
        c = OpCounter()
        mhma_forward(Tensor(rng.normal(size=(n, d))), MIXED, w, counter=c)
        half = 2
        local = sum(min(n - 1, i + half) - max(0, i - half) + 1
                    for i in range(n))
        conv = n * 5  # ceil(10/2) compressed keys, two conv heads
        assert c.score_products == n * n + local + 2 * conv

    def test_shared_compression_is_computed_once(self):
        """Two conv heads with one (kernel, stride) read the same compressed
        sequence object, so their attention differs only via projections."""
        rng = np.random.default_rng(9)
        d = 8
        w = init_mhma_weights(d, MIXED, rng)
        x = Tensor(rng.normal(size=(6, d)))
        with using_dtype("float64"):
            out = mhma_forward(x, MIXED, w)
        # z's parents are (q, k, v); k's are (compressed stream, wk); the
        # stream's node is the conv's, over (masked x, weights, bias)
        s2, s3 = (out.z[h]._parents[1]._parents[0] for h in (2, 3))
        conv = w.conv_params[(3, 2)]
        assert s2 is s3 and s2.requires_grad
        assert s2._parents[1:] == (conv.weights, conv.bias)

    def test_padding_invariance_at_valid_positions(self):
        """Appending junk frames under a mask must not change outputs at
        valid positions, bit for bit."""
        rng = np.random.default_rng(10)
        d, n = 8, 9
        w = init_mhma_weights(d, MIXED, rng)
        x = rng.normal(size=(n, d))
        junk = rng.normal(size=(5, d)) * 50.0
        keep = np.concatenate([np.ones(n, bool), np.zeros(5, bool)])
        with using_dtype("float64"):
            alone = mhma_forward(Tensor(x), MIXED, w, np.ones(n, bool))
            padded = mhma_forward(Tensor(np.concatenate([x, junk])), MIXED, w,
                                  keep)
        assert np.array_equal(padded.y.data[:n], alone.y.data)

    def test_gradients_through_all_mechanisms(self):
        rng = np.random.default_rng(11)
        d = 8
        with using_dtype("float64"):
            w = init_mhma_weights(d, MIXED, rng)
            x = Tensor(rng.normal(size=(2, 7, d)), requires_grad=True)
            keep = np.ones((2, 7), dtype=bool)
            keep[1, 5:] = False
            params = mhma_parameters("m", w) + [Parameter("x", x)]

            def f():
                out = mhma_forward(x, MIXED, w, keep)
                sel = Tensor(keep[..., None].astype(np.float64))
                return ((out.y * out.y) * sel).sum()

            report = grad_check(f, params, max_samples=8, seed=0)
        assert report.ok, [e.name for e in report.failures()]


class TestCrossAttention:
    """Decoder cross-attention is mhma_forward with all-full heads, queries
    from one sequence and keys/values from another (kv_in)."""

    def test_matches_per_sequence_reference_under_padding(self):
        rng = np.random.default_rng(12)
        d, heads, u, m = 8, 2, 5, 7
        specs = [HeadSpec("full")] * heads
        w = init_mhma_weights(d, specs, rng)
        q_in = rng.normal(size=(3, u, d))
        mem = rng.normal(size=(3, m, d))
        mem_mask = np.ones((3, m), dtype=bool)
        mem_mask[0, 4:] = False
        mem_mask[2, 1:] = False
        with using_dtype("float64"):
            out = mhma_forward(Tensor(q_in), specs, w, mem_mask,
                               kv_in=Tensor(mem))
        d_h = d // heads
        for b in range(3):
            zs = [naive_attention(q_in[b] @ w.wq[h].data, mem[b] @ w.wk[h].data,
                                  mem[b] @ w.wv[h].data, valid=mem_mask[b])[0]
                  for h in range(heads)]
            ref = np.concatenate(zs, axis=-1) @ w.wo.data.T + w.bo.data
            assert ref.shape == (u, heads * d_h)
            np.testing.assert_allclose(out.y.data[b], ref, atol=1e-12)

    def test_appended_memory_padding_leaves_outputs_unchanged(self):
        rng = np.random.default_rng(13)
        d, u, m, extra = 8, 4, 6, 5
        specs = [HeadSpec("full")] * 4
        w = init_mhma_weights(d, specs, rng)
        q_in = Tensor(rng.normal(size=(2, u, d)))
        mem = rng.normal(size=(2, m, d))
        mem_mask = np.ones((2, m), dtype=bool)
        mem_mask[1, 3:] = False
        junk = rng.normal(size=(2, extra, d)) * 50.0
        longer_mask = np.concatenate([mem_mask, np.zeros((2, extra), bool)], axis=1)
        with using_dtype("float64"):
            alone = mhma_forward(q_in, specs, w, mem_mask, kv_in=Tensor(mem))
            padded = mhma_forward(q_in, specs, w, longer_mask,
                                  kv_in=Tensor(np.concatenate([mem, junk], axis=1)))
        np.testing.assert_allclose(padded.y.data, alone.y.data, rtol=0, atol=1e-12)


class TestConvHeads:
    """Conv heads inside mhma_forward against the composed oracles: a
    strided conv over masked input, then dense attention."""

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(10)
        n, d = 13, 6
        specs = [HeadSpec("conv", kernel=3, stride=2)] * 2
        x = rng.normal(size=(n, d))
        keep = np.ones(n, dtype=bool)
        keep[10:] = False
        with using_dtype("float64"):
            w = init_mhma_weights(d, specs, rng)
            cp = w.conv_params[(3, 2)]
            cp.bias.data = rng.normal(size=d)
            out = mhma_forward(Tensor(x), specs, w, keep)
            # the weights of full attention over the same compressed stream,
            # which gives each head's z to the last bit
            stream, skeep = conv_compress(Tensor(x), cp, keep)
            kernel_calls = [full_attention(Tensor(x) @ w.wq[h], stream @ w.wk[h],
                                           stream @ w.wv[h], skeep) for h in range(2)]
        xc = naive_conv1d(np.where(keep[:, None], x, 0.0),
                          cp.weights.data, cp.bias.data, 2, 1)
        centers = np.minimum(np.arange(xc.shape[0]) * 2, n - 1)
        for h, (z, a) in enumerate(kernel_calls):
            assert np.array_equal(z.data, out.z[h].data)
            zr, ar = naive_attention(x @ w.wq[h].data, xc @ w.wk[h].data,
                                     xc @ w.wv[h].data, valid=keep[centers])
            np.testing.assert_allclose(out.z[h].data, zr, atol=1e-11)
            np.testing.assert_allclose(a.data, ar, atol=1e-12)

    def test_counter_uses_compressed_width(self):
        rng = np.random.default_rng(11)
        n, d = 16, 4
        specs = [HeadSpec("conv", kernel=5, stride=2)]
        w = init_mhma_weights(d, specs, rng)
        c = OpCounter()
        mhma_forward(Tensor(rng.normal(size=(n, d))), specs, w, counter=c)
        assert c.score_products == n * 8  # ceil(16/2) = 8 compressed keys

    def test_identity_kernel_reduces_to_full_attention(self):
        """K=1, stride 1, identity weights, zero bias: compression is a
        no-op, so conv heads must equal full heads bit for bit."""
        rng = np.random.default_rng(12)
        n, d = 10, 6
        w = init_mhma_weights(d, [HeadSpec("full")] * 2, rng)
        ident = ConvParams(stride=1,
                           weights=Tensor(np.eye(d, dtype=np.float32)[None]),
                           bias=Tensor(np.zeros(d, dtype=np.float32)))
        w_conv = MHMAWeights(w.wq, w.wk, w.wv, w.wo, w.bo, {(1, 1): ident})
        x = Tensor(rng.normal(size=(n, d)))
        conv = mhma_forward(x, [HeadSpec("conv", kernel=1, stride=1)] * 2, w_conv)
        full = mhma_forward(x, [HeadSpec("full")] * 2, w)
        for h in range(2):
            assert np.array_equal(conv.z[h].data, full.z[h].data)
        assert np.array_equal(conv.y.data, full.y.data)
