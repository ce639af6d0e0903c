"""Seq2seq model tests: subsampler geometry, encoder against a vanilla
oracle, decoder causality and masking, and the loss definition."""

import tracemalloc
import weakref

import numpy as np
import pytest

from multiformer import analysis, model, tensor, training
from multiformer.attention import ConvParams, OpCounter, conv_compress
from multiformer.config import toy_model_config
from multiformer.mhma import HeadSpec, init_mhma_weights, mhma_forward
from multiformer.model import (FFNWeights, ModelConfig, Seq2SeqBatch, decode,
                               encode, forward_loss, init_model_weights,
                               label_smoothed_loss, named_parameters,
                               sinusoidal_positions, subsample,
                               teacher_forced_logits, token_accuracy)
from multiformer.oracles import reference_mhsa
from multiformer.tensor import (Tensor, _topo_order, attend, conv1d, dropout,
                                ffn, grad_check, layer_norm, matmul, relu,
                                using_dtype)
from multiformer.training import SyntheticTaskSpec, gen_synthetic_batch

FULL = [HeadSpec("full")] * 2
MIX = [HeadSpec("local", window=4), HeadSpec("conv", kernel=3, stride=2)]


def reference_encoder_layer(x: np.ndarray, lw, valid: np.ndarray | None = None,
                            eps: float = 1e-5) -> np.ndarray:
    """Vanilla post-norm transformer encoder layer (all-full heads, relu FFN).

    lw is a plain dict of numpy arrays: wq/wk/wv (lists), wo, bo,
    ln1_g, ln1_b, ffn_w1, ffn_b1, ffn_w2, ffn_b2, ln2_g, ln2_b.
    """

    def ln(v, g, b):
        mu = v.mean(axis=-1, keepdims=True)
        c = v - mu
        var = (c * c).mean(axis=-1, keepdims=True)
        return c / np.sqrt(var + eps) * g + b

    attn = reference_mhsa(x, lw["wq"], lw["wk"], lw["wv"], lw["wo"], lw["bo"], valid)
    x = ln(x + attn, lw["ln1_g"], lw["ln1_b"])
    hidden = np.maximum(x @ lw["ffn_w1"] + lw["ffn_b1"], 0.0)
    ffn = hidden @ lw["ffn_w2"] + lw["ffn_b2"]
    return ln(x + ffn, lw["ln2_g"], lw["ln2_b"])


def tiny_config(layers, d=8, dec=1, vocab=11, feat=5, **kw):
    return ModelConfig(d_model=d, heads=len(layers[0]), encoder_layers=layers,
                       decoder_layers=dec, ffn_dim=16, vocab_size=vocab,
                       input_feature_dim=feat, **kw)


def make_batch(rng, config, b=2, t=20, u=6):
    feats = rng.normal(size=(b, t, config.input_feature_dim))
    smask = np.ones((b, t), dtype=bool)
    targets = rng.integers(3, config.vocab_size, size=(b, u))
    targets[:, 0] = 1
    targets[:, -1] = 2
    tmask = np.ones((b, u), dtype=bool)
    return Seq2SeqBatch(source_features=Tensor(feats), source_mask=smask,
                        target_tokens=targets, target_mask=tmask)


class TestSubsampler:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 7, 8, 50, 100])
    def test_output_length_formula(self, t):
        cfg = tiny_config([MIX])
        w = init_model_weights(cfg, seed=0)
        x = Tensor(np.random.default_rng(t).normal(size=(t, cfg.input_feature_dim)))
        rows, keep = subsample(x, None, w.subsampler)
        assert keep.shape == (-(-(-(-t // 2)) // 2),)  # ceil(ceil(t/2)/2)
        assert keep.all() and rows.shape == (keep.size, cfg.d_model)

    def test_padding_invariance_is_bit_exact(self):
        """Junk frames beyond the mask must not perturb surviving frames:
        inputs are zeroed at masked positions before each conv."""
        rng = np.random.default_rng(1)
        cfg = tiny_config([MIX])
        w = init_model_weights(cfg, seed=0)
        t = 17
        x = rng.normal(size=(t, cfg.input_feature_dim))
        junk = rng.normal(size=(7, cfg.input_feature_dim)) * 100.0
        keep = np.concatenate([np.ones(t, bool), np.zeros(7, bool)])
        alone, keep_a = subsample(Tensor(x), np.ones(t, bool), w.subsampler)
        padded, keep_s = subsample(Tensor(np.concatenate([x, junk])), keep,
                                   w.subsampler)
        m = keep_a.size
        assert keep_a.all() and np.array_equal(keep_s, np.arange(keep_s.size) < m)
        assert np.array_equal(padded.data, alone.data)

    def test_returns_the_valid_rows_in_batch_order(self):
        """Rows are the valid frames of each sequence in turn: a batch of
        two packs to the rows of each sequence subsampled alone."""
        rng = np.random.default_rng(3)
        cfg = tiny_config([MIX])
        w = init_model_weights(cfg, seed=0)
        x = rng.normal(size=(2, 20, cfg.input_feature_dim))
        mask = np.arange(20) < np.array([[20], [9]])
        rows, keep = subsample(Tensor(x), mask, w.subsampler)
        assert keep.sum(axis=-1).tolist() == [5, 3] and rows.shape == (8, cfg.d_model)
        for i, n in enumerate((20, 9)):
            alone, _ = subsample(Tensor(x[i, :n]), None, w.subsampler)
            assert np.array_equal(rows.data[keep[:i].sum():keep[:i + 1].sum()],
                                  alone.data)

    def test_mask_downsampling_tracks_strides(self):
        cfg = tiny_config([MIX])
        w = init_model_weights(cfg, seed=0)
        keep = np.zeros(20, dtype=bool)
        keep[:9] = True  # 9 valid frames -> ceil(9/4) = 3 valid after
        x = Tensor(np.random.default_rng(2).normal(size=(20, cfg.input_feature_dim)))
        _, keep_s = subsample(x, keep, w.subsampler)
        assert keep_s.sum() == 3
        assert keep_s[:3].all()


class TestEncoder:
    def test_single_full_layer_matches_oracle(self):
        rng = np.random.default_rng(3)
        d = 8
        cfg = tiny_config([FULL], d=d)
        with using_dtype("float64"):
            w = init_model_weights(cfg, seed=1)
            x = rng.normal(size=(30, cfg.input_feature_dim))
            h, keep, _ = encode(Tensor(x), None, cfg, w)
        # replay: subsample + positions, then the oracle encoder layer
        with using_dtype("float64"):
            base, _ = subsample(Tensor(x), None, w.subsampler)
            pre = base.data + sinusoidal_positions(base.shape[-2], d)
        layer = w.encoder[0]
        lw = dict(
            wq=[t.data for t in layer.mhma.wq], wk=[t.data for t in layer.mhma.wk],
            wv=[t.data for t in layer.mhma.wv], wo=layer.mhma.wo.data,
            bo=layer.mhma.bo.data, ln1_g=layer.ln1.gain.data,
            ln1_b=layer.ln1.bias.data, ffn_w1=layer.ffn.w1.data,
            ffn_b1=layer.ffn.b1.data, ffn_w2=layer.ffn.w2.data,
            ffn_b2=layer.ffn.b2.data, ln2_g=layer.ln2.gain.data,
            ln2_b=layer.ln2.bias.data)
        ref = reference_encoder_layer(pre, lw)
        np.testing.assert_allclose(h.data, ref, atol=1e-9)

    def test_counter_sums_over_layers(self):
        rng = np.random.default_rng(4)
        cfg = tiny_config([FULL, FULL])
        w = init_model_weights(cfg, seed=0)
        c = OpCounter()
        x = Tensor(rng.normal(size=(16, cfg.input_feature_dim)))
        _, keep, _ = encode(x, None, cfg, w, counter=c)
        n = keep.shape[-1]
        assert c.score_products == 2 * 2 * n * n  # layers x heads x n^2

    def test_position_wise_work_runs_on_valid_rows(self, monkeypatch):
        """Each encoder FFN sees the [N, d] valid rows of the batch, and
        encode's padded output rows are exactly 0."""
        spec = SyntheticTaskSpec()
        cfg = toy_model_config("multiformer_lc", vocab_size=spec.vocab_size,
                               feature_dim=spec.feature_dim)
        w = init_model_weights(cfg, seed=3)
        batch = gen_synthetic_batch(spec, 5, np.random.default_rng(3))
        seen = []
        ffn_block = model._ffn
        monkeypatch.setattr(model, "_ffn",
                            lambda h, f: seen.append(h.shape) or ffn_block(h, f))
        states, keep, _ = encode(batch.source_features, batch.source_mask, cfg, w)
        assert not keep.all()
        assert seen == [(int(keep.sum()), cfg.d_model)] * len(cfg.encoder_layers)
        assert states.shape == keep.shape + (cfg.d_model,)
        assert not states.data[~keep].any() and states.data[keep].any()

    def test_source_length_limit(self):
        cfg = tiny_config([FULL], max_source_len=8)
        w = init_model_weights(cfg, seed=0)
        x = Tensor(np.zeros((9, cfg.input_feature_dim)))
        with pytest.raises(ValueError, match="exceeds"):
            encode(x, None, cfg, w)

    def test_dropout_needs_rng(self):
        cfg = tiny_config([FULL], dropout=0.1)
        w = init_model_weights(cfg, seed=0)
        x = Tensor(np.zeros((8, cfg.input_feature_dim)))
        with pytest.raises(ValueError, match="rng"):
            encode(x, None, cfg, w)
        enc, enc_mask, _ = encode(x, None, cfg, w, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="rng"):
            decode(np.array([1, 3, 4]), None, enc, enc_mask, cfg, w)
        with pytest.raises(ValueError, match="rng"):
            dropout(x, 0.1, None)


class TestDecoder:
    def setup_method(self):
        self.rng = np.random.default_rng(5)
        self.cfg = tiny_config([MIX], dec=2)
        self.w = init_model_weights(self.cfg, seed=2)
        x = Tensor(self.rng.normal(size=(24, self.cfg.input_feature_dim)))
        self.enc, self.enc_mask, _ = encode(x, None, self.cfg, self.w)

    def test_strict_causality(self):
        """Changing target token u must leave logits at positions < u
        bitwise untouched."""
        u = 7
        tokens = self.rng.integers(1, self.cfg.vocab_size, size=u)
        base = decode(tokens, None, self.enc, self.enc_mask, self.cfg, self.w)
        for flip in [3, 6]:
            mutated = tokens.copy()
            mutated[flip] = (mutated[flip] + 1) % self.cfg.vocab_size
            out = decode(mutated, None, self.enc, self.enc_mask, self.cfg,
                         self.w)
            assert np.array_equal(out.data[:flip], base.data[:flip])
            assert not np.array_equal(out.data[flip:], base.data[flip:])

    def test_padded_target_positions_are_inert(self):
        """Over a batch of encoder states, one of them padded, a changed
        token at a padded target position moves only its own logits."""
        u = 6
        x = Tensor(self.rng.normal(size=(2, 24, self.cfg.input_feature_dim)))
        smask = np.arange(24) < np.array([[24], [17]])
        enc, enc_mask, _ = encode(x, smask, self.cfg, self.w)
        tokens = self.rng.integers(1, self.cfg.vocab_size, size=(2, u))
        tmask = np.ones((2, u), dtype=bool)
        tmask[:, 4:] = False
        base = decode(tokens, tmask, enc, enc_mask, self.cfg, self.w)
        mutated = tokens.copy()
        mutated[:, 5] = (tokens[:, 5] + 1) % self.cfg.vocab_size
        out = decode(mutated, tmask, enc, enc_mask, self.cfg, self.w)
        # positions before the padding cut see identical context
        assert np.array_equal(out.data[:, :5], base.data[:, :5])
        assert not np.array_equal(out.data[:, 5], base.data[:, 5])

    def test_target_length_limit(self):
        cfg = tiny_config([MIX], max_target_len=4)
        w = init_model_weights(cfg, seed=0)
        x = Tensor(np.zeros((8, cfg.input_feature_dim)))
        enc, em, _ = encode(x, None, cfg, w)
        with pytest.raises(ValueError, match="exceeds"):
            decode(np.ones(5, dtype=np.int64), None, enc, em, cfg, w)


class TestMaskedSourceInvariance:
    def test_junk_source_frames_cannot_reach_logits(self):
        """End to end: extra junk source frames under the mask leave the
        kept encoder rows bitwise unchanged.  Decoder logits contract over
        the padded source axis, so summation order there may regroup; the
        junk must still be value-invisible."""
        rng = np.random.default_rng(6)
        cfg = tiny_config([MIX, MIX])
        w = init_model_weights(cfg, seed=3)
        t = 21
        feats = rng.normal(size=(t, cfg.input_feature_dim))
        junk = rng.normal(size=(8, cfg.input_feature_dim)) * 1e3
        tokens = rng.integers(1, cfg.vocab_size, size=5)

        enc_a, mask_a, _ = encode(Tensor(feats), np.ones(t, bool), cfg, w)
        out_a = decode(tokens, None, enc_a, mask_a, cfg, w)

        keep = np.concatenate([np.ones(t, bool), np.zeros(8, bool)])
        enc_b, mask_b, _ = encode(Tensor(np.concatenate([feats, junk])),
                                  keep, cfg, w)
        out_b = decode(tokens, None, enc_b, mask_b, cfg, w)

        m = enc_a.shape[-2]
        assert np.array_equal(enc_b.data[:m][mask_a], enc_a.data[mask_a])
        np.testing.assert_allclose(out_b.data, out_a.data, atol=1e-5)


class TestBatchedPaddingInvariance:
    """Padded batches as training builds them: masked junk frames appended
    to the whole batch leave every valid encoder row and the loss
    unchanged, and a sequence encoded alone matches its rows in the batch.
    Full heads regroup their row sums when the padded length grows, so
    the check is to 1e-12 in float64 rather than bitwise."""

    @pytest.mark.parametrize("preset", ["baseline", "local_attention",
                                        "conv_attention", "multiformer_lc"])
    def test_junk_frames_and_batching_leave_outputs_unchanged(self, preset):
        spec = SyntheticTaskSpec()
        with using_dtype("float64"):
            cfg = toy_model_config(preset, vocab_size=spec.vocab_size,
                                   feature_dim=spec.feature_dim)
            w = init_model_weights(cfg, seed=3)
            batch = gen_synthetic_batch(spec, 3, np.random.default_rng(5))
            src, smask = batch.source_features.data, batch.source_mask
            b, t, f = src.shape
            junk = np.random.default_rng(6).normal(size=(b, 13, f)) * 100
            padded = Seq2SeqBatch(
                Tensor(np.concatenate([src, junk], axis=1)),
                np.concatenate([smask, np.zeros((b, 13), bool)], axis=1),
                batch.target_tokens, batch.target_mask)

            enc, keep, _ = encode(batch.source_features, smask, cfg, w)
            enc_p, keep_p, _ = encode(padded.source_features, padded.source_mask,
                                      cfg, w)
            m = enc.shape[-2]
            assert np.array_equal(keep_p[:, :m], keep) and not keep_p[:, m:].any()
            np.testing.assert_allclose(enc_p.data[:, :m][keep], enc.data[keep],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(forward_loss(padded, cfg, w).data,
                                       forward_loss(batch, cfg, w).data,
                                       rtol=0, atol=1e-12)

            i = int(np.argmin(smask.sum(axis=-1)))
            n = int(smask[i].sum())
            alone, keep_a, _ = encode(Tensor(src[i:i + 1, :n]),
                                      smask[i:i + 1, :n], cfg, w)
            ma = alone.shape[-2]
            assert keep_a.all() and ma < m
            np.testing.assert_allclose(enc_p.data[i, :ma], alone.data[0],
                                       rtol=0, atol=1e-12)


class TestLoss:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
    def test_uniform_logits_cost_log_v(self, eps):
        v, u = 7, 5
        logits = Tensor(np.zeros((u, v)))
        labels = np.zeros(u, dtype=np.int64)
        loss = label_smoothed_loss(logits, labels, np.ones(u, bool), eps)
        assert abs(float(loss.data) - np.log(v)) < 1e-6

    def test_three_way_example(self):
        # V=3, eps=0.1, one position: logits strongly favor the gold label
        logits = Tensor(np.array([[4.0, 0.0, 0.0]]))
        loss = label_smoothed_loss(logits, np.array([0]), np.ones(1, bool), 0.1)
        lp = np.array([4.0, 0.0, 0.0])
        lp = lp - np.log(np.exp(lp).sum())
        expect = -(0.9 * lp[0] + (0.1 / 3) * lp.sum())
        assert abs(float(loss.data) - expect) < 1e-6

    def test_masked_positions_do_not_contribute(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, size=6)
        mask = np.array([1, 1, 1, 0, 0, 0], dtype=bool)
        a = label_smoothed_loss(Tensor(logits), labels, mask, 0.1)
        mutated = logits.copy()
        mutated[3:] = 99.0
        b = label_smoothed_loss(Tensor(mutated), labels, mask, 0.1)
        assert float(a.data) == float(b.data)

    def test_no_smoothing_reduces_to_nll(self):
        rng = np.random.default_rng(8)
        with using_dtype("float64"):
            logits = rng.normal(size=(4, 6))
            labels = rng.integers(0, 6, size=4)
            loss = label_smoothed_loss(Tensor(logits), labels,
                                       np.ones(4, bool), 0.0)
        lp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
        expect = -lp[np.arange(4), labels].mean()
        assert abs(float(loss.data) - expect) < 1e-9

    def test_all_masked_raises(self):
        with pytest.raises(ValueError, match="no unmasked"):
            label_smoothed_loss(Tensor(np.zeros((2, 3))),
                                np.zeros(2, dtype=np.int64),
                                np.zeros(2, bool), 0.1)

    def test_forward_loss_needs_two_target_columns(self):
        cfg = tiny_config([MIX])
        w = init_model_weights(cfg, seed=0)
        batch = Seq2SeqBatch(
            source_features=Tensor(np.zeros((1, 8, cfg.input_feature_dim))),
            source_mask=np.ones((1, 8), bool),
            target_tokens=np.ones((1, 1), dtype=np.int64),
            target_mask=np.ones((1, 1), bool))
        with pytest.raises(ValueError, match="sentinel"):
            forward_loss(batch, cfg, w)


class TestTokenAccuracy:
    def test_counts_argmax_hits_on_unmasked_labels(self):
        # argmax per position: 2, 0, 1 | 1, 1, 2
        logits = np.array([[[0., 1., 5.], [9., 1., 2.], [0., 3., 1.]],
                           [[1., 4., 0.], [0., 2., 1.], [0., 0., 7.]]])
        labels = np.array([[2, 1, 1], [1, 0, 0]])
        # hits at (0, 0), (0, 2), (1, 0); (0, 2) is masked out
        label_mask = np.array([[1, 1, 0], [1, 1, 0]], bool)
        assert token_accuracy(logits, labels, label_mask) == 2 / 4

    def test_untrained_model_sits_below_ceiling(self):
        rng = np.random.default_rng(9)
        cfg = tiny_config([MIX])
        w = init_model_weights(cfg, seed=4)
        batch = make_batch(rng, cfg, b=3, t=16, u=5)
        logits, labels, label_mask = teacher_forced_logits(batch, cfg, w)
        acc = token_accuracy(logits.data, labels, label_mask)
        assert 0.0 <= acc <= 1.0
        # an untrained model on 11 symbols should sit well below ceiling
        assert acc < 0.8


class TestWeightsAndNaming:
    def test_init_is_deterministic(self):
        cfg = tiny_config([MIX, FULL])
        a = init_model_weights(cfg, seed=11)
        b = init_model_weights(cfg, seed=11)
        pa = {p.name: p.tensor.data for p in named_parameters(a)}
        pb = {p.name: p.tensor.data for p in named_parameters(b)}
        assert set(pa) == set(pb)
        for name in pa:
            assert np.array_equal(pa[name], pb[name]), name
        c = init_model_weights(cfg, seed=12)
        assert not np.array_equal(a.embed.data,
                                  c.embed.data)

    def test_names_sorted_unique_and_trainable(self):
        cfg = tiny_config([MIX, FULL], dec=2)
        params = named_parameters(init_model_weights(cfg, seed=0))
        names = [p.name for p in params]
        assert names == sorted(names)
        assert len(names) == len(set(names))
        assert all(p.tensor.requires_grad for p in params)
        for expected in ["sub.conv1.weights", "dec.embed.table",
                         "dec.out.bias", "enc.layer00.mhma.head0.wq",
                         "enc.layer01.ln2.gain", "dec.layer01.cross.wo",
                         "dec.layer00.ffn.w1"]:
            assert expected in names, expected

    @pytest.mark.parametrize("preset", ["multiformer_v2", "baseline"])
    def test_parameters_are_exactly_the_trained_leaves(self, preset):
        """A leaf the loss reaches but the list omits would get a gradient
        yet never be updated or saved; a listed tensor the loss does not
        reach would be dead weight."""
        spec = SyntheticTaskSpec()
        cfg = toy_model_config(preset, vocab_size=spec.vocab_size,
                               feature_dim=spec.feature_dim)
        w = init_model_weights(cfg, seed=3)
        batch = gen_synthetic_batch(spec, 4, np.random.default_rng(3))
        leaves = {id(t) for t in _topo_order(forward_loss(batch, cfg, w))
                  if not t._parents}
        params = named_parameters(w)
        assert {id(p.tensor) for p in params} == leaves
        assert len(params) == len(leaves)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config([MIX], d=9)  # not divisible by head count
        with pytest.raises(ValueError):
            ModelConfig(d_model=8, heads=2, encoder_layers=[],
                        decoder_layers=1, ffn_dim=4, vocab_size=5,
                        input_feature_dim=3)
        with pytest.raises(ValueError, match="lists 1 heads"):
            ModelConfig(d_model=8, heads=2,
                        encoder_layers=[[HeadSpec("full")]],
                        decoder_layers=1, ffn_dim=4, vocab_size=5,
                        input_feature_dim=3)
        sizes = dict(d_model=8, heads=2, encoder_layers=[FULL], decoder_layers=1,
                     ffn_dim=4, vocab_size=5, input_feature_dim=3)
        ModelConfig(**sizes)
        # heads is checked before d_model % heads can divide by it
        for field, value in [("heads", 0), ("d_model", -8), ("ffn_dim", 0),
                             ("input_feature_dim", 0), ("max_source_len", 0),
                             ("max_target_len", -1)]:
            with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
                ModelConfig(**{**sizes, field: value})


class TestEndToEndGradients:
    def test_forward_loss_gradcheck_mixed_heads(self):
        rng = np.random.default_rng(10)
        cfg = tiny_config([MIX], d=8, dec=1, vocab=7, feat=4)
        with using_dtype("float64"):
            w = init_model_weights(cfg, seed=5)
            batch = make_batch(rng, cfg, b=1, t=12, u=4)
            params = named_parameters(w)
            report = grad_check(lambda: forward_loss(batch, cfg, w),
                                params, max_samples=2, seed=1)
        assert report.ok, [e.name for e in report.failures()]
        assert report.max_rel_err() < 1e-4

    def test_forward_loss_gradcheck_padded_batch(self):
        """Gradients of a padded batch, through the encoder's pack and
        unpack nodes: three sources of 16, 9 and 5 frames with junk in
        the padding, and one target sequence padded."""
        rng = np.random.default_rng(11)
        cfg = tiny_config([MIX, FULL], d=8, dec=1, vocab=7, feat=4)
        with using_dtype("float64"):
            w = init_model_weights(cfg, seed=6)
            batch = make_batch(rng, cfg, b=3, t=16, u=5)
            batch.source_mask = np.arange(16) < np.array([[16], [9], [5]])
            batch.source_features.data[~batch.source_mask] *= 50.0
            batch.target_mask[2, 3:] = False
            report = grad_check(lambda: forward_loss(batch, cfg, w),
                                named_parameters(w), max_samples=2, seed=2)
        assert report.ok, [e.name for e in report.failures()]
        assert report.max_rel_err() < 1e-4


class TestGraphSize:
    def test_local_heads_build_no_more_nodes_than_full_heads(self):
        """Local attention is one autodiff node per head, whatever the
        window, so a toy step's graph is no larger than the all-full
        baseline's.  Node counts are deterministic."""
        spec = SyntheticTaskSpec()
        counts = {}
        for preset in ("baseline", "local_attention"):
            cfg = toy_model_config(preset, vocab_size=spec.vocab_size,
                                   feature_dim=spec.feature_dim)
            w = init_model_weights(cfg, seed=3)
            batch = gen_synthetic_batch(spec, 23, np.random.default_rng(3))
            counts[preset] = len(_topo_order(forward_loss(batch, cfg, w)))
        assert counts["local_attention"] <= counts["baseline"], counts

    def test_each_head_is_one_attention_node(self):
        """Every head's scale, mask, softmax and value product is one node
        over its (q, k, v) projections: full, conv over compressed keys,
        and local with a window narrower than n and one covering it."""
        rng = np.random.default_rng(6)
        specs = [HeadSpec("full"), HeadSpec("conv", kernel=3, stride=2),
                 HeadSpec("local", window=4), HeadSpec("local", window=16)]
        w = init_mhma_weights(8, specs, rng)
        x = Tensor(rng.normal(size=(2, 9, 8)), requires_grad=True)
        keep = np.ones((2, 9), dtype=bool)
        keep[1, 6:] = False
        # window 4 is narrower than n=9; window 16 covers it, so its band's
        # keys are the whole sequence
        assert specs[2].window // 2 < 9 - 1 <= specs[3].window // 2
        out = mhma_forward(x, specs, w, keep)
        for h, z in enumerate(out.z):
            q, k, v = z._parents
            assert q._parents[1] is w.wq[h]
            assert k._parents[1] is w.wk[h]
            assert v._parents[1] is w.wv[h]

    def test_ffn_is_one_node(self, monkeypatch):
        """The feed-forward block is one node over its five parents, so
        the toy baseline's 6 FFNs (4 encoder, 2 decoder) build 4 fewer
        nodes each than the generic matmul/add/relu/matmul/add chain."""
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        w1, b1, w2, b2 = (Tensor(rng.normal(size=s), requires_grad=True)
                          for s in [(8, 16), (16,), (16, 8), (8,)])
        assert ffn(x, w1, b1, w2, b2)._parents == (x, w1, b1, w2, b2)

        spec = SyntheticTaskSpec()
        cfg = toy_model_config("baseline", vocab_size=spec.vocab_size,
                               feature_dim=spec.feature_dim)
        w = init_model_weights(cfg, seed=3)
        batch = gen_synthetic_batch(spec, 23, np.random.default_rng(3))
        fused = len(_topo_order(forward_loss(batch, cfg, w)))
        monkeypatch.setattr(model, "_ffn", lambda h, f: matmul(
            relu(matmul(h, f.w1) + f.b1), f.w2) + f.b2)
        chain = len(_topo_order(forward_loss(batch, cfg, w)))
        assert chain - fused == 6 * 4

    def test_layer_norm_is_one_node(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        g = Tensor(np.ones(8), requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)
        out = layer_norm(x, g, b)
        assert out._parents == (x, g, b)
        assert len(_topo_order(out)) == 4


def _traced(fn):
    """fn()'s result and the traced memory it left allocated, above where
    it started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return result, grown


class TestMemory:
    """Arrays the fused nodes keep, the peaks of their backwards, and the
    graph passes under no_grad() do not build, as traced by tracemalloc,
    which sees NumPy's data buffers."""

    def test_ffn_keeps_no_hidden_array(self):
        """The node keeps x, which the caller holds anyway; the backward
        recomputes the rectified hidden rows from it."""
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 64, 16)), requires_grad=True)
        w = FFNWeights(*(Tensor(rng.normal(size=s), requires_grad=True)
                         for s in [(16, 256), (256,), (256, 16), (16,)]))
        hidden = 4 * 64 * 256 * 4
        out, grown = _traced(lambda: model._ffn(x, w))
        # the output and a little slack
        assert grown <= out.data.nbytes + hidden // 16, grown / hidden

    def test_dense_attend_backward_peaks_at_two_score_arrays(self):
        rng = np.random.default_rng(8)
        q, k, v = (Tensor(rng.normal(size=(2, 256, 8)), requires_grad=True)
                   for _ in range(3))
        z, a = attend(q, k, v, np.ones(256, dtype=bool))
        g = rng.normal(size=z.shape).astype(z.data.dtype)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            z._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the [B, n, m] gradient buffer and one product of it with the weights
        assert peak <= 2.25 * a.data.nbytes, peak / a.data.nbytes

    def test_conv1d_keeps_no_columns(self):
        """The im2col columns its GEMM reads, a strided view of a zero-padded
        copy of x, are gone after the forward; the backward rebuilds them
        from x."""
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(4, 256, 32)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 32, 32)), requires_grad=True)
        b = Tensor(rng.normal(size=32), requires_grad=True)
        out, grown = _traced(lambda: conv1d(x, w, b))
        # the output and a little slack; the padded copy alone is one more
        assert grown <= out.data.nbytes * 9 // 8, grown / out.data.nbytes

    def test_masked_conv_compress_keeps_no_masked_input(self):
        """Given a frame mask, conv_compress keeps no masked copy of its
        input: conv1d masks the frames as it fills its padded copy, so
        what stays allocated is the output and the [.., T, 1] multiplier."""
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(4, 256, 32)), requires_grad=True)
        params = ConvParams(2, *(Tensor(rng.normal(size=s), requires_grad=True)
                                 for s in [(5, 32, 32), (32,)]))
        mask = np.arange(256) < np.array([256, 200, 128, 9])[:, None]
        (out, _), grown = _traced(lambda: conv_compress(x, params, mask))
        # a masked copy of x alone would be twice the output
        assert grown <= out.data.nbytes * 9 // 8, grown / out.data.nbytes

    def test_ffn_backward_peaks_at_one_block_of_hidden_rows(self):
        """Over an input of several FFN_BLOCK row blocks, the backward makes
        one block's hidden rows at a time, its gradient in the same buffer
        beside the bool mask, and frees them before the next block's; so
        it peaks at about 1.3 blocks of hidden rows above the gradients it
        returns, not at the whole input's."""
        rng = np.random.default_rng(11)
        n = 3 * tensor.FFN_BLOCK + 100
        x = Tensor(rng.normal(size=(n, 8)), requires_grad=True)
        w = [Tensor(rng.normal(size=s), requires_grad=True)
             for s in [(8, 512), (512,), (512, 8), (8,)]]
        g = rng.normal(size=(n, 8)).astype(np.float32)
        block = tensor.FFN_BLOCK * 512 * 4
        tracemalloc.start()
        try:
            out = ffn(x, *w)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            grads = out._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in grads[:4])  # x's and the weights' gradients
        assert peak <= 1.3 * block + returned, (peak - returned) / block

    def test_layer_norm_keeps_one_row_array(self):
        """Besides its output the node keeps the centred input and [.., 1]
        row statistics; the normalized rows are recomputed in the
        backward."""
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(256, 64)), requires_grad=True)
        gain, bias = (Tensor(rng.normal(size=64), requires_grad=True) for _ in range(2))
        out, grown = _traced(lambda: layer_norm(x, gain, bias))
        assert grown <= out.data.nbytes * 17 // 8, grown / out.data.nbytes

    def test_layer_norm_backward_peaks_at_two_row_arrays(self):
        """The backward builds x's gradient in place in one fresh buffer
        and frees each other row-sized temporary before the next exists,
        so it peaks at two arrays of x's size, the returned gradient one
        of them (five before it worked in place)."""
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(256, 256)), requires_grad=True)
        gain, bias = (Tensor(rng.normal(size=256), requires_grad=True) for _ in range(2))
        g = rng.normal(size=x.shape).astype(np.float32)
        tracemalloc.start()
        try:
            out = layer_norm(x, gain, bias)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= x.data.nbytes * 9 // 4, peak / x.data.nbytes

    def test_dropout_keeps_a_bool_mask(self):
        """Besides its output the node keeps one byte per element, its bool
        keep mask; the backward rebuilds the float multiplier from it."""
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(512, 256)), requires_grad=True)
        out, grown = _traced(lambda: dropout(x, 0.1, np.random.default_rng(0)))
        assert grown <= out.data.nbytes * 11 // 8, grown / out.data.nbytes

    def test_per_sequence_attend_keeps_row_statistics_not_weights(self):
        """Past SEQUENCE_PAIRS, once the caller drops the returned weights,
        the node keeps z and each sequence's [n_b, 1] row shift and
        divisor; no [n_b, m_b] array stays allocated."""
        rng = np.random.default_rng(18)
        n, d_h = 512, 16
        q, k, v = (Tensor(rng.normal(size=(2, n, d_h)), requires_grad=True)
                   for _ in range(3))
        rows = np.arange(n) < np.array([[n], [n - 64]])
        assert (rows.sum(axis=-1) ** 2).max() >= tensor.SEQUENCE_PAIRS
        z, grown = _traced(lambda: attend(q, k, v, rows[:, None, :], rows=rows)[0])
        statistics = 2 * int(rows.sum()) * 4
        # one sequence's weights alone would be 16 times z
        assert grown <= z.data.nbytes * 9 // 8 + statistics, grown / z.data.nbytes

    def test_per_sequence_backward_peaks_at_three_arrays_of_one_sequence(self):
        """The backward remakes one sequence's weights at a time, beside its
        score gradient and one product of the two; the previous
        sequence's arrays are freed before the next are made."""
        rng = np.random.default_rng(19)
        n, d_h = 512, 8
        q, k, v = (Tensor(rng.normal(size=(2, n, d_h)), requires_grad=True)
                   for _ in range(3))
        rows = np.arange(n) < np.array([[n], [n - 12]])
        z = attend(q, k, v, rows[:, None, :], rows=rows)[0]
        g = rng.normal(size=z.shape).astype(z.data.dtype)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            z._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        block = n * n * 4  # the longest sequence's [n_b, m_b] float32 array
        assert peak <= 3.25 * block, peak / block

    @staticmethod
    def _padded_full_layer_fits(t, softmax_kept, per_head):
        """Forward one padded full-head layer of t source frames (with its
        subsampler) and check the bytes left allocated against the states
        and the arrays the backward rules read, listed here; per_head(b, n,
        rows) counts the float32 entries each head keeps of its softmax.
        The first conv reads the caller's source, so keeps no bytes."""
        b, feat, d, heads, hidden = 4, 8, 64, 4, 256
        cfg = ModelConfig(d_model=d, heads=heads, encoder_layers=[FULL * 2],
                          decoder_layers=1, ffn_dim=hidden, vocab_size=5,
                          input_feature_dim=feat)
        w = init_model_weights(cfg, seed=3)
        rng = np.random.default_rng(15)
        mask = np.arange(t) < np.array([t, 7 * t // 8, 3 * t // 4, 5 * t // 8])[:, None]
        source = Tensor(rng.normal(size=(b, t, feat)) * mask[..., None])
        n = t // 4  # frames at the layer
        rows = int(mask[:, ::4].sum())  # valid ones, packed
        f32 = 4
        kept = {
            "relu 1 mask": b * (t // 2) * d,
            "conv 2 input, relu 1's output": b * (t // 2) * d * f32,
            "relu 2 mask": b * n * d,
            "projections' input, unpacked": b * n * d * f32,
            "each head's q, k, v": heads * 3 * b * n * (d // heads) * f32,
            softmax_kept: heads * per_head(b, n, rows) * f32,
            "heads concatenated, for wo": b * n * d * f32,
            "layer norm 1, centred input": rows * d * f32,
            "ffn input": rows * d * f32,
            "layer norm 2, centred input": rows * d * f32,
            "states": b * n * d * f32,
        }
        states, grown = _traced(lambda: encode(source, mask, cfg, w)[0])
        assert states.shape == (b, n, d)
        budget = sum(kept.values())
        assert grown <= budget * 17 // 16, grown / budget

    def test_padded_encoder_layer_keeps_what_its_rules_read(self):
        """After the forward of one padded full-head layer short enough to
        stay batched, what is left allocated is the states and what the
        rules read; no output a rule does not read stays behind while the
        graph lives."""
        self._padded_full_layer_fits(1024, "each head's weights", lambda b, n, rows: b * n * n)

    def test_per_sequence_encoder_layer_keeps_row_statistics(self):
        """The same past SEQUENCE_PAIRS, where each head runs per sequence:
        it keeps two statistics per valid row in place of its weights."""
        self._padded_full_layer_fits(2048, "each head's row statistics",
                                     lambda b, n, rows: 2 * rows)

    def test_training_pass_frees_the_layer_outputs_before_the_decoder(self, monkeypatch):
        """teacher_forced_logits keeps only encode's states and mask, so
        every layer's head outputs z are freed when encode returns, before
        the decoder runs; the concatenation they view, which wo's gradient
        reads, is freed by the backward."""
        cfg = tiny_config([MIX, FULL], dropout=0.1)
        w = init_model_weights(cfg, seed=4)
        batch = make_batch(np.random.default_rng(16), cfg)
        real_encode, real_decode, arrays, concats = model.encode, model.decode, [], []

        def watch(*args, **kwargs):
            states, keep, heads = real_encode(*args, **kwargs)
            arrays.extend(weakref.ref(z.data) for layer in heads for z in layer)
            concats.extend(weakref.ref(layer[0].data.base) for layer in heads)
            return states, keep, heads

        def check(*args, **kwargs):
            assert len(arrays) == 2 * 2 and all(ref() is None for ref in arrays)
            return real_decode(*args, **kwargs)

        monkeypatch.setattr(model, "encode", watch)
        monkeypatch.setattr(model, "decode", check)
        forward_loss(batch, cfg, w, np.random.default_rng(17)).backward()
        assert len(concats) == 2 and all(ref() is None for ref in concats)

    def test_encode_keeps_no_layer_output_y(self, monkeypatch):
        """encode returns each layer's head outputs and frees the layer's
        MHMA output y once it is packed, while the graph lives."""
        cfg = tiny_config([MIX, FULL])
        w = init_model_weights(cfg, seed=5)
        batch = make_batch(np.random.default_rng(22), cfg)
        real_forward, ys = model.mhma_forward, []

        def watch(*args, **kwargs):
            out = real_forward(*args, **kwargs)
            ys.append(weakref.ref(out.y.data))
            return out

        monkeypatch.setattr(model, "mhma_forward", watch)
        states, _, heads = encode(batch.source_features, batch.source_mask, cfg, w)
        assert states.requires_grad and len(ys) == 2
        assert all(ref() is None for ref in ys)
        assert [len(layer) for layer in heads] == [2, 2]
        assert all(isinstance(z, Tensor) for layer in heads for z in layer)

    def test_no_grad_nodes_keep_no_graph(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        with tensor.no_grad():
            nodes = [matmul(x, w), relu(x), x + x, x.sum(),
                     *attend(x, x, x, np.ones(3, dtype=bool))]
            with tensor.no_grad():
                nodes.append(x * 2.0)
            nodes.append(x * 3.0)  # leaving an inner no_grad() keeps the outer one
        for node in nodes:
            assert not node.requires_grad
            assert node._parents == () and node._backward is None
        assert matmul(x, w)._parents == (x, w)

    def test_no_grad_restores_the_graph_when_its_body_raises(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ZeroDivisionError):
            with tensor.no_grad():
                1 / 0
        y = x * 2.0
        assert y.requires_grad and y._parents == (x,)

    def test_graph_free_passes_match_a_pass_with_a_graph(self, monkeypatch):
        """evaluate and aggregate_contributions build no graph, and they
        return exactly what the same passes with a graph give."""
        spec = SyntheticTaskSpec()
        config = toy_model_config("multiformer_lc", vocab_size=spec.vocab_size,
                                  feature_dim=spec.feature_dim)
        weights = init_model_weights(config, seed=0)
        batch = gen_synthetic_batch(spec, 6, np.random.default_rng(1))
        tracked, real_encode = [], model.encode

        def spy(*args, **kwargs):
            states, keep, heads = real_encode(*args, **kwargs)
            tracked.append(states.requires_grad)
            return states, keep, heads

        monkeypatch.setattr(model, "encode", spy)
        monkeypatch.setattr(analysis, "encode", spy)
        loss, acc = training.evaluate(config, weights, batch)
        report = analysis.aggregate_contributions(config, weights, spec, samples=5, seed=2)
        assert tracked == [False, False]

        logits, labels, label_mask = teacher_forced_logits(batch, config, weights)
        assert logits.requires_grad
        assert loss == float(label_smoothed_loss(logits, labels, label_mask,
                                                 model.SMOOTHING).data)
        assert acc == token_accuracy(logits.data, labels, label_mask)
        sampled = gen_synthetic_batch(spec, 5, np.random.default_rng(2))
        _, keep, heads = encode(sampled.source_features, sampled.source_mask, config, weights)
        assert heads[0][0].requires_grad
        medians = [np.median(analysis.head_contribution(z, layer.mhma)[keep], axis=0)
                   for z, layer in zip(heads, weights.encoder)]
        assert np.array_equal(report.medians, np.stack(medians))
