"""Training harness tests: schedule reference points, Adam against a
closed-form constant-gradient oracle, the synthetic task generator, loop
determinism, warm starts, and checkpoint averaging."""

import dataclasses
import re

import numpy as np
import pytest

import multiformer.model
from multiformer.checkpoint import (load_checkpoint, load_into, save_arrays,
                                   save_checkpoint)
from multiformer.config import toy_model_config
from multiformer.mhma import HeadSpec
from multiformer.model import (ModelConfig, forward_loss, init_model_weights,
                               named_parameters, teacher_forced_logits,
                               token_accuracy)
from multiformer.tensor import Parameter, Tensor, default_dtype, using_dtype
from multiformer.training import (BOS, EOS, PAD, SENTINELS, AdamState,
                                  SyntheticTaskSpec, TrainConfig,
                                  TrainingDiverged, adam_step,
                                  average_checkpoints, batch_size_for, evaluate,
                                  gen_synthetic_batch, inv_sqrt_lr,
                                  read_metrics, select_around_best, train)

FULL2 = [HeadSpec("full"), HeadSpec("full")]


def tiny_spec(**kw):
    base = dict(symbol_count=5, target_len_min=3, target_len_max=5,
                redundancy=2, feature_dim=4, noise=0.05)
    base.update(kw)
    return SyntheticTaskSpec(**base)


def tiny_model(spec) -> ModelConfig:
    return ModelConfig(d_model=8, heads=2, encoder_layers=[FULL2],
                       decoder_layers=1, ffn_dim=16,
                       vocab_size=spec.vocab_size,
                       input_feature_dim=spec.feature_dim)


def run_cfg(**kw) -> TrainConfig:
    base = dict(max_updates=10, batch_tokens=32, seed=0, peak_lr=2e-3,
                warmup_updates=400, log_every=4, eval_sequences=4)
    base.update(kw)
    return TrainConfig(**base)


class TestSchedule:
    def test_reference_points(self):
        # peak 2e-3, warmup 10000: the three canonical recipe values
        cfg = TrainConfig(max_updates=1, peak_lr=2e-3, warmup_updates=10000)
        assert inv_sqrt_lr(10000, cfg) == 2e-3
        assert inv_sqrt_lr(2500, cfg) == 5e-4
        assert inv_sqrt_lr(40000, cfg) == 1e-3

    def test_warmup_is_linear(self):
        cfg = TrainConfig(max_updates=1, peak_lr=1e-3, warmup_updates=100)
        for t in (1, 10, 99):
            assert inv_sqrt_lr(t, cfg) == pytest.approx(1e-3 * t / 100)

    def test_decay_is_inverse_sqrt(self):
        cfg = TrainConfig(max_updates=1, peak_lr=1e-3, warmup_updates=100)
        for t in (101, 400, 10_000):
            assert inv_sqrt_lr(t, cfg) == pytest.approx(1e-3 * (100 / t) ** 0.5)

    def test_step_zero_rejected(self):
        cfg = TrainConfig(max_updates=1)
        with pytest.raises(ValueError, match=">= 1"):
            inv_sqrt_lr(0, cfg)


def one_parameter(values):
    """A parameter buffer that holds one parameter "x", and that parameter."""
    x = Tensor(np.asarray(values, dtype=default_dtype()), requires_grad=True)
    return x.data, [Parameter("x", x)]


def zero_state(flat) -> AdamState:
    return AdamState(np.zeros_like(flat), np.zeros_like(flat))


def assert_views_of_flat(weights) -> None:
    """Every parameter's .data is the contiguous stretch of weights.flat at
    its offset in weights.params order, and the stretches tile flat."""
    offset = 0
    for p in weights.params:
        data = p.tensor.data
        assert np.shares_memory(data, weights.flat), p.name
        assert data.flags.c_contiguous, p.name
        assert data.ctypes.data - weights.flat.ctypes.data == offset * data.itemsize, p.name
        offset += data.size
    assert offset == weights.flat.size


class TestAdam:
    def test_constant_gradient_closed_form(self):
        """With a constant gradient g, bias correction cancels exactly:
        m_hat = g and v_hat = g*g every step, so each update subtracts
        lr * g / (|g| + eps)."""
        with using_dtype("float64"):
            flat, p = one_parameter([1.0, -2.0])
        g = np.array([0.5, -0.25])
        state = zero_state(flat)
        lr = 0.1
        for _ in range(7):
            p[0].tensor.grad = g.copy()
            adam_step(p, flat, state, lr)
        step = lr * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(flat, np.array([1.0, -2.0]) - 7 * step, rtol=1e-9)
        assert p[0].tensor.data is flat

    def test_missing_gradient_means_zero(self):
        flat, p = one_parameter([3.0])
        state = zero_state(flat)
        adam_step(p, flat, state, 0.5)
        assert float(p[0].tensor.data[0]) == 3.0
        assert state.step == 1

    def test_gradient_shape_mismatch(self):
        flat, p = one_parameter(np.zeros(3))
        p[0].tensor.grad = np.zeros(4)
        with pytest.raises(ValueError, match="^x: gradient shape"):
            adam_step(p, flat, zero_state(flat), 0.1)

    def test_state_persists_across_calls(self):
        flat, p = one_parameter([0.0])
        state = zero_state(flat)
        p[0].tensor.grad = np.array([1.0])
        adam_step(p, flat, state, 0.1)
        assert state.step == 1 and state.m.shape == flat.shape
        first = float(state.m[0])
        p[0].tensor.grad = np.array([1.0])
        adam_step(p, flat, state, 0.1)
        assert float(state.m[0]) > first

    def test_matches_per_parameter_replay(self):
        """Five updates of a toy model's buffer equal, bit for bit, Adam run
        one parameter at a time with name-keyed moments, the way it is
        usually written.  One parameter never gets a gradient."""
        spec = tiny_spec()
        weights = init_model_weights(tiny_model(spec), seed=2)
        params = named_parameters(weights)
        skipped = params[3].name
        data = {p.name: p.tensor.data.copy() for p in params}
        m = {name: np.zeros_like(x) for name, x in data.items()}
        v = {name: np.zeros_like(x) for name, x in data.items()}
        state = zero_state(weights.flat)
        rng = np.random.default_rng(8)
        beta1, beta2, eps = 0.9, 0.98, 1e-8
        for t in range(1, 6):
            lr = 1e-3 * t
            for p in params:
                p.tensor.grad = (None if p.name == skipped else
                                 rng.normal(size=p.tensor.shape).astype(p.tensor.data.dtype))
            adam_step(params, weights.flat, state, lr)
            for p in params:
                g = p.tensor.grad if p.tensor.grad is not None else np.zeros_like(data[p.name])
                m[p.name] *= beta1
                m[p.name] += (1.0 - beta1) * g
                v[p.name] *= beta2
                v[p.name] += (1.0 - beta2) * (g * g)
                m_hat = m[p.name] / (1.0 - beta1 ** t)
                v_hat = v[p.name] / (1.0 - beta2 ** t)
                data[p.name] = data[p.name] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for p in params:
            assert p.tensor.data.tobytes() == data[p.name].tobytes(), p.name
        assert_views_of_flat(weights)


class TestParameterBuffer:
    def test_init_lays_parameters_out_in_checkpoint_order(self):
        weights = init_model_weights(tiny_model(tiny_spec()), seed=1)
        assert weights.flat.dtype == default_dtype()
        assert_views_of_flat(weights)
        with using_dtype("float64"):
            wide = init_model_weights(tiny_model(tiny_spec()), seed=1)
        assert wide.flat.dtype == np.float64
        assert_views_of_flat(wide)

    def test_load_into_writes_the_buffer_in_place(self, tmp_path):
        config = tiny_model(tiny_spec())
        weights = init_model_weights(config, seed=1)
        flat = weights.flat
        save_checkpoint(tmp_path / "m.mfck", config, init_model_weights(config, seed=2))
        load_into(tmp_path / "m.mfck", config, weights)
        assert weights.flat is flat
        assert_views_of_flat(weights)
        assert flat.tobytes() == init_model_weights(config, seed=2).flat.tobytes()

    def test_parameters_stay_views_of_the_buffer(self, tmp_path, monkeypatch):
        """Training updates the buffer in place: after three updates every
        parameter still views weights.flat at its offset, and the buffer
        holds what the last checkpoint stores."""
        made = []

        def init_and_keep(*args):
            made.append(init_model_weights(*args))
            return made[-1]

        monkeypatch.setattr("multiformer.training.init_model_weights", init_and_keep)
        spec = tiny_spec()
        res = train(tiny_model(spec), run_cfg(max_updates=3), spec, tmp_path / "run")
        (weights,) = made
        assert_views_of_flat(weights)
        saved = load_checkpoint(res.checkpoint_paths[-1]).arrays
        assert np.concatenate([saved[p.name].reshape(-1) for p in weights.params]
                              ).tobytes() == weights.flat.astype("<f4").tobytes()


class TestSyntheticTask:
    def test_layout_fixed_length(self):
        # equal min/max pins every row: BOS, n symbols, EOS, no padding
        spec = tiny_spec(target_len_min=3, target_len_max=3, noise=0.0)
        batch = gen_synthetic_batch(spec, 4, np.random.default_rng(0))
        assert batch.target_tokens.shape == (4, 5)
        assert (batch.target_tokens[:, 0] == BOS).all()
        assert (batch.target_tokens[:, -1] == EOS).all()
        mid = batch.target_tokens[:, 1:-1]
        assert (mid >= SENTINELS).all() and (mid < spec.vocab_size).all()
        assert batch.target_mask.all()
        assert batch.source_mask.all()
        assert batch.source_features.shape == (4, 6, spec.feature_dim)

    def test_noiseless_frames_are_exact_codes(self):
        spec = tiny_spec(target_len_min=4, target_len_max=4, noise=0.0)
        batch = gen_synthetic_batch(spec, 2, np.random.default_rng(3))
        codes = spec.codebook()
        syms = batch.target_tokens[:, 1:-1] - SENTINELS
        for b in range(2):
            expect = np.repeat(codes[syms[b]], spec.redundancy, axis=0)
            np.testing.assert_array_equal(
                batch.source_features.data[b].astype(np.float64),
                expect.astype(batch.source_features.data.dtype).astype(np.float64))

    def test_varied_lengths_pad_consistently(self):
        spec = tiny_spec(target_len_min=2, target_len_max=6)
        batch = gen_synthetic_batch(spec, 16, np.random.default_rng(1))
        lengths = batch.target_mask.sum(axis=1) - 2
        assert lengths.min() >= 2 and lengths.max() <= 6
        for b in range(16):
            n = int(lengths[b])
            assert batch.source_mask[b, :n * spec.redundancy].all()
            assert not batch.source_mask[b, n * spec.redundancy:].any()
            assert (batch.target_tokens[b, n + 2:] == PAD).all()

    def test_generator_is_deterministic(self):
        spec = tiny_spec()
        a = gen_synthetic_batch(spec, 8, np.random.default_rng(42))
        b = gen_synthetic_batch(spec, 8, np.random.default_rng(42))
        np.testing.assert_array_equal(a.source_features.data,
                                      b.source_features.data)
        np.testing.assert_array_equal(a.target_tokens, b.target_tokens)

    def test_codebook_fixed_by_seed(self):
        spec = tiny_spec()
        np.testing.assert_array_equal(spec.codebook(), spec.codebook())

    def test_meta_round_trip(self):
        spec = tiny_spec(noise=0.125)
        assert SyntheticTaskSpec.from_meta(dict(spec.meta())) == spec

    def test_bad_meta_value_names_its_key(self):
        meta = dict(tiny_spec().meta())
        meta["task_redundancy"] = "x"
        with pytest.raises(ValueError, match="meta task_redundancy: invalid literal"):
            SyntheticTaskSpec.from_meta(meta)

    def test_meta_text_is_fixed(self):
        # these lines are part of every checkpoint's bytes
        assert SyntheticTaskSpec(noise=0.1).meta() == [
            ("task_symbol_count", "32"), ("task_target_len_min", "16"),
            ("task_target_len_max", "24"), ("task_redundancy", "4"),
            ("task_feature_dim", "8"), ("task_noise", "0.1"),
            ("task_codebook_seed", "1234")]

    @pytest.mark.parametrize("kw", [dict(symbol_count=1),
                                    dict(redundancy=0),
                                    dict(target_len_min=0),
                                    dict(target_len_min=5, target_len_max=4),
                                    dict(feature_dim=0),
                                    dict(noise=-1.0),
                                    dict(noise=float("nan")),
                                    dict(codebook_seed=-1)])
    def test_bad_spec_rejected(self, kw):
        with pytest.raises(ValueError):
            tiny_spec(**kw)

    def test_batch_size_heuristic(self):
        spec = tiny_spec()  # mean target length 4, plus 2 sentinels
        assert batch_size_for(run_cfg(batch_tokens=32), spec) == 5
        assert batch_size_for(run_cfg(batch_tokens=1), spec) == 1


class TestTrainLoop:
    def test_metrics_and_checkpoint_cadence(self, tmp_path):
        spec = tiny_spec()
        res = train(tiny_model(spec), run_cfg(), spec, tmp_path / "run")
        steps, losses = read_metrics(res.metrics_path)
        assert steps == [0, 4, 8, 10]
        assert len(losses) == 4
        assert [p.split("ckpt_")[-1] for p in res.checkpoint_paths] == \
            ["000000.mfck", "000004.mfck", "000008.mfck", "000010.mfck"]
        assert res.steps == 10

    def test_deterministic_under_seed(self, tmp_path):
        spec = tiny_spec()
        res_a = train(tiny_model(spec), run_cfg(seed=7), spec, tmp_path / "a")
        res_b = train(tiny_model(spec), run_cfg(seed=7), spec, tmp_path / "b")
        with open(res_a.metrics_path, "rb") as fa, \
                open(res_b.metrics_path, "rb") as fb:
            assert fa.read() == fb.read()
        with open(res_a.checkpoint_paths[-1], "rb") as fa, \
                open(res_b.checkpoint_paths[-1], "rb") as fb:
            assert fa.read() == fb.read()

    def test_seed_changes_trajectory(self, tmp_path):
        spec = tiny_spec()
        res_a = train(tiny_model(spec), run_cfg(seed=0), spec, tmp_path / "a")
        res_b = train(tiny_model(spec), run_cfg(seed=1), spec, tmp_path / "b")
        assert res_a.final_loss != res_b.final_loss

    def test_dropout_config_trains_deterministically(self, tmp_path):
        """Dropout applies to the updates only: the held-out evaluation
        runs in inference mode, so a dropout-0.1 toy preset trains, its
        step-0 row matches the dropout-free model's, and reruns match
        byte for byte."""
        spec = tiny_spec()
        plain = toy_model_config("multiformer_lc", vocab_size=spec.vocab_size,
                                 feature_dim=spec.feature_dim)
        config = dataclasses.replace(plain, dropout=0.1)
        cfg = run_cfg(max_updates=2, log_every=1)
        a = train(config, cfg, spec, tmp_path / "a")
        b = train(config, cfg, spec, tmp_path / "b")
        ref = train(plain, run_cfg(max_updates=0), spec, tmp_path / "ref")
        assert a.steps == 2
        for path_a, path_b in ((a.metrics_path, b.metrics_path),
                               (a.checkpoint_paths[-1], b.checkpoint_paths[-1])):
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                assert fa.read() == fb.read()
        with open(a.metrics_path) as fa, open(ref.metrics_path) as fr:
            assert fa.readlines()[:2] == fr.readlines()[:2]

    def test_zero_update_run(self, tmp_path):
        spec = tiny_spec()
        res = train(tiny_model(spec), run_cfg(max_updates=0), spec,
                    tmp_path / "run")
        steps, _ = read_metrics(res.metrics_path)
        assert steps == [0]
        assert res.steps == 0
        assert len(res.checkpoint_paths) == 1

    def test_warm_start_resumes_exactly(self, tmp_path):
        """A fresh run seeded identically and initialized from a donor's
        final checkpoint must reproduce the donor's last evaluation in
        its own step-0 row."""
        spec = tiny_spec()
        donor = train(tiny_model(spec), run_cfg(), spec, tmp_path / "donor")
        warm = train(tiny_model(spec), run_cfg(max_updates=0), spec,
                     tmp_path / "warm", init_from=donor.checkpoint_paths[-1])
        assert warm.final_loss == donor.final_loss
        assert warm.final_accuracy == donor.final_accuracy

    def test_target_accuracy_stops_at_step_zero(self, tmp_path):
        # warm start from a donor, then ask for no more than it already has
        spec = tiny_spec(symbol_count=2, noise=0.0)
        donor = train(tiny_model(spec), run_cfg(max_updates=150, peak_lr=5e-3,
                                                log_every=50), spec,
                      tmp_path / "donor")
        assert donor.final_accuracy > 0
        res = train(tiny_model(spec),
                    run_cfg(target_acc=donor.final_accuracy),
                    spec, tmp_path / "warm",
                    init_from=donor.checkpoint_paths[-1])
        assert res.steps == 0
        steps, _ = read_metrics(res.metrics_path)
        assert steps == [0]

    def test_target_acc_validation(self):
        with pytest.raises(ValueError, match="target_acc"):
            run_cfg(target_acc=0.0)
        with pytest.raises(ValueError, match="target_acc"):
            run_cfg(target_acc=1.5)

    @pytest.mark.parametrize("kw,message", [
        (dict(max_updates=-2), "max_updates must be >= 0, got -2"),
        (dict(log_every=0), "log_every must be >= 1, got 0"),
        (dict(eval_sequences=0), "eval_sequences must be >= 1, got 0"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(warmup_updates=0), "warmup_updates must be >= 1, got 0"),
        (dict(peak_lr=-0.5), "peak_lr must be positive, got -0.5"),
        (dict(peak_lr=float("nan")), "peak_lr must be positive, got nan"),
    ])
    def test_step_counts_name_their_field(self, kw, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_cfg(**kw)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self, tmp_path):
        spec = tiny_spec()
        cfg = run_cfg(max_updates=40, peak_lr=1e8, warmup_updates=1)
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train(tiny_model(spec), cfg, spec, tmp_path / "run")

    def test_diverged_final_update_raises_before_saving(self, tmp_path):
        """The training loss is taken before the Adam step, so the check of
        the parameters after it is what sees a last update that blew the
        weights up, before that update's snapshot."""
        spec = tiny_spec()
        cfg = run_cfg(max_updates=1, peak_lr=1e39, warmup_updates=1)
        with pytest.raises(TrainingDiverged, match="non-finite parameter .* after update 1"):
            train(tiny_model(spec), cfg, spec, tmp_path / "run")
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == \
            ["ckpt_000000.mfck", "metrics.csv"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("max_updates", [1, 3])
    def test_divergence_names_first_non_finite_parameter(self, tmp_path, max_updates):
        """The first update overflows the weights; the error blames that
        update and names the first parameter, in buffer order, that holds
        a non-finite value."""
        spec = tiny_spec()
        cfg = run_cfg(max_updates=max_updates, peak_lr=1e39, warmup_updates=1)
        with pytest.raises(TrainingDiverged) as err:
            train(tiny_model(spec), cfg, spec, tmp_path / "run")
        found = re.fullmatch(r"non-finite parameter (\S+) after update 1 \(lr (\S+)\)",
                             str(err.value))
        assert found, str(err.value)
        # replay the update to find that parameter independently
        weights = init_model_weights(tiny_model(spec), cfg.seed)
        params = named_parameters(weights)
        data_ss, _, drop_ss = np.random.SeedSequence(cfg.seed).spawn(3)
        batch = gen_synthetic_batch(spec, batch_size_for(cfg, spec),
                                    np.random.default_rng(data_ss))
        forward_loss(batch, tiny_model(spec), weights).backward()
        with np.errstate(all="ignore"):
            adam_step(params, weights.flat, zero_state(weights.flat),
                      inv_sqrt_lr(1, cfg))
        first = next(p.name for p in params if not np.isfinite(p.tensor.data).all())
        assert found.group(1) == first
        assert float(found.group(2)) == float(f"{inv_sqrt_lr(1, cfg):.3g}")

    def test_vocab_mismatch_rejected(self, tmp_path):
        spec = tiny_spec()
        model = tiny_model(tiny_spec(symbol_count=9))
        with pytest.raises(ValueError, match="vocab"):
            train(model, run_cfg(), spec, tmp_path / "run")

    def test_feature_dim_mismatch_rejected(self, tmp_path):
        spec = tiny_spec()
        model = tiny_model(tiny_spec(feature_dim=6))
        with pytest.raises(ValueError, match="feature dim"):
            train(model, run_cfg(), spec, tmp_path / "run")


class TestEvaluate:
    def test_one_pass_gives_loss_and_accuracy(self, monkeypatch):
        spec = tiny_spec()
        config = dataclasses.replace(tiny_model(spec), dropout=0.1)
        weights = init_model_weights(config, seed=3)
        batch = gen_synthetic_batch(spec, 6, np.random.default_rng(8))
        calls = []

        def counting(name):
            fn = getattr(multiformer.model, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("encode", "decode"):
            monkeypatch.setattr(multiformer.model, name, counting(name))
        loss, acc = evaluate(config, weights, batch)
        assert calls == ["encode", "decode"]
        plain = dataclasses.replace(config, dropout=0.0)
        assert loss == float(forward_loss(batch, plain, weights).data)
        logits, labels, label_mask = teacher_forced_logits(batch, plain, weights)
        assert acc == token_accuracy(logits.data, labels, label_mask)


class TestAveraging:
    def _save(self, path, arrays, arch="cafe" * 4):
        save_arrays(path, arch, arrays, [("note", "t")])

    def test_two_checkpoint_mean_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        a = {"w": rng.normal(size=(3, 4)).astype("<f4"),
             "b": rng.normal(size=5).astype("<f4")}
        b = {"w": rng.normal(size=(3, 4)).astype("<f4"),
             "b": rng.normal(size=5).astype("<f4")}
        self._save(tmp_path / "a.mfck", a)
        self._save(tmp_path / "b.mfck", b)
        out = tmp_path / "avg.mfck"
        average_checkpoints([tmp_path / "a.mfck", tmp_path / "b.mfck"], out)
        got = load_checkpoint(out)
        for name in a:
            expect = ((a[name].astype(np.float64)
                       + b[name].astype(np.float64)) / 2.0).astype("<f4")
            np.testing.assert_array_equal(got.arrays[name], expect)

    def test_order_invariant(self, tmp_path):
        rng = np.random.default_rng(1)
        arrs = [{"w": rng.normal(size=7).astype("<f4")} for _ in range(3)]
        paths = []
        for i, arr in enumerate(arrs):
            p = tmp_path / f"c{i}.mfck"
            self._save(p, arr)
            paths.append(p)
        average_checkpoints(paths, tmp_path / "fwd.mfck")
        average_checkpoints(paths[::-1], tmp_path / "rev.mfck")
        with open(tmp_path / "fwd.mfck", "rb") as ff, \
                open(tmp_path / "rev.mfck", "rb") as fr:
            assert ff.read() == fr.read()

    def test_single_checkpoint_identity(self, tmp_path):
        arr = {"w": np.arange(6, dtype="<f4").reshape(2, 3)}
        self._save(tmp_path / "a.mfck", arr)
        average_checkpoints([tmp_path / "a.mfck"], tmp_path / "out.mfck")
        got = load_checkpoint(tmp_path / "out.mfck")
        np.testing.assert_array_equal(got.arrays["w"], arr["w"])

    def test_sources_recorded_in_meta(self, tmp_path):
        arr = {"w": np.ones(2, dtype="<f4")}
        self._save(tmp_path / "a.mfck", arr)
        self._save(tmp_path / "b.mfck", arr)
        average_checkpoints([tmp_path / "b.mfck", tmp_path / "a.mfck"],
                            tmp_path / "out.mfck")
        meta = load_checkpoint(tmp_path / "out.mfck").meta_dict()
        assert meta["sources"] == "a.mfck,b.mfck"

    def test_arch_mismatch_rejected(self, tmp_path):
        arr = {"w": np.ones(2, dtype="<f4")}
        self._save(tmp_path / "a.mfck", arr)
        save_arrays(tmp_path / "b.mfck", "beef" * 4, arr)
        with pytest.raises(ValueError, match="arch"):
            average_checkpoints([tmp_path / "a.mfck", tmp_path / "b.mfck"],
                                tmp_path / "out.mfck")

    def test_parameter_set_mismatch_rejected(self, tmp_path):
        self._save(tmp_path / "a.mfck", {"w": np.ones(2, dtype="<f4")})
        self._save(tmp_path / "b.mfck", {"v": np.ones(2, dtype="<f4")})
        with pytest.raises(ValueError, match="parameter set"):
            average_checkpoints([tmp_path / "a.mfck", tmp_path / "b.mfck"],
                                tmp_path / "out.mfck")

    def test_shape_mismatch_rejected(self, tmp_path):
        self._save(tmp_path / "a.mfck", {"w": np.ones(2, dtype="<f4")})
        self._save(tmp_path / "b.mfck", {"w": np.ones(3, dtype="<f4")})
        with pytest.raises(ValueError, match="shape"):
            average_checkpoints([tmp_path / "a.mfck", tmp_path / "b.mfck"],
                                tmp_path / "out.mfck")

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no checkpoints"):
            average_checkpoints([], tmp_path / "out.mfck")


class TestSelection:
    def test_window_around_best(self):
        steps = [0, 10, 20, 30, 40, 50, 60, 70, 80]
        losses = [9, 8, 7, 6, 1, 6, 7, 8, 9]
        assert select_around_best(steps, losses) == [10, 20, 30, 40, 50, 60, 70]

    def test_truncates_at_series_start(self):
        assert select_around_best([0, 10, 20, 30], [1, 2, 3, 4]) == [0, 10, 20, 30]

    def test_truncates_at_series_end(self):
        assert select_around_best([0, 10, 20], [3, 2, 1]) == [0, 10, 20]

    def test_accepts_unsorted_input(self):
        got = select_around_best([80, 30, 0, 70, 20, 60, 10, 50, 40],
                                 [8, 6, 9, 6, 7, 4, 8, 1, 5])
        assert got == [20, 30, 40, 50, 60, 70, 80]

    def test_validation(self):
        with pytest.raises(ValueError):
            select_around_best([], [])
        with pytest.raises(ValueError):
            select_around_best([1, 2], [0.5])


class TestReadMetrics:
    def test_round_trip_from_run(self, tmp_path):
        spec = tiny_spec()
        res = train(tiny_model(spec), run_cfg(max_updates=4), spec,
                    tmp_path / "run")
        steps, losses = read_metrics(res.metrics_path)
        assert steps == [0, 4]
        assert losses[-1] == pytest.approx(res.final_loss, abs=1e-6)

    @pytest.mark.parametrize("loss", ["nan", "inf", "-inf"])
    def test_non_finite_loss_rejected(self, tmp_path, loss):
        """min() over a NaN loss would pick the NaN row as the best."""
        p = tmp_path / "m.csv"
        p.write_text(f"step,loss,lr,token_acc\n0,1.0,1e-05,0.1\n4,{loss},1e-05,0.1\n")
        with pytest.raises(ValueError, match=r"m\.csv:3: .*not finite"):
            read_metrics(p)

    def test_header_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("step,loss\n0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_metrics(p)
