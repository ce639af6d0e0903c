"""Acceptance suite: one test per shipped criterion, A1 through A8.

Each test prints exactly one `A# PASS: ...` or `A# FAIL: ...` line; run
`pytest tests/test_acceptance.py -s` to watch them stream.  The training
criterion (A5) really trains all six desk-scale configs, so the full
suite takes minutes; A3, A5 and A6 (which reuses A5's lc run) are marked
`slow`, and `pytest -m "not slow"` leaves them out.  A3's presets and
A5's trainings run in spawned processes at one BLAS thread each, one per
core at most.
"""

import csv as csv_mod
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from multiformer.checkpoint import load_checkpoint, save_arrays
from multiformer.cli import main
from multiformer.config import (PRESET_NAMES, format_architecture,
                                parse_architecture, toy_model_config)
from multiformer.mhma import HeadSpec
from multiformer.model import (ModelConfig, Seq2SeqBatch, forward_loss,
                               init_model_weights, label_smoothed_loss,
                               named_parameters)
from multiformer.tensor import Tensor, grad_check, using_dtype
from multiformer.training import (TOY_WARMUP, SyntheticTaskSpec, TrainConfig,
                                  average_checkpoints, inv_sqrt_lr, train)
from multiformer.verify import (run_count_suite, run_oracle_suite,
                                run_recomposition_suite)

TASK = SyntheticTaskSpec()

L, C = "local(64)", "conv(5,2)"
EXPECTED_PRESET_ROWS = {
    "baseline": [["full"] * 4] * 12,
    "local_attention": [[L] * 4] * 12,
    "conv_attention": [[C] * 4] * 12,
    "multiformer_lc": [[L, L, C, C]] * 12,
    "multiformer_v1": [[L, C, C, C]] * 6 + [[L, L, C, C]] * 6,
    "multiformer_v2": ([[L, C, C, C]] * 3 + [[L, L, L, C]] * 5
                       + [[L, L, C, C]] * 4),
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def report(code: str, ok: bool, detail: str) -> None:
    print(f"\n{code} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{code}: {detail}"


def pool_map(fn, *arg_lists) -> list:
    """[fn(*args) ...] in spawned processes, each at one BLAS thread, with
    at most one worker per core; jobs start in the order given."""
    jobs = len(arg_lists[0])
    with pytest.MonkeyPatch.context() as env:
        for var in THREAD_VARS:
            env.setenv(var, "1")
        with ProcessPoolExecutor(min(os.cpu_count() or 1, jobs),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, *arg_lists))


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def desk_runs(workdir):
    """Every desk-scale preset trained once per session (target 90%
    accuracy, at most 5000 updates), plus a seeded rerun of the baseline;
    keyed by preset, the rerun as "baseline_rerun"."""
    # The runs that take the most updates go first, so that none of them
    # starts last; with two or more workers the baseline and its rerun
    # start at once, in two processes.
    longest = ["baseline", "baseline_rerun", "conv_attention"]
    names = longest + [n for n in PRESET_NAMES if n not in longest]
    configs = [toy_model_config(n.removesuffix("_rerun"), vocab_size=TASK.vocab_size,
                                feature_dim=TASK.feature_dim) for n in names]
    cfg = TrainConfig(max_updates=5000, seed=0, peak_lr=2e-3,
                      warmup_updates=TOY_WARMUP, log_every=100,
                      batch_tokens=512, target_acc=0.90)
    results = pool_map(train, configs, [cfg] * len(names), [TASK] * len(names),
                       [workdir / n for n in names])
    return dict(zip(names, results))


def test_a1_oracle_equivalence():
    r = run_oracle_suite(cases=120)
    report("A1", r.passed,
           f"full/local/conv vs naive loop oracle, {r.cases} seeded cases "
           f"(n <= 64, random masks; padded batches through both dense paths), {r.detail}")


def test_a2_recomposition():
    r = run_recomposition_suite(cases=100)
    report("A2", r.passed,
           f"attention output equals the per-head decomposition over "
           f"{r.cases} mixed-head configs, {r.detail}")


def preset_gradient_check(name: str) -> tuple[float, str | None]:
    """A3's check of one preset at d_model=16: (max relative error, the
    first failing parameter or None)."""
    full = parse_architecture(name)
    layers = []
    for layer in full.encoder_layers:
        layers.append([HeadSpec("local", window=8)
                       if s.mechanism == "local" else s for s in layer])
    cfg = ModelConfig(d_model=16, heads=4, encoder_layers=layers,
                      decoder_layers=2, ffn_dim=32, vocab_size=9,
                      input_feature_dim=5)
    with using_dtype("float64"):
        weights = init_model_weights(cfg, seed=3)
        rng = np.random.default_rng(17)
        batch = Seq2SeqBatch(
            source_features=Tensor(rng.normal(size=(1, 28, 5))),
            source_mask=np.ones((1, 28), bool),
            target_tokens=np.array([[1, 4, 5, 6, 2]]),
            target_mask=np.ones((1, 5), bool))
        rep = grad_check(lambda: forward_loss(batch, cfg, weights),
                         named_parameters(weights), tolerance=1e-4,
                         max_samples=2, seed=11)
    if rep.ok:
        return rep.max_rel_err(), None
    bad = rep.failures()[0]
    return rep.max_rel_err(), f"{name}:{bad.name}@{bad.max_rel_err:.2e}"


@pytest.mark.slow
def test_a3_end_to_end_gradients():
    checked = pool_map(preset_gradient_check, PRESET_NAMES)
    worst = max(err for err, _ in checked)
    failures = [bad for _, bad in checked if bad is not None]
    report("A3", not failures,
           f"finite differences through all six presets at d_model=16 "
           f"(step 1e-4, 64-bit), max relative error {worst:.3e}"
           + (f"; failed {failures}" if failures else ""))


def test_a4_count_law():
    r = run_count_suite()
    report("A4", r.passed,
           f"score-product counts at n in (64, 256, 1024): exact n*m full, "
           f"<= n*(w+1) local, n*ceil(n/chi) conv; {r.detail}")


@pytest.mark.slow
def test_a5_desk_scale_training(desk_runs):
    outcomes = []
    ok = True
    for name in PRESET_NAMES:
        res = desk_runs[name]
        reached = res.final_accuracy >= 0.90 and res.steps <= 5000
        ok = ok and reached
        outcomes.append(f"{name} {res.final_accuracy:.3f}@{res.steps}")

    # determinism: an identically seeded rerun reproduces metrics exactly
    first, again = desk_runs["baseline"], desk_runs["baseline_rerun"]
    with open(first.metrics_path, "rb") as fa, \
            open(again.metrics_path, "rb") as fb:
        deterministic = fa.read() == fb.read()
    ok = ok and deterministic
    report("A5", ok,
           "held-out token accuracy >= 0.90 within 5000 updates for "
           + ", ".join(outcomes)
           + ("; seeded rerun bit-identical" if deterministic
              else "; RERUN DIVERGED"))


@pytest.mark.slow
def test_a6_analysis_pipeline(workdir, desk_runs):
    run = desk_runs["multiformer_lc"]
    config = toy_model_config("multiformer_lc", vocab_size=TASK.vocab_size,
                              feature_dim=TASK.feature_dim)
    arch_path = workdir / "multiformer_lc_toy.arch"
    arch_path.write_text(format_architecture(config))

    outputs = []
    for tag in ("one", "two"):
        csv_path = workdir / f"report_{tag}.csv"
        svg_path = workdir / f"report_{tag}.svg"
        code = main(["analyze", "--ckpt", run.checkpoint_paths[-1],
                     "--arch", str(arch_path), "--samples", "500",
                     "--seed", "11", "--csv", str(csv_path),
                     "--svg", str(svg_path)])
        assert code == 0
        outputs.append(csv_path)

    identical = outputs[0].read_bytes() == outputs[1].read_bytes()
    rows = list(csv_mod.reader(outputs[0].read_text().splitlines()[1:]))
    l_count, h_count = len(config.encoder_layers), config.heads
    grid_ok = len(rows) == l_count * h_count
    medians_ok = all(float(r[3]) >= 0 for r in rows)
    share_sums = [sum(float(r[4]) for r in rows if int(r[0]) == li)
                  for li in range(l_count)]
    sums_ok = all(abs(s - 1.0) <= 1e-9 for s in share_sums)
    want_labels = [[s.label() for s in layer] for layer in config.encoder_layers]
    got_labels = [[r[2] for r in rows if int(r[0]) == li] for li in range(l_count)]
    labels_ok = got_labels == want_labels

    ok = identical and grid_ok and medians_ok and sums_ok and labels_ok
    report("A6", ok,
           f"analyze over 500 samples: {l_count}x{h_count} grid, medians >= 0, "
           f"share rows sum to 1 within {max(abs(s - 1.0) for s in share_sums):.1e}, "
           f"labels match the architecture file, reruns "
           + ("bit-identical" if identical else "DIFFER"))


def test_a7_recipe_math(tmp_path):
    cfg = TrainConfig(max_updates=1, peak_lr=2e-3, warmup_updates=10000)
    lrs_ok = (inv_sqrt_lr(10000, cfg) == 2e-3
              and inv_sqrt_lr(2500, cfg) == 5e-4
              and inv_sqrt_lr(40000, cfg) == 1e-3)

    with using_dtype("float64"):
        logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1]])))
        loss = float(label_smoothed_loss(logits, np.array([0]),
                                         np.ones(1, bool), 0.1).data)
    smooth_ok = abs(loss - 0.4631) <= 1e-3

    rng = np.random.default_rng(5)
    a = {"w": rng.normal(size=(4, 3)).astype("<f4")}
    b = {"w": rng.normal(size=(4, 3)).astype("<f4")}
    save_arrays(tmp_path / "a.mfck", "feed" * 4, a)
    save_arrays(tmp_path / "b.mfck", "feed" * 4, b)
    average_checkpoints([tmp_path / "a.mfck", tmp_path / "b.mfck"],
                        tmp_path / "avg.mfck")
    got = load_checkpoint(tmp_path / "avg.mfck").arrays["w"]
    want = ((a["w"].astype(np.float64) + b["w"].astype(np.float64)) / 2
            ).astype("<f4")
    avg_ok = np.array_equal(got, want)

    report("A7", lrs_ok and smooth_ok and avg_ok,
           f"schedule hits 2e-3/5e-4/1e-3 at steps 10000/2500/40000 exactly; "
           f"3-way smoothed loss {loss:.4f} within 1e-3 of 0.4631; "
           f"two-checkpoint average bit-exact in 32-bit storage")


def test_a8_config_and_format_round_trips(tmp_path):
    mismatches = []
    for name in PRESET_NAMES:
        cfg = parse_architecture(name)
        rows = [[s.label() for s in layer] for layer in cfg.encoder_layers]
        if rows != EXPECTED_PRESET_ROWS[name]:
            mismatches.append(name)
        if parse_architecture_text_round_trip(cfg) != cfg:
            mismatches.append(f"{name} (format round trip)")

    cfg = ModelConfig(d_model=8, heads=2,
                      encoder_layers=[[HeadSpec("full"),
                                       HeadSpec("conv", kernel=3, stride=2)]],
                      decoder_layers=1, ffn_dim=16, vocab_size=11,
                      input_feature_dim=5)
    weights = init_model_weights(cfg, seed=0)
    from multiformer.checkpoint import save_checkpoint
    p1, p2 = tmp_path / "a.mfck", tmp_path / "b.mfck"
    save_checkpoint(p1, cfg, weights, [("k", "v")])
    data = load_checkpoint(p1)
    save_arrays(p2, data.arch_hash, data.arrays, data.meta)
    bytes_ok = p1.read_bytes() == p2.read_bytes()

    report("A8", not mismatches and bytes_ok,
           f"{len(PRESET_NAMES)} presets parse to the expected layer/head "
           f"structures and parse(format(.)) is identity; checkpoint "
           f"save/load/save is byte-identical"
           + (f"; mismatches {mismatches}" if mismatches else ""))


def parse_architecture_text_round_trip(cfg: ModelConfig) -> ModelConfig:
    from multiformer.config import parse_architecture_text
    return parse_architecture_text(format_architecture(cfg))
