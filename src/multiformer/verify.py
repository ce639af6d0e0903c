"""Self-contained numerical verification suites, shared by `mf verify`
and the test suite: oracle equivalence, output recomposition, gradient
checks, and the complexity count laws.

Everything runs seed-pinned and, where tolerances matter, in the 64-bit
precision mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracles as orc
from .attention import ConvParams, OpCounter, full_attention, local_attention
from .mhma import (HeadSpec, MHMAWeights, init_mhma_weights, mhma_forward,
                   mhma_parameters, recompose_check)
from .model import (ModelConfig, Seq2SeqBatch, forward_loss, init_model_weights,
                    named_parameters)
from .tensor import Tensor, band_uses_gemm, grad_check, using_dtype

ORACLE_TOL = 1e-6
RECOMPOSE_TOL_64 = 1e-10
RECOMPOSE_TOL_32 = 1e-5
GRAD_TOL = 1e-4

# Head mixes covering every published layer pattern plus the degenerate ones.
HEAD_MIXES: dict[str, list[str]] = {
    "all_full": ["F", "F", "F", "F"],
    "all_local": ["L", "L", "L", "L"],
    "all_conv": ["C", "C", "C", "C"],
    "lc": ["L", "L", "C", "C"],
    "v1_low": ["L", "C", "C", "C"],
    "v2_mid": ["L", "L", "L", "C"],
    "mixed_full": ["F", "L", "C", "F"],
}


def build_specs(mix: list[str], window: int = 4) -> list[HeadSpec]:
    table = {"F": HeadSpec("full"),
             "L": HeadSpec("local", window=window),
             "C": HeadSpec("conv", kernel=5, stride=2)}
    return [table[c] for c in mix]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    cases: int
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.cases} cases)"


def _random_mask(rng, n: int) -> np.ndarray:
    valid = rng.random(n) > 0.25
    if not valid.any():
        valid[rng.integers(0, n)] = True
    return valid


def _suffix_mask(rng, n: int) -> np.ndarray:
    t = int(rng.integers(1, n + 1))
    valid = np.zeros(n, dtype=bool)
    valid[:t] = True
    return valid


def run_oracle_suite(cases: int = 120, seed: int = 2024) -> SuiteResult:
    """full/local/conv against the explicit-loop references."""
    worst = 0.0
    ran = 0
    band_paths = {True: 0, False: 0}   # local cases on GEMMs / per row
    with using_dtype("float64"):
        rng = np.random.default_rng(seed)
        for _ in range(cases):
            n = int(rng.integers(1, 65))
            d_h = int(rng.integers(1, 9))
            q = Tensor(rng.normal(size=(n, d_h)))
            k = Tensor(rng.normal(size=(n, d_h)))
            v = Tensor(rng.normal(size=(n, d_h)))
            mask = _random_mask(rng, n)

            z, a = full_attention(q, k, v, mask)
            z0, a0 = orc.naive_attention(q.data, k.data, v.data, mask)
            worst = max(worst, float(np.abs(z.data - z0).max()),
                        float(np.abs(a.data - a0).max()))

            w = 2 * int(rng.integers(1, max(2, n // 2 + 1)))
            zl, al = local_attention(q, k, v, HeadSpec("local", window=w), mask)
            zl0, al0 = orc.naive_attention(q.data, k.data, v.data, mask,
                                           band_half=w // 2)
            worst = max(worst, float(np.abs(zl.data - zl0).max()),
                        float(np.abs(al.dense() - al0).max()))
            band_paths[band_uses_gemm(n, w // 2)] += 1

            # band covering everything must reproduce full exactly
            w_all = 2 * max(1, n - 1)
            zx, _ = local_attention(q, k, v, HeadSpec("local", window=w_all), mask)
            if not np.array_equal(zx.data, z.data):
                return SuiteResult("oracle-equivalence", False, ran,
                                   f"w={w_all} local differs from full at n={n}")

            # two conv heads sharing one compressed stream, through the
            # production multi-head path
            d = d_h * 2
            x = rng.normal(size=(n, d))
            kernel = int(rng.choice([1, 3, 5]))
            stride = int(rng.integers(1, 4))
            conv_specs = [HeadSpec("conv", kernel=kernel, stride=stride)] * 2
            mw = init_mhma_weights(d, conv_specs, rng)
            cp = mw.conv_params[(kernel, stride)]
            cp.bias.data[...] = rng.normal(size=d)
            smask = _suffix_mask(rng, n)
            out = mhma_forward(Tensor(x), conv_specs, mw, smask)
            xc0 = orc.naive_conv1d(x * smask[:, None], cp.weights.data,
                                   cp.bias.data, stride=stride,
                                   padding=kernel // 2)
            centers = np.minimum(np.arange(xc0.shape[0]) * stride, n - 1)
            for h in range(2):
                zc0, ac0 = orc.naive_attention(
                    x @ mw.wq[h].data, xc0 @ mw.wk[h].data,
                    xc0 @ mw.wv[h].data, smask[centers])
                worst = max(worst, float(np.abs(out.z[h].data - zc0).max()),
                            float(np.abs(out.weights[h].data - ac0).max()))

            # degenerate compression: K=1, stride 1, identity weights
            ident = ConvParams(1, 1, Tensor(np.eye(d)[None]), Tensor(np.zeros(d)))
            iw = MHMAWeights(mw.wq, mw.wk, mw.wv, mw.wo, mw.bo, {(1, 1): ident})
            yi = mhma_forward(Tensor(x), [HeadSpec("conv", kernel=1, stride=1)] * 2,
                              iw, smask).y
            yf = mhma_forward(Tensor(x), [HeadSpec("full")] * 2, iw, smask).y
            worst = max(worst, float(np.abs(yi.data - yf.data).max()))
            ran += 1
    # the drawn lengths and windows must reach both band-product pairs
    passed = worst < ORACLE_TOL and all(band_paths.values())
    return SuiteResult("oracle-equivalence", passed, ran,
                       f"max deviation {worst:.3e} (tol {ORACLE_TOL:g}); local "
                       f"cases {band_paths[True]} on GEMMs, {band_paths[False]} per row")


def run_recomposition_suite(cases: int = 100, seed: int = 7) -> SuiteResult:
    """y == sum_h xi^h + b_o, in both precision modes."""
    mixes = list(HEAD_MIXES.values())
    worst64 = worst32 = 0.0
    for idx in range(cases):
        mix = mixes[idx % len(mixes)]
        for mode in ("float64", "float32"):
            with using_dtype(mode):
                rng = np.random.default_rng(seed + idx)
                n = int(rng.integers(4, 24))
                d = 16
                specs = build_specs(mix)
                w = init_mhma_weights(d, specs, rng)
                x = Tensor(rng.normal(size=(n, d)))
                mask = _suffix_mask(rng, n)
                out = mhma_forward(x, specs, w, mask)
                dev = recompose_check(out, w)
                if mode == "float64":
                    worst64 = max(worst64, dev)
                else:
                    worst32 = max(worst32, dev)
    passed = worst64 < RECOMPOSE_TOL_64 and worst32 < RECOMPOSE_TOL_32
    return SuiteResult(
        "recomposition", passed, cases,
        f"max deviation {worst64:.3e} in 64-bit (tol {RECOMPOSE_TOL_64:g}), "
        f"{worst32:.3e} in 32-bit (tol {RECOMPOSE_TOL_32:g})")


def run_gradcheck_suite(samples_per_tensor: int = 6, seed: int = 5,
                        mixes: list[str] | None = None) -> SuiteResult:
    """Finite differences through MHMA for each head mix, then through a
    tiny end-to-end model."""
    worst = 0.0
    checked = 0
    with using_dtype("float64"):
        names = mixes or list(HEAD_MIXES)
        for mix_name in names:
            rng = np.random.default_rng(seed)
            specs = build_specs(HEAD_MIXES[mix_name])
            w = init_mhma_weights(16, specs, rng)
            x = Tensor(rng.normal(size=(10, 16)))
            mask = np.array([True] * 8 + [False] * 2)

            def f():
                out = mhma_forward(x, specs, w, mask)
                return (out.y * out.y).sum() * (1.0 / out.y.size)

            rep = grad_check(f, mhma_parameters("m", w), tolerance=GRAD_TOL,
                             max_samples=samples_per_tensor, seed=seed)
            worst = max(worst, rep.max_rel_err())
            checked += sum(e.checked for e in rep.entries)
            if not rep.ok:
                return SuiteResult("gradient-check", False, checked,
                                   f"{mix_name}: {rep.failures()[0].name} at "
                                   f"{rep.max_rel_err():.3e}")

        rng = np.random.default_rng(seed + 1)
        cfg = ModelConfig(d_model=16, heads=4,
                          encoder_layers=[build_specs(HEAD_MIXES["lc"])],
                          decoder_layers=1, ffn_dim=24, vocab_size=9,
                          input_feature_dim=5)
        weights = init_model_weights(cfg, seed)
        src = Tensor(rng.normal(size=(1, 12, 5)))
        tgt = np.array([[1, 4, 5, 6, 2]])
        batch = Seq2SeqBatch(src, np.ones((1, 12), bool), tgt,
                             np.ones((1, 5), bool))

        def loss_fn():
            return forward_loss(batch, cfg, weights, smoothing=0.1)

        rep = grad_check(loss_fn, named_parameters(weights), tolerance=GRAD_TOL,
                         max_samples=max(2, samples_per_tensor // 2), seed=seed)
        worst = max(worst, rep.max_rel_err())
        checked += sum(e.checked for e in rep.entries)
        if not rep.ok:
            return SuiteResult("gradient-check", False, checked,
                               f"end-to-end: {rep.failures()[0].name} at "
                               f"{rep.max_rel_err():.3e}")
    return SuiteResult("gradient-check", True, checked,
                       f"max relative error {worst:.3e} (tol {GRAD_TOL:g})")


def run_count_suite(lens=(64, 256, 1024), window: int = 64,
                    stride: int = 2, seed: int = 3) -> SuiteResult:
    """Score-product accounting: exact laws per mechanism, and the
    headline ratios at n=1024."""
    rng = np.random.default_rng(seed)
    d_h, d = 8, 16
    ratios = {}
    for n in lens:
        q = Tensor(rng.normal(size=(n, d_h)))
        k = Tensor(rng.normal(size=(n, d_h)))
        v = Tensor(rng.normal(size=(n, d_h)))

        c_full = OpCounter()
        full_attention(q, k, v, None, c_full)
        if c_full.score_products != n * n:
            return SuiteResult("count-law", False, 0,
                               f"full at n={n}: {c_full.score_products} != {n * n}")

        c_local = OpCounter()
        local_attention(q, k, v, HeadSpec("local", window=window), None, c_local)
        bound = n * (window + 1)
        if c_local.score_products > bound:
            return SuiteResult("count-law", False, 0,
                               f"local at n={n}: {c_local.score_products} > {bound}")
        expect_local = sum(min(n - 1, i + window // 2) - max(0, i - window // 2) + 1
                           for i in range(n))
        if c_local.score_products != expect_local:
            return SuiteResult(
                "count-law", False, 0,
                f"local at n={n}: {c_local.score_products} != {expect_local}")

        conv_specs = [HeadSpec("conv", kernel=5, stride=stride)]
        mw = init_mhma_weights(d, conv_specs, rng)
        c_conv = OpCounter()
        mhma_forward(Tensor(rng.normal(size=(n, d))), conv_specs, mw,
                     counter=c_conv)
        expect_conv = n * math.ceil(n / stride)
        if c_conv.score_products != expect_conv:
            return SuiteResult("count-law", False, 0,
                               f"conv at n={n}: {c_conv.score_products} != {expect_conv}")
        ratios[n] = (c_local.score_products / c_full.score_products,
                     c_conv.score_products / c_full.score_products)
    local_ratio, conv_ratio = ratios[max(lens)]
    if max(lens) == 1024:
        if not local_ratio < 0.065:
            return SuiteResult("count-law", False, len(lens) * 3,
                               f"local/full at n=1024 is {local_ratio:.4f} >= 0.065")
        if conv_ratio != 0.5:
            return SuiteResult("count-law", False, len(lens) * 3,
                               f"conv/full at n=1024 is {conv_ratio} != 0.5")
    return SuiteResult(
        "count-law", True, len(lens) * 3,
        f"n={max(lens)}: local/full {local_ratio:.4f}, conv/full {conv_ratio:.2f}")


def run_all(fast: bool = False) -> list[SuiteResult]:
    if fast:
        return [
            run_oracle_suite(cases=30),
            run_recomposition_suite(cases=21),
            run_gradcheck_suite(samples_per_tensor=3,
                                mixes=["lc", "mixed_full"]),
            run_count_suite(),
        ]
    return [
        run_oracle_suite(),
        run_recomposition_suite(),
        run_gradcheck_suite(),
        run_count_suite(),
    ]
