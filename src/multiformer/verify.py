"""Self-contained numerical verification suites, shared by `mf verify`
and the test suite: oracle equivalence, output recomposition, gradient
checks, and the complexity count laws.

Everything runs seed-pinned and, where tolerances matter, in the 64-bit
precision mode.  Forward-only suites build no graph (tensor.no_grad).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracles as orc
from .attention import (ConvParams, OpCounter, conv_compress, full_attention,
                        local_attention)
from .config import parse_head_spec
from .mhma import (HeadSpec, MHMAWeights, init_mhma_weights, mhma_forward,
                   mhma_parameters, recompose_check)
from .model import (ModelConfig, Seq2SeqBatch, forward_loss, init_model_weights,
                    named_parameters)
from .tensor import (BAND_BLOCK, SEQUENCE_PAIRS, Tensor, band_to_dense, grad_check,
                     no_grad, using_dtype)

ORACLE_TOL = 1e-6
RECOMPOSE_TOL_64 = 1e-10
RECOMPOSE_TOL_32 = 1e-5
GRAD_TOL = 1e-4

# Head mixes covering every published layer pattern plus the degenerate
# ones, in the head grammar of architecture files.
HEAD_MIXES: dict[str, list[HeadSpec]] = {
    name: [parse_head_spec(token) for token in mix.split()] for name, mix in (
        ("all_full", "full full full full"),
        ("all_local", "local(4) local(4) local(4) local(4)"),
        ("all_conv", "conv(5,2) conv(5,2) conv(5,2) conv(5,2)"),
        ("lc", "local(4) local(4) conv(5,2) conv(5,2)"),
        ("v1_low", "local(4) conv(5,2) conv(5,2) conv(5,2)"),
        ("v2_mid", "local(4) local(4) local(4) conv(5,2)"),
        ("mixed_full", "full local(4) conv(5,2) full"))}


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


def _batched_rows_case(rng, long: bool) -> tuple[float, bool]:
    """Full attention over a padded batch given its valid query rows, per
    sequence against the oracle: (max deviation, whether it ran per
    sequence).  long puts one all-valid sequence past SEQUENCE_PAIRS."""
    n = int(rng.integers(1, 49))
    if long:
        n = math.isqrt(SEQUENCE_PAIRS) + n
    batch, d_h = int(rng.integers(2, 4)), int(rng.integers(1, 9))
    q, k, v = (rng.normal(size=(batch, n, d_h)) for _ in range(3))
    rows = np.stack([_random_mask(rng, n) for _ in range(batch)])
    keys = np.stack([_random_mask(rng, n) for _ in range(batch)])
    if long:
        rows[0] = keys[0] = True
    z, a = full_attention(Tensor(q), Tensor(k), Tensor(v), keys, rows=rows)
    per_sequence = a.ndim == 1
    worst, start = 0.0, 0
    for b in range(batch):
        z0, a0 = orc.naive_attention(q[b][rows[b]], k[b], v[b], keys[b])
        if per_sequence:
            size = z0.shape[0] * int(keys[b].sum())
            ab = a.data[start:start + size].reshape(z0.shape[0], -1)
            a0, start = a0[:, keys[b]], start + size
            worst = max(worst, float(np.abs(z.data[b][~rows[b]]).max(initial=0.0)))
        else:
            ab = a.data[b][rows[b]]
        worst = max(worst, float(np.abs(z.data[b][rows[b]] - z0).max()),
                    float(np.abs(ab - a0).max()))
    return worst, per_sequence


@no_grad()
def run_oracle_suite(cases: int = 120) -> SuiteResult:
    """full/local/conv against the explicit-loop references."""
    worst = 0.0
    ran = 0
    band_blocks = {True: 0, False: 0}   # local cases in one band block / several
    dense_paths = {False: 0, True: 0}   # batched rows cases run batched / per sequence
    with using_dtype("float64"):
        rng = np.random.default_rng(2024)
        rows_rng = np.random.default_rng(2025)
        for case in range(cases):
            # every twentieth case a padded batch given its valid rows,
            # alternately below and past SEQUENCE_PAIRS
            if case % 20 == 0:
                dev, per_sequence = _batched_rows_case(rows_rng, long=case % 40 == 20)
                worst = max(worst, dev)
                dense_paths[per_sequence] += 1
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
                        float(np.abs(band_to_dense(al.data, w) - al0).max()))
            band_blocks[n <= BAND_BLOCK] += 1

            # a band covering every pair is full attention, also a band
            # reaching far past both ends of the sequence
            for w_all in (2 * max(1, n - 1), 2 * n + 64):
                zx, ax = local_attention(q, k, v, HeadSpec("local", window=w_all), mask)
                worst = max(worst, float(np.abs(zx.data - z0).max()),
                            float(np.abs(band_to_dense(ax.data, w_all) - a0).max()))

            # two conv heads sharing one compressed stream, through the
            # production multi-head path; each head's weights come from
            # full attention over that stream, which must give its z
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
            stream, skeep = conv_compress(Tensor(x), cp, smask)
            xc0 = orc.naive_conv1d(x * smask[:, None], cp.weights.data,
                                   cp.bias.data, stride=stride,
                                   padding=kernel // 2)
            centers = np.minimum(np.arange(xc0.shape[0]) * stride, n - 1)
            for h in range(2):
                zc, ac = full_attention(Tensor(x) @ mw.wq[h], stream @ mw.wk[h],
                                        stream @ mw.wv[h], skeep)
                if not np.array_equal(zc.data, out.z[h].data):
                    return SuiteResult("oracle-equivalence", False, ran,
                                       f"conv head {h} z differs from its kernel "
                                       f"call at n={n}")
                zc0, ac0 = orc.naive_attention(
                    x @ mw.wq[h].data, xc0 @ mw.wk[h].data,
                    xc0 @ mw.wv[h].data, smask[centers])
                worst = max(worst, float(np.abs(zc.data - zc0).max()),
                            float(np.abs(ac.data - ac0).max()))

            # degenerate compression: K=1, stride 1, identity weights
            ident = ConvParams(1, Tensor(np.eye(d)[None]), Tensor(np.zeros(d)))
            iw = MHMAWeights(mw.wq, mw.wk, mw.wv, mw.wo, mw.bo, {(1, 1): ident})
            yi = mhma_forward(Tensor(x), [HeadSpec("conv", kernel=1, stride=1)] * 2,
                              iw, smask).y
            yf = mhma_forward(Tensor(x), [HeadSpec("full")] * 2, iw, smask).y
            worst = max(worst, float(np.abs(yi.data - yf.data).max()))
            ran += 1
    # the drawn lengths must reach both one band block and several, and
    # both the batched and the per-sequence dense path
    passed = worst < ORACLE_TOL and all(band_blocks.values()) and all(dense_paths.values())
    return SuiteResult("oracle-equivalence", passed, ran,
                       f"max deviation {worst:.3e} (tol {ORACLE_TOL:g}); local cases "
                       f"{band_blocks[True]} in one band block, {band_blocks[False]} in several; "
                       f"batched full cases {dense_paths[False]} batched, "
                       f"{dense_paths[True]} per sequence")


@no_grad()
def run_recomposition_suite(cases: int = 100) -> SuiteResult:
    """y == sum_h xi^h + b_o, in both precision modes."""
    mixes = list(HEAD_MIXES.values())
    worst64 = worst32 = 0.0
    for idx in range(cases):
        specs = mixes[idx % len(mixes)]
        for mode in ("float64", "float32"):
            with using_dtype(mode):
                rng = np.random.default_rng(7 + idx)
                n = int(rng.integers(4, 24))
                d = 16
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


def run_gradcheck_suite(samples_per_tensor: int = 6,
                        mixes: list[str] | None = None) -> SuiteResult:
    """Finite differences through MHMA for each head mix, then through a
    tiny end-to-end model."""
    worst = 0.0
    checked = 0
    with using_dtype("float64"):
        names = mixes or list(HEAD_MIXES)
        for mix_name in names:
            rng = np.random.default_rng(5)
            specs = HEAD_MIXES[mix_name]
            w = init_mhma_weights(16, specs, rng)
            x = Tensor(rng.normal(size=(10, 16)))
            mask = np.array([True] * 8 + [False] * 2)

            def f():
                out = mhma_forward(x, specs, w, mask)
                return (out.y * out.y).sum() * (1.0 / out.y.size)

            rep = grad_check(f, mhma_parameters("m", w), tolerance=GRAD_TOL,
                             max_samples=samples_per_tensor, seed=5)
            worst = max(worst, rep.max_rel_err())
            checked += sum(e.checked for e in rep.entries)
            if not rep.ok:
                return SuiteResult("gradient-check", False, checked,
                                   f"{mix_name}: {rep.failures()[0].name} at "
                                   f"{rep.max_rel_err():.3e}")

        rng = np.random.default_rng(6)
        cfg = ModelConfig(d_model=16, heads=4,
                          encoder_layers=[HEAD_MIXES["lc"]],
                          decoder_layers=1, ffn_dim=24, vocab_size=9,
                          input_feature_dim=5)
        weights = init_model_weights(cfg, 5)
        src = Tensor(rng.normal(size=(1, 12, 5)))
        tgt = np.array([[1, 4, 5, 6, 2]])
        batch = Seq2SeqBatch(src, np.ones((1, 12), bool), tgt,
                             np.ones((1, 5), bool))

        def loss_fn():
            return forward_loss(batch, cfg, weights)

        rep = grad_check(loss_fn, named_parameters(weights), tolerance=GRAD_TOL,
                         max_samples=max(2, samples_per_tensor // 2), seed=5)
        worst = max(worst, rep.max_rel_err())
        checked += sum(e.checked for e in rep.entries)
        if not rep.ok:
            return SuiteResult("gradient-check", False, checked,
                               f"end-to-end: {rep.failures()[0].name} at "
                               f"{rep.max_rel_err():.3e}")
    return SuiteResult("gradient-check", True, checked,
                       f"max relative error {worst:.3e} (tol {GRAD_TOL:g})")


@no_grad()
def run_count_suite() -> SuiteResult:
    """Score-product accounting: exact laws per mechanism (local window 64,
    conv stride 2) at n = 64, 256, 1024, and the headline ratios at 1024."""
    rng = np.random.default_rng(3)
    d_h, d, window, stride = 8, 16, 64, 2
    for n in (64, 256, 1024):
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
    local_ratio = c_local.score_products / c_full.score_products
    conv_ratio = c_conv.score_products / c_full.score_products
    if not local_ratio < 0.065:
        return SuiteResult("count-law", False, 9,
                           f"local/full at n=1024 is {local_ratio:.4f} >= 0.065")
    if conv_ratio != 0.5:
        return SuiteResult("count-law", False, 9,
                           f"conv/full at n=1024 is {conv_ratio} != 0.5")
    return SuiteResult(
        "count-law", True, 9,
        f"n=1024: local/full {local_ratio:.4f}, conv/full {conv_ratio:.2f}")


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
