"""Brute-force references the fast paths are checked against.

Everything here is plain numpy/python with explicit loops or textbook
vectorized formulas, deliberately sharing no code with the autodiff
tensor ops.  Used by the verification suites and the test oracles.
"""

from __future__ import annotations

import math

import numpy as np


def naive_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                    valid: np.ndarray | None = None,
                    band_half: int | None = None, causal: bool = False):
    """Dense scaled-dot-product attention with explicit loops over (i, j).

    q: [n, d_h], k/v: [m, d_h], valid: bool [m] or None.
    band_half restricts token i to keys j with |i - j| <= band_half
    (self-attention layout, n == m), and causal to keys j <= i.  Rows
    with no admissible key come back as all zeros.  Returns
    (z [n, d_h], a [n, m]) in float64.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n, d_h = q.shape
    m = k.shape[0]
    scale = 1.0 / math.sqrt(d_h)
    a = np.zeros((n, m))
    z = np.zeros((n, d_h))
    for i in range(n):
        scores = {}
        for j in range(m):
            if valid is not None and not valid[j]:
                continue
            if band_half is not None and abs(i - j) > band_half:
                continue
            if causal and j > i:
                continue
            scores[j] = scale * float(np.dot(q[i], k[j]))
        if not scores:
            continue
        top = max(scores.values())
        exps = {j: math.exp(s - top) for j, s in scores.items()}
        denom = sum(exps.values())
        for j, e in exps.items():
            a[i, j] = e / denom
            z[i] += a[i, j] * v[j]
    return z, a


def naive_conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                 stride: int, padding: int) -> np.ndarray:
    """Direct-summation 1-D convolution.  x: [T, D_in], w: [K, D_in, D_out]."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    t, d_in = x.shape
    k_size, _, d_out = w.shape
    t_out = (t + 2 * padding - k_size) // stride + 1
    out = np.zeros((t_out, d_out))
    for ti in range(t_out):
        for kk in range(k_size):
            src = ti * stride + kk - padding
            if src < 0 or src >= t:
                continue
            for ci in range(d_in):
                for co in range(d_out):
                    out[ti, co] += x[src, ci] * w[kk, ci, co]
        out[ti] += b
    return out


def softmax_rows(scores: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Row softmax with excluded positions forced to zero; all-excluded
    rows come back as zeros."""
    neg = np.where(keep, scores, -np.inf)
    top = neg.max(axis=-1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    e = np.where(keep, np.exp(neg - top), 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    return e / np.where(denom == 0.0, 1.0, denom)


def reference_mhsa(x: np.ndarray, wq: list, wk: list, wv: list,
                   wo: np.ndarray, bo: np.ndarray,
                   valid: np.ndarray | None = None) -> np.ndarray:
    """Standard multi-head self-attention, vectorized numpy.

    x: [n, d]; per-head projections wq/wk/wv: [d, d_h]; wo: [d, H*d_h].
    """
    n, d = x.shape
    heads = len(wq)
    d_h = wq[0].shape[1]
    keep = np.ones(n, dtype=bool) if valid is None else np.asarray(valid, bool)
    outs = []
    for h in range(heads):
        q = x @ wq[h]
        k = x @ wk[h]
        v = x @ wv[h]
        scores = (q @ k.T) / math.sqrt(d_h)
        a = softmax_rows(scores, np.broadcast_to(keep, scores.shape))
        outs.append(a @ v)
    zcat = np.concatenate(outs, axis=-1)
    return zcat @ wo.T + bo

