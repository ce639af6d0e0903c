"""The head kernels: full scaled-dot-product attention, sliding-window
local attention, and the strided conv that compresses keys and values for
conv heads (which then run full attention over the compressed stream).

All functions are pure over their inputs apart from an optional OpCounter
that accounts for query-key score products, which is how the complexity
claims are tested (counts, not wall time).  Shapes are written for a
single sequence ([n, d_h]) but every operation tolerates extra leading
batch dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, conv1d, masked_softmax, matmul, mul, pad_time, stack_last


@dataclass
class OpCounter:
    """Counts query-key dot products across forward passes."""

    score_products: int = 0

    def add(self, count: int) -> None:
        self.score_products += int(count)


@dataclass(frozen=True)
class AttentionMask:
    """Key-side validity for one sequence: True = real token, False = padding."""

    valid: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.valid, dtype=bool)
        if v.ndim != 1:
            raise ValueError(f"AttentionMask wants a 1-d bool array, got shape {v.shape}")
        if not v.any():
            raise ValueError("AttentionMask must have at least one valid position")
        object.__setattr__(self, "valid", v)

    def __len__(self) -> int:
        return len(self.valid)


@dataclass(frozen=True)
class LocalParams:
    """Sliding-window hyperparameters: each token attends window//2
    neighbors on each side, plus itself."""

    window: int

    def __post_init__(self):
        if self.window < 2 or self.window % 2 != 0:
            raise ValueError(f"window must be an even integer >= 2, got {self.window}")


@dataclass
class ConvParams:
    """Compression conv for keys/values: kernel size, stride (the
    compression factor), and the conv weights/bias.  Odd kernels only, so
    that the compressed length is exactly ceil(n / stride)."""

    kernel: int
    stride: int
    weights: Tensor
    bias: Tensor

    def __post_init__(self):
        self.check(self.kernel, self.stride)

    @staticmethod
    def check(kernel: int, stride: int) -> None:
        """Reject a kernel/stride pair that cannot define a compression."""
        if kernel < 1 or kernel % 2 == 0:
            raise ValueError(f"compression kernel must be odd and >= 1, got {kernel}")
        if stride < 1:
            raise ValueError(f"compression stride must be >= 1, got {stride}")


class BandedWeights:
    """Attention weights from local attention.

    Banded layout stores one column per window offset: values[..., i, c]
    is the weight of key i + (c - window//2) on query i.  When the window
    covers the whole sequence the dense kernel is used instead and values
    already hold the [n, n] matrix.
    """

    def __init__(self, values: Tensor, window: int, banded: bool):
        self.values = values
        self.window = window
        self.banded = banded

    def dense(self) -> np.ndarray:
        """Expand to an [..., n, n] array of weights."""
        if not self.banded:
            return self.values.data.copy()
        return band_to_dense(self.values.data, self.window)


def band_to_dense(band: np.ndarray, window: int) -> np.ndarray:
    half = window // 2
    n = band.shape[-2]
    out = np.zeros(band.shape[:-1] + (n,), dtype=band.dtype)
    for c, delta in enumerate(range(-half, half + 1)):
        lo = max(0, -delta)
        hi = min(n, n - delta)
        if lo >= hi:
            continue
        idx_i = np.arange(lo, hi)
        out[..., idx_i, idx_i + delta] = band[..., lo:hi, c]
    return out


def _mask_array(mask, length: int) -> np.ndarray | None:
    """Normalize an AttentionMask or bool array-like to a bool array whose
    last axis covers `length` positions, or None for all-valid."""
    if mask is None:
        return None
    keep = mask.valid if isinstance(mask, AttentionMask) else np.asarray(mask, dtype=bool)
    if keep.shape[-1] != length:
        raise ValueError(f"mask covers {keep.shape[-1]} positions, expected {length}")
    return keep


def _batch_count(shape: tuple[int, ...]) -> int:
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


def full_attention(q: Tensor, k: Tensor, v: Tensor, mask=None,
                   counter: OpCounter | None = None) -> tuple[Tensor, Tensor]:
    """softmax(q kᵀ / sqrt(d_h)) v over all key positions.

    q: [..., n, d_h], k/v: [..., m, d_h].  mask is key validity: a bool
    array of shape [m], [..., m], or [..., n, m] (the 2-d form carries
    per-query structure such as causal masking).  Counts n*m score
    products per sequence.
    """
    if q.shape[-1] != k.shape[-1] or k.shape != v.shape:
        raise ValueError(
            f"attention shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    d_h = q.shape[-1]
    n, m = q.shape[-2], k.shape[-2]
    keep = _mask_array(mask, m)
    if keep is not None and keep.shape == q.shape[:-2] + (m,):
        # Batched per-sequence key mask: insert the query axis so it
        # broadcasts over rows instead of colliding with them.
        keep = keep[..., None, :]
    scores = mul(matmul(q, k.mT), 1.0 / math.sqrt(d_h))
    a = masked_softmax(scores, keep)
    z = matmul(a, v)
    if counter is not None:
        counter.add(_batch_count(q.shape) * n * m)
    return z, a


def local_attention(q: Tensor, k: Tensor, v: Tensor, params: LocalParams,
                    mask=None, counter: OpCounter | None = None
                    ) -> tuple[Tensor, BandedWeights]:
    """Sliding-window self-attention: token i attends valid keys j with
    |i - j| <= window//2.

    Scores outside the band are never computed, so the work is O(n*w).
    The accounting adds the number of (query, valid in-band key) pairs.
    A query whose whole band is padding gets an all-zero weight row;
    that only happens for queries that are themselves padding, since a
    valid query always has its valid self in band.
    """
    half = params.window // 2
    if k.shape != q.shape or v.shape != q.shape:
        raise ValueError("local attention is self-attention: q, k, v share one shape")
    n, d_h = q.shape[-2], q.shape[-1]
    keep = _mask_array(mask, n)
    if keep is None:
        keep = np.ones(n, dtype=bool)
    if keep.ndim > q.ndim - 1:
        raise ValueError("local attention needs a per-position mask, not a per-query one")
    keep = np.broadcast_to(keep, q.shape[:-1])
    scale = 1.0 / math.sqrt(d_h)

    if half >= n - 1:
        # Window covers every pair: the dense kernel computes exactly the
        # in-band products, and bit-matches full attention.
        scores = mul(matmul(q, k.mT), scale)
        a = masked_softmax(scores, keep[..., None, :], empty_rows="zero")
        z = matmul(a, v)
        if counter is not None:
            counter.add(int(keep.sum()) * n)
        return z, BandedWeights(a, params.window, banded=False)

    kp = pad_time(k, half, half)
    vp = pad_time(v, half, half)
    pad_width = [(0, 0)] * keep.ndim
    pad_width[-1] = (half, half)
    keep_pad = np.pad(keep, pad_width)

    cols = []
    col_masks = []
    for delta in range(-half, half + 1):
        lo = delta + half
        ks = kp[..., lo:lo + n, :]
        cols.append(mul(q, ks).sum(axis=-1))
        col_masks.append(keep_pad[..., lo:lo + n])
    band_mask = np.stack(col_masks, axis=-1)
    logits = mul(stack_last(cols), scale)
    a = masked_softmax(logits, band_mask, empty_rows="zero")

    z = None
    for c, delta in enumerate(range(-half, half + 1)):
        lo = delta + half
        term = mul(a[..., :, c:c + 1], vp[..., lo:lo + n, :])
        z = term if z is None else z + term
    if counter is not None:
        counter.add(int(band_mask.sum()))
    return z, BandedWeights(a, params.window, banded=True)


def conv_compress(x: Tensor, params: ConvParams, mask=None
                  ) -> tuple[Tensor, np.ndarray]:
    """Shorten a sequence by the stride factor with a strided conv.

    x: [..., n, d] -> [..., ceil(n/stride), d].  Padded input positions
    are zeroed before the conv so padding content never leaks into valid
    compressed frames.  The compressed mask takes validity from the
    center of each receptive field: mask_c[j] = mask[min(j*stride, n-1)].
    """
    n = x.shape[-2]
    keep = _mask_array(mask, n)
    if keep is None:
        keep = np.ones(n, dtype=bool)
    xm = mul(x, keep[..., None].astype(x.data.dtype))
    xc = conv1d(xm, params.weights, params.bias, stride=params.stride,
                padding=params.kernel // 2)
    m = xc.shape[-2]
    centers = np.minimum(np.arange(m) * params.stride, n - 1)
    keep_c = np.broadcast_to(keep, x.shape[:-1])[..., centers]
    return xc, keep_c

