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

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .tensor import Tensor, attend, conv1d, mul

if TYPE_CHECKING:
    from .mhma import HeadSpec


@dataclass
class OpCounter:
    """Counts query-key dot products across forward passes."""

    score_products: int = 0

    def add(self, count: int) -> None:
        self.score_products += int(count)


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
    """Normalize a bool array-like to a bool array whose last axis covers
    `length` positions, or None for all-valid."""
    if mask is None:
        return None
    keep = np.asarray(mask, dtype=bool)
    if keep.shape[-1] != length:
        raise ValueError(f"mask covers {keep.shape[-1]} positions, expected {length}")
    return keep


def _batch_count(shape: tuple[int, ...]) -> int:
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


def full_attention(q: Tensor, k: Tensor, v: Tensor, mask=None,
                   counter: OpCounter | None = None) -> tuple[Tensor, Tensor]:
    """softmax(q kᵀ / sqrt(d_h)) v over all key positions.

    q: [..., n, d_h], k/v: [..., m, d_h].  The bool mask's rank decides
    its meaning.  With q's rank, [..., n, m], it is per-query (causal
    masking, say).  Of lower rank, [m] or [..., m], it is key validity per
    sequence and its leading axes must broadcast to q's batch axes: with
    batched q an [n, m] mask is B key masks and needs n == B.  Counts n*m
    score products per sequence.
    """
    n, m = q.shape[-2], k.shape[-2]
    keep = _mask_array(mask, m)
    if keep is not None and keep.ndim < q.ndim:
        # keep.ndim < q.ndim, so zip covers every leading axis of the mask
        if any(a not in (1, b) for a, b in zip(keep.shape[-2::-1], q.shape[-3::-1])):
            raise ValueError(f"key mask {keep.shape} does not broadcast over "
                             f"the batch axes of q {q.shape}")
        # insert the query axis so the key mask broadcasts over rows
        keep = keep[..., None, :]
    z, a = attend(q, k, v, keep)
    if counter is not None:
        counter.add(_batch_count(q.shape) * n * m)
    return z, a


def local_attention(q: Tensor, k: Tensor, v: Tensor, params: HeadSpec,
                    mask=None, counter: OpCounter | None = None
                    ) -> tuple[Tensor, BandedWeights]:
    """Sliding-window self-attention: token i attends valid keys j with
    |i - j| <= window//2, window being the local head spec's.

    Scores outside the band are never computed, so the work is O(n*w).
    The accounting adds the number of (query, valid in-band key) pairs.
    A query whose whole band is padding gets an all-zero weight row;
    that only happens for queries that are themselves padding, since a
    valid query always has its valid self in band.
    """
    half = params.window // 2
    if k.shape != q.shape or v.shape != q.shape:
        raise ValueError("local attention is self-attention: q, k, v share one shape")
    n = q.shape[-2]
    keep = _mask_array(mask, n)
    if keep is None:
        keep = np.ones(n, dtype=bool)
    if keep.ndim > q.ndim - 1:
        raise ValueError("local attention needs a per-position mask, not a per-query one")
    keep = np.broadcast_to(keep, q.shape[:-1])

    if half >= n - 1:
        # Window covers every pair: the dense kernel computes exactly the
        # in-band products, and bit-matches full attention.
        z, a = attend(q, k, v, keep[..., None, :], empty_rows="zero")
        if counter is not None:
            counter.add(int(keep.sum()) * n)
        return z, BandedWeights(a, params.window, banded=False)

    pad_width = [(0, 0)] * keep.ndim
    pad_width[-1] = (half, half)
    band_mask = np.lib.stride_tricks.sliding_window_view(
        np.pad(keep, pad_width), 2 * half + 1, axis=-1)
    z, a = attend(q, k, v, band_mask, half=half, empty_rows="zero")
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

