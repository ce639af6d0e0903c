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
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .tensor import Tensor, attend, check_conv, conv1d, windows

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
    """Compression conv for keys/values: stride (the compression factor)
    and the conv weights [K, D_in, D_out] and bias.  Odd kernels K only, so
    that the compressed length is exactly ceil(n / stride)."""

    stride: int
    weights: Tensor
    bias: Tensor

    def __post_init__(self):
        check_conv(self.weights.shape[0], self.stride)


def _key_mask(mask, positions: tuple[int, ...]) -> np.ndarray:
    """A key mask, the one mask form every kernel takes, broadcast over
    `positions`, the [..., m] batch axes and length of a stream; None is
    all-valid.  Raises ValueError when the last axis does not cover m or
    the leading axes do not broadcast, so a per-query mask is rejected."""
    if mask is None:
        return np.ones(positions, dtype=bool)
    keep = np.asarray(mask, dtype=bool)
    if keep.shape[-1] != positions[-1]:
        raise ValueError(f"mask covers {keep.shape[-1]} positions, expected {positions[-1]}")
    try:
        return np.broadcast_to(keep, positions)
    except ValueError:
        raise ValueError(f"mask {keep.shape} does not broadcast over the "
                         f"{positions} positions of its stream") from None


def full_attention(q: Tensor, k: Tensor, v: Tensor, mask=None,
                   counter: OpCounter | None = None, rows=None,
                   causal: bool = False) -> tuple[Tensor, Tensor]:
    """softmax(q kᵀ / sqrt(d_h)) v over all key positions.

    q: [..., n, d_h], k/v: [..., m, d_h].  The bool mask marks valid keys,
    [m] or [..., m] with leading axes that broadcast to q's batch axes.
    causal also hides key j from query i when j > i (the decoder's
    self-attention).  A query with no valid key raises.  Counts the n*m
    score products of each sequence.

    rows, a bool mask of q's valid rows that broadcasts to q's [..., n],
    lets tensor.attend run each sequence alone over its valid rows and
    keys (see SEQUENCE_PAIRS there).  z is then exactly 0 at padded rows,
    and the weights come back flat: sequence b's [n_b, m_b] block after
    sequence b-1's, Σ n_b*m_b in all.  The backward remakes them from
    per-row statistics, so they are freed as soon as the caller drops
    them; a caller that needs only z should keep only z.
    """
    m = k.shape[-2]
    keep = _key_mask(mask, q.shape[:-2] + (m,))[..., None, :]
    if causal:
        keep = keep & np.tri(q.shape[-2], m, dtype=bool)
    empty = ~np.broadcast_to(keep.any(axis=-1), q.shape[:-1])
    if empty.any():
        where = np.argwhere(empty)[:5]
        raise ValueError(f"softmax row(s) fully masked at index {where.tolist()}")
    z, a = attend(q, k, v, keep, rows=rows)
    if counter is not None:
        counter.add(math.prod(z.shape[:-1]) * m)
    return z, a


def local_attention(q: Tensor, k: Tensor, v: Tensor, params: HeadSpec,
                    mask=None, counter: OpCounter | None = None
                    ) -> tuple[Tensor, Tensor]:
    """Sliding-window self-attention: token i attends valid keys j with
    |i - j| <= window//2, window being the local head spec's.  q, k and v
    share one shape [..., n, d_h]; tensor.attend rejects any other.

    Scores outside the band are never computed, so the work is O(n*w).
    The weights come back as an [..., n, window+1] band (see
    tensor.band_to_dense).  The accounting adds the number of (query,
    valid in-band key) pairs.  A query whose whole band is padding gets
    an all-zero weight row; that only happens for queries that are
    themselves padding, since a valid query always has its valid self in
    band.
    """
    half = params.window // 2
    keep = _key_mask(mask, q.shape[:-1])
    z, a = attend(q, k, v, keep[..., None, :], half=half)
    if counter is not None:
        # no key lies further than n - 1 from its query
        counter.add(int(windows(keep[..., None], min(half, q.shape[-2] - 1)).sum()))
    return z, a


def conv_compress(x: Tensor, params: ConvParams, mask=None
                  ) -> tuple[Tensor, np.ndarray]:
    """Shorten a sequence by the stride factor with a strided conv.

    x: [..., n, d] -> [..., ceil(n/stride), d].  Padded input positions
    are zeroed as conv1d fills its padded copy of x (its keep argument),
    so padding content never leaks into valid compressed frames and no
    masked copy of x is kept.  The compressed mask takes validity from
    the center of each receptive field: mask_c[j] = mask[min(j*stride, n-1)].
    """
    n = x.shape[-2]
    keep = _key_mask(mask, x.shape[:-1])
    xc = conv1d(x, params.weights, params.bias, stride=params.stride, keep=keep)
    m = xc.shape[-2]
    centers = np.minimum(np.arange(m) * params.stride, n - 1)
    return xc, keep[..., centers]

