"""Dense tensors with reverse-mode automatic differentiation.

Implements exactly the operations the model runs: elementwise add, mul,
neg and relu; sum; concatenation and the swap of the last two axes;
packing the valid rows of a padded batch and scattering them back;
matmul; log-softmax; embedding lookup and a last-axis gather; dropout.
One attention head (dense or banded, i.e. sliding-window), the
position-wise feed-forward block, 1-D convolution and layer normalization
are each a single node.  Storage is a row-major numpy array in a global
precision mode: float32 by default (training), float64 for gradient
checks and oracle comparisons, where finite differences are actually
trustworthy.

Gradients accumulate across backward() calls until explicitly zeroed,
matching the usual training-loop contract.
"""

from __future__ import annotations

import ctypes
import math
import platform
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4


def _keep_freed_memory() -> None:
    """Make glibc's malloc keep freed memory mapped for reuse.

    A training step or encoder pass allocates and frees the same large
    arrays over and over.  By default glibc serves each one with a fresh
    mmap and unmaps it on free, or trims the heap top, so every pass
    page-faults its whole working set back in (tens of thousands of
    minor faults per paper-scale pass).  Serving large blocks from the
    heap and never trimming it makes later passes reuse those pages; the
    heap then stays at the high-water mark the process reached.  Other C
    libraries are left alone.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_MAX, 0)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


_keep_freed_memory()

_DTYPES = {"float32": np.float32, "float64": np.float64}
_active_dtype = np.float32


def default_dtype():
    """The numpy dtype new tensors are created with."""
    return _active_dtype


def set_default_dtype(name: str) -> None:
    global _active_dtype
    if name not in _DTYPES:
        raise ValueError(f"unknown dtype {name!r}, expected one of {sorted(_DTYPES)}")
    _active_dtype = _DTYPES[name]


@contextmanager
def using_dtype(name: str):
    """Temporarily switch the global precision mode."""
    global _active_dtype
    prev = _active_dtype
    set_default_dtype(name)
    try:
        yield
    finally:
        _active_dtype = prev


# The backward rule of a node that a backward() sweep has passed.
_CONSUMED = object()


class Tensor:
    """A dense n-d array with optional gradient tracking.

    Tensors built from operations remember their parents and a backward
    rule; calling backward() on a scalar result fills .grad on every
    reachable leaf that has requires_grad set.  Tensors built by
    operations keep no .grad, so a graph holds no gradient arrays.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != _active_dtype:
            arr = arr.astype(_active_dtype)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def mT(self) -> "Tensor":
        """Swap the last two axes."""
        return _make(np.swapaxes(self.data, -1, -2), (self,),
                     lambda g: (np.swapaxes(g, -1, -2),))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar that consumes its graph.

        Contributions are added into the leaves' .grad, so repeated calls
        without zeroing accumulate.  Each inner node drops its parents and
        rule once passed; a later sweep that reaches it raises ValueError.
        """
        if self.data.ndim != 0:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor with no tracked dependencies")
        order = _topo_order(self)
        if any(node._backward is _CONSUMED for node in order):
            raise ValueError("backward() reaches a node an earlier backward() consumed")
        pending: dict[int, np.ndarray] = {id(self): np.ones((), dtype=self.data.dtype)}
        while order:
            node = order.pop()
            g = pending.pop(id(node), None)
            rule, parents = node._backward, node._parents
            if rule is not None:
                node._backward, node._parents = _CONSUMED, ()
            if g is None:
                continue
            if rule is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(parents, rule(g)):
                if pg is not None and parent.requires_grad:
                    key = id(parent)
                    pending[key] = pending[key] + pg if key in pending else pg

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, -other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return mul(self, 1.0 / other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


@dataclass
class Parameter:
    """A named trainable tensor.  Names are dot-separated paths, unique
    within a model; lexicographic name order fixes checkpoint layout."""

    name: str
    tensor: Tensor


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Internal node constructor; skips dtype normalization and drops the
    graph entirely when no parent tracks gradients."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    if any(p.requires_grad for p in parents):
        t.requires_grad = True
        t._parents = tuple(parents)
        t._backward = backward
    else:
        t.requires_grad = False
        t._parents = ()
        t._backward = None
    return t


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- elementwise arithmetic ----------------------------------------------


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return _make(a.data + b, (a,), lambda g: (_unbroadcast(g, a.shape),))
    data = a.data + b.data
    return _make(data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return _make(a.data * b, (a,), lambda g: (_unbroadcast(g * b, a.shape),))
    data = a.data * b.data
    return _make(data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)
    return _make(data, (a,), lambda g: (g * (a.data > 0),))


# -- reductions ------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).astype(g.dtype, copy=False),)
        gx = g
        if not keepdims:
            gx = np.expand_dims(gx, axis)
        return (np.broadcast_to(gx, a.shape),)

    return _make(data, (a,), bw)


# -- shape manipulation ----------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(tensors), bw)


def pack(x: Tensor, keep: np.ndarray) -> Tensor:
    """Gather the rows keep marks: [..., n, d] -> [N, d], N = keep.sum(),
    in row-major order.  The backward pass scatters into zeros."""
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != x.shape[:-1]:
        raise ValueError(f"pack: mask {keep.shape} does not match rows {x.shape[:-1]}")

    def bw(g):
        gx = np.zeros(x.shape, dtype=g.dtype)
        gx[keep] = g
        return (gx,)

    return _make(x.data[keep], (x,), bw)


def unpack(rows: Tensor, keep: np.ndarray) -> Tensor:
    """Scatter packed rows [N, d] back to [..., n, d], keep's shape plus d,
    with zero rows where keep is False; the inverse of pack.  The backward
    pass gathers."""
    keep = np.asarray(keep, dtype=bool)
    if rows.ndim != 2 or rows.shape[0] != keep.sum():
        raise ValueError(f"unpack: rows {rows.shape} for {int(keep.sum())} kept positions")
    data = np.zeros(keep.shape + rows.shape[-1:], dtype=rows.data.dtype)
    data[keep] = rows.data
    return _make(data, (rows,), lambda g: (g[keep],))


# -- linear algebra ---------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)

    def bw(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _make(data, (a, b), bw)


# -- banded (sliding-window) products -----------------------------------------
#
# Column c of a band row i pairs position i with position i + c - half, for
# c in [0, 2*half]: the band holds the diagonals |i - j| <= half of an
# [n, n] matrix.  Positions outside [0, n) read as zeros; attend masks
# those columns.
#
# The products have two implementations.  Per row, each is one batched
# matmul against a sliding-window view: n*(2*half+1) multiply-adds per
# feature, but B*n tiny BLAS calls.  At short n those calls cost more
# than the arithmetic they save, so there the scores are one dense GEMM
# x yᵀ into a column-padded [n, n+2*half] buffer, read back through a
# strided view of its diagonals, and a band is lifted into that buffer
# for one dense GEMM against the values.  attend picks by n and half;
# the band layout, and the softmax over it, are the same on both paths.

# Banded attend runs dense GEMMs while n is at most this many windows
# (2*half+1); measured at d_h=16, window 8 and at d_h=64, window 64.
_BAND_GEMM_WINDOWS = 4


def band_uses_gemm(n: int, half: int) -> bool:
    """Whether banded attend over n positions runs its products as GEMMs."""
    return n <= _BAND_GEMM_WINDOWS * (2 * half + 1)


def _pad_time(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the time axis (-2) by `pad` rows at both ends."""
    n = x.shape[-2]
    out = np.zeros(x.shape[:-2] + (n + 2 * pad, x.shape[-1]), dtype=x.dtype)
    out[..., pad:pad + n, :] = x
    return out


def windows(x: np.ndarray, half: int) -> np.ndarray:
    """View [..., n, d] as [..., n, d, 2*half+1]: [..., i, :, c] is row
    i + c - half of x, zero (or False) outside the sequence."""
    return np.lib.stride_tricks.sliding_window_view(
        _pad_time(x, half), 2 * half + 1, axis=-2)


def band_to_dense(band: np.ndarray, window: int) -> np.ndarray:
    """Expand an [..., n, window+1] band to the [..., n, n] matrix."""
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


def _band_transpose(band: np.ndarray, half: int) -> np.ndarray:
    """The band of the transposed [n, n] matrix: out[..., j, c] =
    band[..., j + c - half, 2*half - c], zero where that row is outside
    the sequence.  A strided view of the time-padded band."""
    bp = _pad_time(band, half)
    row, col = bp.strides[-2:]
    # Element (j, c) sits at padded row j + c, column 2*half - c.
    return np.lib.stride_tricks.as_strided(
        bp[..., 2 * half:], shape=band.shape, strides=bp.strides[:-2] + (row, row - col),
        writeable=False)


def _band_dot(x: np.ndarray, y: np.ndarray, half: int) -> np.ndarray:
    """s[..., i, c] = x_i · y_{i+c-half}, as one batched matmul."""
    return np.matmul(x[..., None, :], windows(y, half))[..., 0, :]


def _band_sum(a: np.ndarray, v: np.ndarray, half: int) -> np.ndarray:
    """z_i = sum_c a[..., i, c] v_{i+c-half} as one batched matmul."""
    return np.matmul(windows(v, half), a[..., None])[..., 0]


def _diagonals(p: np.ndarray, half: int) -> np.ndarray:
    """The [..., n, 2*half+1] band of a column-padded [..., n, n+2*half]
    matrix, as a view: (i, c) is p[..., i, i + c]."""
    row, col = p.strides[-2:]
    return np.lib.stride_tricks.as_strided(
        p, shape=p.shape[:-1] + (2 * half + 1,), strides=p.strides[:-2] + (row + col, col))


def _gemm_band_dot(x: np.ndarray, y: np.ndarray, half: int) -> np.ndarray:
    """_band_dot as one dense GEMM x yᵀ."""
    n = x.shape[-2]
    p = np.zeros(x.shape[:-1] + (n + 2 * half,), dtype=np.result_type(x, y))
    np.matmul(x, np.swapaxes(y, -1, -2), out=p[..., half:half + n])
    return _diagonals(p, half).copy()


def _gemm_band_lift(band: np.ndarray, half: int) -> np.ndarray:
    """The [..., n, n] matrix whose diagonals |i - j| <= half are band."""
    n = band.shape[-2]
    p = np.zeros(band.shape[:-1] + (n + 2 * half,), dtype=band.dtype)
    _diagonals(p, half)[...] = band
    return p[..., half:half + n]


# -- attention ---------------------------------------------------------------


def attend(q: Tensor, k: Tensor, v: Tensor, keep,
           half: int | None = None) -> tuple[Tensor, Tensor]:
    """softmax(q kᵀ / sqrt(d_h)) v over the (query, key) pairs keep admits,
    as one node over (q, k, v); returns z and the weights, outside the graph.

    Dense (half None): keep is a bool array broadcastable to the [..., n, m]
    scores, or None.  Banded: q, k, v are [..., n, d_h] and the scores and
    keep are [..., n, 2*half+1] bands, with off-sequence keys masked; None
    admits every in-sequence key.
    Masked pairs weigh exactly 0 and rows sum to 1; a row with no admitted
    key (a padded query, say) weighs all zero.
    The backward pass replays the chain scores -> scale -> softmax ->
    weighted sum op for op, with dot/mix/flip the dense or band products;
    lift turns a band into mix's operand (the dense matrix on the GEMM
    band path), so that one lifted score gradient serves both q's product
    and, transposed, k's.
    """
    if q.shape[-1] != k.shape[-1] or k.shape != v.shape or (
            half is not None and q.shape != k.shape):
        raise ValueError(
            f"attention shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    swap = partial(np.swapaxes, axis1=-1, axis2=-2)
    dot, mix, flip = (lambda x, y: np.matmul(x, swap(y))), np.matmul, swap
    lift = lambda band: band
    if half is not None:
        if band_uses_gemm(q.shape[-2], half):
            dot, lift = (partial(f, half=half) for f in (_gemm_band_dot, _gemm_band_lift))
        else:
            dot, mix, flip = (partial(f, half=half)
                              for f in (_band_dot, _band_sum, _band_transpose))
        if keep is None:
            keep = windows(np.ones((q.shape[-2], 1), dtype=bool), half)[..., 0, :]
    scale = 1.0 / math.sqrt(q.shape[-1])
    a = dot(q.data, k.data)
    a *= scale
    if keep is not None:
        # exp(-inf) is exactly 0, so masked pairs come out 0; an empty
        # row's max and sum are replaced by 0 and 1 so that it stays all zero
        np.copyto(a, -np.inf, where=~np.asarray(keep, dtype=bool))
    rowmax = a.max(axis=-1, keepdims=True)
    a -= np.where(np.isfinite(rowmax), rowmax, 0.0)
    np.exp(a, out=a)
    denom = a.sum(axis=-1, keepdims=True)
    a /= np.where(denom == 0.0, 1.0, denom)

    def bw(g):
        # gs = a * (ga - sum(ga * a)) * scale, built in ga's fresh buffer
        gs = dot(g, v.data)
        gs -= (gs * a).sum(axis=-1, keepdims=True)
        gs *= a
        gs *= scale
        gs = lift(gs)
        return (_unbroadcast(mix(gs, k.data), q.shape),
                _unbroadcast(mix(flip(gs), q.data), k.shape),
                _unbroadcast(mix(flip(lift(a)), g), v.shape))

    return _make(mix(lift(a), v.data), (q, k, v), bw), _make(a, (), None)


# -- log-softmax -------------------------------------------------------------


def log_softmax(logits: Tensor) -> Tensor:
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def bw(g):
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return _make(out, (logits,), bw)


# -- lookups -----------------------------------------------------------------


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids of any shape index the first axis of table."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError("embedding ids must be integers")
    data = table.data[ids]

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(data, (table,), bw)


def gather_last(x: Tensor, ids: np.ndarray) -> Tensor:
    """Pick one element along the last axis per leading position."""
    ids = np.asarray(ids)
    data = np.take_along_axis(x.data, ids[..., None], axis=-1)[..., 0]

    def bw(g):
        z = np.zeros_like(x.data)
        np.put_along_axis(z, ids[..., None], g[..., None], axis=-1)
        return (z,)

    return _make(data, (x,), bw)


# -- composite layers ---------------------------------------------------------


def conv1d(x: Tensor, weights: Tensor, bias: Tensor, stride: int = 1,
           padding: int = 0) -> Tensor:
    """1-D convolution over the time axis.

    x: [..., T, D_in], weights: [K, D_in, D_out], bias: [D_out].
    Zero-padding on both ends; output length (T + 2*padding - K)//stride + 1.
    """
    if weights.ndim != 3:
        raise ValueError(f"conv1d weights must be [K, D_in, D_out], got {weights.shape}")
    k_size = weights.shape[0]
    if k_size < 1 or stride < 1 or padding < 0:
        raise ValueError("conv1d needs K >= 1, stride >= 1, padding >= 0")
    t = x.shape[-2]
    if t + 2 * padding < k_size:
        raise ValueError(
            f"conv1d input too short: T={t} with padding {padding} < kernel {k_size}")
    if x.shape[-1] != weights.shape[1]:
        raise ValueError(f"conv1d channel mismatch: {x.shape} vs {weights.shape}")
    t_out = (t + 2 * padding - k_size) // stride + 1
    lead = x.shape[:-2]
    d_in, d_out = weights.shape[1], weights.shape[2]
    # im2col: output frame j reads input frames j*stride .. j*stride+K-1,
    # laid out [K, D_in] to match the weights.
    windows = np.lib.stride_tricks.sliding_window_view(
        _pad_time(x.data, padding), k_size, axis=-2)[..., ::stride, :, :]
    cols = np.swapaxes(windows, -1, -2).reshape(lead + (t_out, k_size * d_in))
    w2 = weights.data.reshape(k_size * d_in, d_out)

    def bw(g):
        g2 = g.reshape(-1, d_out)
        gx = gw = gb = None
        if x.requires_grad:
            gcols = np.matmul(g, w2.T).reshape(lead + (t_out, k_size, d_in))
            gxp = np.zeros(lead + (t + 2 * padding, d_in), dtype=g.dtype)
            for k in range(k_size):
                gxp[..., k:k + stride * (t_out - 1) + 1:stride, :] += gcols[..., k, :]
            gx = gxp[..., padding:padding + t, :]
        if weights.requires_grad:
            gw = np.matmul(cols.reshape(-1, k_size * d_in).T, g2).reshape(weights.shape)
        if bias.requires_grad:
            gb = g2.sum(axis=0)
        return gx, gw, gb

    return _make(np.matmul(cols, w2) + bias.data, (x, weights, bias), bw)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Position-wise feed-forward block relu(x w1 + b1) w2 + b2.

    One autodiff node that keeps only the rectified hidden activation h;
    h > 0 exactly where the rectifier's input was, so h also gives its
    mask.  The backward pass replays the matmul -> add -> relu -> matmul
    -> add chain in reverse with that chain's own ops, so gradients are
    bit for bit those of the generic nodes.
    """
    h = np.matmul(x.data, w1.data)
    h += b1.data
    np.maximum(h, 0, out=h)
    y = np.matmul(h, w2.data)
    y += b2.data

    def bw(g):
        # gh is made here, so masking it in place is safe; g may be shared.
        gh = np.matmul(g, np.swapaxes(w2.data, -1, -2))
        gw2 = _unbroadcast(np.matmul(np.swapaxes(h, -1, -2), g), w2.shape)
        np.multiply(gh, h > 0, out=gh)
        return (_unbroadcast(np.matmul(gh, np.swapaxes(w1.data, -1, -2)), x.shape),
                _unbroadcast(np.matmul(np.swapaxes(x.data, -1, -2), gh), w1.shape),
                _unbroadcast(gh, b1.shape), gw2, _unbroadcast(g, b2.shape))

    return _make(y, (x, w1, b1, w2, b2), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    One autodiff node.  Its backward pass does the arithmetic of the chain
    mean -> centre -> variance -> rsqrt -> scale -> shift in reverse, step
    for step and in the order generic mean and elementwise nodes for that
    chain would, so gradients, and the checkpoints trained with them, are
    bit for bit those of that chain.
    """
    n = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    c = x.data - mu
    v = (c * c).mean(axis=-1, keepdims=True) + eps
    inv = v ** -0.5
    normed = c * inv

    def bw(g):
        gn = g * gain.data
        gv = _unbroadcast(gn * c, inv.shape) * -0.5 * v ** -1.5
        t = gv / n * c
        gc = gn * inv + t + t  # c*c reaches c twice; 2*t would round differently
        gx = gc + _unbroadcast(-gc, mu.shape) / n
        return gx, _unbroadcast(g * normed, gain.shape), _unbroadcast(g, bias.shape)

    return _make(normed * gain.data + bias.data, (x, gain, bias), bw)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when p == 0, without drawing from rng."""
    if p <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout enabled but no rng passed")
    if p >= 1.0:
        raise ValueError("dropout rate must be < 1")
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return mul(x, keep)


def zero_grad(params: Sequence[Parameter]) -> None:
    for p in params:
        p.tensor.grad = None


# -- gradient checking ---------------------------------------------------------


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    checked: int
    ok: bool


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry] = field(default_factory=list)
    tolerance: float = 0.0

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[GradCheckEntry]:
        return [e for e in self.entries if not e.ok]

    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)


def grad_check(f: Callable[[], Tensor], params: Sequence[Parameter],
               step: float = 1e-4, tolerance: float = 1e-4,
               max_samples: int = 256, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of f() against central finite differences.

    f must be a deterministic scalar-valued closure over params, evaluated
    in float64 mode (finite differences are junk in float32).  Tensors
    larger than max_samples are subsampled at seeded random positions.
    Relative error uses a unit floor: |a-n| / max(|a|, |n|, 1).
    """
    if default_dtype() is not np.float64:
        raise ValueError("grad_check requires the float64 precision mode")
    for p in params:
        if p.tensor.data.dtype != np.float64:
            raise ValueError(f"parameter {p.name} is not float64")

    zero_grad(params)
    loss = f()
    loss.backward()
    analytic = {p.name: (np.zeros_like(p.tensor.data) if p.tensor.grad is None
                         else p.tensor.grad.copy()) for p in params}
    zero_grad(params)

    rng = np.random.default_rng(seed)
    report = GradCheckReport(tolerance=tolerance)
    for p in params:
        flat = p.tensor.data.reshape(-1)
        size = flat.size
        if size <= max_samples:
            idxs = np.arange(size)
        else:
            idxs = np.sort(rng.choice(size, size=max_samples, replace=False))
        a_flat = analytic[p.name].reshape(-1)
        worst = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(f().data)
            flat[i] = orig - step
            f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(a_flat[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            worst = max(worst, err)
        report.entries.append(GradCheckEntry(
            name=p.name, max_rel_err=worst, checked=len(idxs),
            ok=worst <= tolerance))
    return report
