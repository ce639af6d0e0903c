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

The graph is kept apart from the data: an inner tensor points to a node
that holds its parents' places in the graph and its backward rule, not
its array, and a rule keeps only the arrays it reads.  So an output the
caller drops is freed at once unless some rule reads it.
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


@contextmanager
def using_dtype(name: str):
    """Temporarily switch the global precision mode."""
    global _active_dtype
    if name not in _DTYPES:
        raise ValueError(f"unknown dtype {name!r}, expected one of {sorted(_DTYPES)}")
    prev, _active_dtype = _active_dtype, _DTYPES[name]
    try:
        yield
    finally:
        _active_dtype = prev


# The backward rule of a node that a backward() sweep has passed.
_CONSUMED = object()

# False inside no_grad(): nodes then keep no graph.
_grad_enabled = True


@contextmanager
def no_grad():
    """Build no graph in the body: every node made there keeps no parents
    and no backward rule, so it holds nothing for a backward and frees
    what its rule would have read.  For passes whose outputs are only
    read, never backpropagated."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """An inner tensor's place in the graph: one entry per parent (the
    parent's node, a leaf that requires grad itself, or _UNTRACKED) and
    the backward rule, which maps the output's gradient to one gradient,
    or None, per parent.  It holds no array of its own."""

    __slots__ = ("requires_grad", "_parents", "_backward")

    def __init__(self, requires_grad: bool, parents: tuple, backward: Callable | None):
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward


# The graph entry of every parent that tracks no gradient.
_UNTRACKED = _Node(False, (), None)


class Tensor:
    """A dense n-d array with optional gradient tracking.

    A tensor built from operations points to its graph node (_Node);
    calling backward() on a scalar result fills .grad on every reachable
    leaf that has requires_grad set.  Tensors built by operations keep no
    .grad, so a graph holds no gradient arrays.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != _active_dtype:
            arr = arr.astype(_active_dtype)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self) -> Callable | None:
        return None if self._node is None else self._node._backward

    def _entry(self):
        """What a child's _parents holds for this tensor."""
        if self._node is not None:
            return self._node
        return self if self.requires_grad else _UNTRACKED

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
        root = self._entry()
        order = _topo_order(root)
        if any(node._backward is _CONSUMED for node in order):
            raise ValueError("backward() reaches a node an earlier backward() consumed")
        pending: dict[int, np.ndarray] = {id(root): np.ones((), dtype=self.data.dtype)}
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


def _topo_order(root) -> list:
    """The graph entries a sweep from root (a tensor or an entry) visits,
    parents before children."""
    order: list = []
    seen: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
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
    """Internal constructor of an operation's output; skips dtype
    normalization, and gives the output no node when no parent tracks
    gradients or under no_grad()."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    t._node = None
    if t.requires_grad:
        t._node = _Node(True, tuple(p._entry() for p in parents), backward)
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
    a_shape = a.shape
    if not isinstance(b, Tensor):
        return _make(a.data + b, (a,), lambda g: (_unbroadcast(g, a_shape),))
    b_shape = b.shape
    return _make(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))


def _read_across(a: Tensor, b: Tensor):
    """What the backward of a product of a and b reads: b's data for a's
    gradient and a's data for b's, each kept only when that gradient is
    made, i.e. when its parent tracks one."""
    return (b.data if a.requires_grad else None), (a.data if b.requires_grad else None)


def mul(a: Tensor, b) -> Tensor:
    a_shape = a.shape
    if not isinstance(b, Tensor):
        return _make(a.data * b, (a,), lambda g: (_unbroadcast(g * b, a_shape),))
    b_shape = b.shape
    for_a, for_b = _read_across(a, b)

    def bw(g):
        return (None if for_a is None else _unbroadcast(g * for_a, a_shape),
                None if for_b is None else _unbroadcast(g * for_b, b_shape))

    return _make(a.data * b.data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def relu(a: Tensor) -> Tensor:
    """The backward keeps the bool mask out > 0, which is a > 0, not a."""
    data = np.maximum(a.data, 0)
    live = data > 0
    return _make(data, (a,), lambda g: (g * live,))


# -- reductions ------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, shape).astype(g.dtype, copy=False),)
        gx = g
        if not keepdims:
            gx = np.expand_dims(gx, axis)
        return (np.broadcast_to(gx, shape),)

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
    shape = x.shape

    def bw(g):
        gx = np.zeros(shape, dtype=g.dtype)
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
    a_shape, b_shape = a.shape, b.shape
    for_a, for_b = _read_across(a, b)

    def bw(g):
        ga = gb = None
        if for_a is not None:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(for_a, -1, -2)), a_shape)
        if for_b is not None:
            gb = _unbroadcast(np.matmul(np.swapaxes(for_b, -1, -2), g), b_shape)
        return ga, gb

    return _make(data, (a, b), bw)


# -- banded (sliding-window) products -----------------------------------------
#
# Column c of a band row i pairs position i with position i + c - half, for
# c in [0, 2*half]: the band holds the diagonals |i - j| <= half of an
# [n, n] matrix.  Positions outside [0, n) read as zeros, or, in the
# scores attend forms, as -inf like the keys its key mask masks.
#
# Every band product runs over fixed blocks of BAND_BLOCK query rows (the
# last one ragged).  No key lies further than reach = min(half, n - 1)
# from its query, so a block of r rows pairs only with the keys within
# reach of it: its scores are one dense GEMM x yᵀ into a column-padded
# [r, r+2*reach] buffer, read back through a strided view of its
# diagonals, and its band is lifted into such a buffer for one dense GEMM
# against the values (or, transposed, against the queries).  Work and
# memory grow as n*(BAND_BLOCK + 2*reach); the band alone keeps all
# 2*half+1 columns.  Blocks start at row 0 whatever n is, so rows
# appended to a sequence reach earlier rows only as masked, zero-weight
# keys at the end of their last block's sums.

# Query rows per band block: at least the longest toy layer (24 rows), so
# toy heads run as one block, and below 64, so A1's lengths reach several.
BAND_BLOCK = 48


def _band_blocks(n: int, half: int):
    """(r0, r1, lo, hi) per block: rows [r0, r1) and their keys [lo, hi)."""
    for r0 in range(0, n, BAND_BLOCK):
        r1 = min(n, r0 + BAND_BLOCK)
        yield r0, r1, max(0, r0 - half), min(n, r1 + half)


def windows(x: np.ndarray, half: int) -> np.ndarray:
    """View [..., n, d] as [..., n, d, 2*half+1]: [..., i, :, c] is row
    i + c - half of x, zero (or False) outside the sequence."""
    n = x.shape[-2]
    p = np.zeros(x.shape[:-2] + (n + 2 * half, x.shape[-1]), dtype=x.dtype)
    p[..., half:half + n, :] = x
    return np.lib.stride_tricks.sliding_window_view(p, 2 * half + 1, axis=-2)


def _diagonals(p: np.ndarray, half: int) -> np.ndarray:
    """The [..., r, 2*half+1] band of a column-padded [..., r, r+2*half]
    matrix, as a view: (i, c) is p[..., i, i + c]."""
    row, col = p.strides[-2:]
    return np.lib.stride_tricks.as_strided(
        p, shape=p.shape[:-1] + (2 * half + 1,), strides=p.strides[:-2] + (row + col, col))


def _band_dot(x: np.ndarray, y: np.ndarray, half: int,
              keys: np.ndarray | None = None) -> np.ndarray:
    """s[..., i, c] = x_i · y_{i+c-half}, one GEMM per block of rows.  Given
    a [..., 1, n] key mask keys, s is -inf at masked and off-sequence keys
    instead of 0 off the sequence."""
    off = 0.0 if keys is None else -np.inf
    reach = min(half, x.shape[-2] - 1)
    s = np.full(x.shape[:-1] + (2 * half + 1,), off, dtype=np.result_type(x, y))
    for r0, r1, lo, hi in _band_blocks(x.shape[-2], reach):
        p = np.full(x.shape[:-2] + (r1 - r0, r1 - r0 + 2 * reach), off, dtype=s.dtype)
        block = p[..., lo - r0 + reach:hi - r0 + reach]
        np.matmul(x[..., r0:r1, :], np.swapaxes(y[..., lo:hi, :], -1, -2), out=block)
        if keys is not None:
            np.copyto(block, -np.inf, where=np.logical_not(keys[..., lo:hi]))
        s[..., r0:r1, half - reach:half + reach + 1] = _diagonals(p, reach)
    return s


def _band_lifts(band: np.ndarray, half: int):
    """(r0, r1, lo, hi, m) per block: m is rows [r0, r1) x columns [lo, hi)
    of the [n, n] matrix whose diagonals |i - j| <= half are band."""
    reach = min(half, band.shape[-2] - 1)
    for r0, r1, lo, hi in _band_blocks(band.shape[-2], reach):
        p = np.zeros(band.shape[:-2] + (r1 - r0, r1 - r0 + 2 * reach), dtype=band.dtype)
        _diagonals(p, reach)[...] = band[..., r0:r1, half - reach:half + reach + 1]
        yield r0, r1, lo, hi, p[..., lo - r0 + reach:hi - r0 + reach]


def band_to_dense(band: np.ndarray, window: int) -> np.ndarray:
    """Expand an [..., n, window+1] band to the [..., n, n] matrix."""
    dense = np.zeros(band.shape[:-1] + band.shape[-2:-1], dtype=band.dtype)
    for r0, r1, lo, hi, m in _band_lifts(band, window // 2):
        dense[..., r0:r1, lo:hi] = m
    return dense


def _band_mix(band: np.ndarray, y: np.ndarray, half: int,
              lifts: list | None = None) -> np.ndarray:
    """z_i = sum_c band[..., i, c] y_{i+c-half}, one GEMM per block; lifts
    is list(_band_lifts(band, half)) when the caller already made it."""
    z = np.empty(band.shape[:-1] + y.shape[-1:], dtype=np.result_type(band, y))
    for r0, r1, lo, hi, m in lifts or _band_lifts(band, half):
        np.matmul(m, y[..., lo:hi, :], out=z[..., r0:r1, :])
    return z


def _band_tmix(band: np.ndarray, y: np.ndarray, half: int,
               lifts: list | None = None) -> np.ndarray:
    """_band_mix with the transposed [n, n] matrix: block by block, the
    rows' y scatter into their keys."""
    lifts = lifts or list(_band_lifts(band, half))
    if len(lifts) == 1:  # one block covers the sequence
        return np.matmul(np.swapaxes(lifts[0][4], -1, -2), y)
    z = np.zeros(band.shape[:-1] + y.shape[-1:], dtype=np.result_type(band, y))
    for r0, r1, lo, hi, m in lifts:
        z[..., lo:hi, :] += np.matmul(np.swapaxes(m, -1, -2), y[..., r0:r1, :])
    return z


# -- attention ---------------------------------------------------------------

# A dense head given its batch's valid query rows runs once per sequence,
# over that sequence's valid rows and keys, when the longest sequence
# scores at least this many (row, key) pairs.  Below it the calls per
# sequence cost more than the padded pairs a batched head scores: with no
# padding at all, per-sequence fwd+bwd matches batched at about 2**17
# pairs per sequence for B=4 and about 2**16 for B=23, at d_h 16 and 64.
# The rule reads valid lengths only, so padding appended to a batch never
# moves a head from one path to the other.  Toy layers (n <= 24) stay
# batched.
SEQUENCE_PAIRS = 2 ** 17


def _softmax(s: np.ndarray, scale: float, stats: tuple | None = None) -> tuple:
    """Scale and softmax the scores s, -inf where masked, in place, over
    the last axis; returns s and its row statistics (shift, divisor),
    [..., 1] each.  Given the statistics of an earlier call on the same
    scores, it remakes that call's weights byte for byte."""
    s *= scale
    # exp(-inf) is exactly 0, so masked pairs come out 0; an empty row's
    # max and sum are replaced by 0 and 1 so that it stays all zero
    if stats is None:
        rowmax = s.max(axis=-1, keepdims=True)
        shift = np.where(np.isfinite(rowmax), rowmax, 0.0)
    else:
        shift, divisor = stats
    s -= shift
    np.exp(s, out=s)
    if stats is None:
        denom = s.sum(axis=-1, keepdims=True)
        divisor = np.where(denom == 0.0, 1.0, denom)
    s /= divisor
    return s, (shift, divisor)


def _score_grad(ga: np.ndarray, a: np.ndarray, scale: float) -> np.ndarray:
    """The scores' gradient a * (ga - sum(ga * a)) * scale, built in the
    weights' fresh gradient ga; the products ga * a are summed
    BAND_BLOCK rows at a time, so they never fill a whole score array."""
    dots = np.empty(ga.shape[:-1] + (1,), dtype=np.result_type(ga, a))
    for r0 in range(0, ga.shape[-2], BAND_BLOCK):
        rows = (..., slice(r0, r0 + BAND_BLOCK), slice(None))
        np.sum(ga[rows] * a[rows], axis=-1, keepdims=True, out=dots[rows])
    ga -= dots
    ga *= a
    ga *= scale
    return ga


def attend(q: Tensor, k: Tensor, v: Tensor, keep: np.ndarray,
           half: int | None = None, rows: np.ndarray | None = None
           ) -> tuple[Tensor, Tensor]:
    """softmax(q kᵀ / sqrt(d_h)) v over the (query, key) pairs keep admits,
    as one node over (q, k, v); returns z and the weights, outside the graph.

    q, k and v share their batch axes.  Dense (half None): keep is a bool
    array broadcastable to the [..., n, m] scores.  Banded: q, k, v are
    [..., n, d_h], keep is a [..., 1, n] key mask, and the scores are
    [..., n, 2*half+1] bands whose keys outside the sequence are masked too.
    Masked pairs weigh exactly 0 and rows sum to 1; a row with no admitted
    key (a padded query, say) weighs all zero.
    The chain scores -> scale -> softmax -> weighted sum, and its backward
    op for op, run once per part: a query index, a key index, a key mask
    and the buffer, if any, the part's weights are made in.  The layout,
    dense or band, supplies the products x yᵀ (-inf where the mask masks),
    a y and aᵀ y.  A batched or band head is one part.

    rows (dense only) marks the valid query rows of a [B, n, d_h] batch
    whose keep is a [B, 1, m] key mask.  When the rule of SEQUENCE_PAIRS
    holds, each sequence with valid pairs is a part over its valid rows
    and keys: z is exactly 0 at padded rows, and so are q's, k's and v's
    gradients there, and the weights come back flat, each sequence's
    [n_b, m_b] block after the other.  Otherwise rows is ignored.
    Such a part keeps only its softmax row statistics, [n_b, 1] twice, for
    the backward, which reruns its scores and softmax to remake the same
    weights; so the flat weights are freed once the caller drops them.  A
    batched or band part keeps its weights.
    """
    if not isinstance(keep, np.ndarray):
        raise TypeError(f"attend keep must be a numpy bool array, got {type(keep).__name__}")
    if q.shape[-1] != k.shape[-1] or k.shape != v.shape or q.shape[:-2] != k.shape[:-2] or (
            half is not None and q.shape != k.shape):
        raise ValueError(
            f"attention shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    scale = 1.0 / math.sqrt(q.shape[-1])
    parts, flat = [(..., ..., keep, None)], None
    if rows is not None:
        if half is not None or q.ndim != 3 or rows.shape != q.shape[:-1] or (
                rows.dtype != bool or keep.ndim < 2 or keep.shape[-2] != 1):
            raise ValueError(f"attend rows {rows.shape} need dense queries and keys "
                             f"[B, n, d_h] and [B, m, d_h] (got {q.shape}, {k.shape}) "
                             f"and a [B, 1, m] key mask (got {keep.shape})")
        pairs = rows.sum(axis=-1) * keep.sum(axis=-1)[..., 0]
        if pairs.max(initial=0) >= SEQUENCE_PAIRS:
            keys = np.broadcast_to(keep, k.shape[:-2] + (1, k.shape[-2]))[:, 0, :]
            flat = np.empty(int(pairs.sum()), dtype=np.result_type(q.data, k.data))
            parts = [((b, rows[b]), (b, keys[b]), None,
                      flat[end - p:end].reshape(-1, keys[b].sum()))
                     for b, (p, end) in enumerate(zip(pairs, np.cumsum(pairs))) if p]
    if half is None:
        def dot(x, y, mask=None, out=None):
            s = np.matmul(x, np.swapaxes(y, -1, -2), out=out)
            if mask is not None:
                np.copyto(s, -np.inf, where=np.logical_not(mask))
            return s

        mix, tmix = np.matmul, (lambda a, y: np.swapaxes(a, -1, -2) @ y)

        def qk_grads(gs, x, y):
            return mix(gs, y), tmix(gs, x)
    else:
        if keep.shape[-2:] != (1, q.shape[-2]) or keep.ndim > q.ndim:
            raise ValueError(f"banded attend keep must be a [..., 1, {q.shape[-2]}] key "
                             f"mask over q's batch axes {q.shape[:-2]}, got {keep.shape}")
        mix, tmix = (partial(f, half=half) for f in (_band_mix, _band_tmix))

        def dot(x, y, mask=None, out=None):
            return _band_dot(x, y, half, mask)

        def qk_grads(gs, x, y):  # q's and k's gradients share one lift of gs
            lifts = list(_band_lifts(gs, half))
            return mix(gs, y, lifts=lifts), tmix(gs, x, lifts=lifts)

    def place(results, side: int, shape: tuple) -> np.ndarray:
        """The parts' results at their query (side 0) or key (side 1)
        index, zeros elsewhere; one part over the batch is its own result."""
        if parts[0][side] is Ellipsis:
            return results[0]
        whole = np.zeros(shape, dtype=results[0].dtype)
        for part, r in zip(parts, results):
            whole[part[side]] = r
        return whole

    # per part, what its backward reads of the weights: the weights
    # themselves, or, for a part made in flat, the row statistics that
    # remake them, so that flat is freed once the caller drops it
    kept, zs = [], []
    for qi, ki, mask, out in parts:
        a, stats = _softmax(dot(q.data[qi], k.data[ki], mask, out), scale)
        zs.append(mix(a, v.data[ki]))
        kept.append(a if out is None else stats)
    z = place(zs, 0, q.shape[:-1] + v.shape[-1:])
    parts = [part[:3] for part in parts]

    def bw(g):
        grads = []
        for (qi, ki, mask), a in zip(parts, kept):
            if isinstance(a, tuple):  # the row statistics
                a = _softmax(dot(q.data[qi], k.data[ki], mask), scale, a)[0]
            gs = _score_grad(dot(g[qi], v.data[ki]), a, scale)
            grads.append(qk_grads(gs, q.data[qi], k.data[ki]) + (tmix(a, g[qi]),))
            del gs  # freed before the next part's weights are remade
        gq, gk, gv = zip(*grads)
        return place(gq, 0, q.shape), place(gk, 1, k.shape), place(gv, 1, v.shape)

    return _make(z, (q, k, v), bw), _make(kept[0] if flat is None else flat, (), None)


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
    shape, dtype = x.shape, x.data.dtype

    def bw(g):
        z = np.zeros(shape, dtype=dtype)
        np.put_along_axis(z, ids[..., None], g[..., None], axis=-1)
        return (z,)

    return _make(data, (x,), bw)


# -- composite layers ---------------------------------------------------------


def check_conv(kernel: int, stride: int) -> None:
    """Reject a kernel size and stride conv1d cannot run: the kernel must
    be odd, so that it centres on its frame, and both must be >= 1."""
    if kernel < 1 or kernel % 2 == 0 or stride < 1:
        raise ValueError(f"conv needs an odd kernel >= 1 and a stride >= 1, "
                         f"got kernel {kernel}, stride {stride}")


def conv1d(x: Tensor, weights: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """1-D convolution over the time axis, centred: an odd kernel K sees
    K//2 frames on each side, zero outside the sequence.

    x: [..., T, D_in], weights: [K, D_in, D_out], bias: [D_out].
    Output frame j is centred on input frame j*stride; length ceil(T/stride).
    One GEMM over im2col columns, a strided view of a zero-padded copy of
    x; the node keeps neither, and its backward rebuilds them from x.
    """
    if weights.ndim != 3:
        raise ValueError(f"conv1d weights must be [K, D_in, D_out], got {weights.shape}")
    k_size = weights.shape[0]
    check_conv(k_size, stride)
    if x.shape[-1] != weights.shape[1]:
        raise ValueError(f"conv1d channel mismatch: {x.shape} vs {weights.shape}")
    t, pad = x.shape[-2], k_size // 2
    t_out = (t - 1) // stride + 1
    lead = x.shape[:-2]
    d_in, d_out = weights.shape[1], weights.shape[2]
    w2 = weights.data.reshape(k_size * d_in, d_out)

    def im2col():
        # output frame j reads input frames j*stride-pad .. j*stride+pad,
        # laid out [K, D_in] to match the weights
        return np.swapaxes(windows(x.data, pad)[..., ::stride, :, :], -1, -2).reshape(
            lead + (t_out, k_size * d_in))

    def bw(g):
        g2 = g.reshape(-1, d_out)
        gx = gw = gb = None
        # the weights first, so the rebuilt columns are gone before gx's buffers
        if weights.requires_grad:
            gw = np.matmul(im2col().reshape(-1, k_size * d_in).T, g2).reshape(weights.shape)
        if x.requires_grad:
            gcols = np.matmul(g, w2.T).reshape(lead + (t_out, k_size, d_in))
            gxp = np.zeros(lead + (t + 2 * pad, d_in), dtype=g.dtype)
            for k in range(k_size):
                gxp[..., k:k + stride * (t_out - 1) + 1:stride, :] += gcols[..., k, :]
            gx = gxp[..., pad:pad + t, :]
        if bias.requires_grad:
            gb = g2.sum(axis=0)
        return gx, gw, gb

    out = np.matmul(im2col(), w2)
    out += bias.data
    return _make(out, (x, weights, bias), bw)


# Rows per FFN block (see ffn).  At least the most rows a toy FFN sees
# (552: 23 sequences of 24 frames, packed), so a toy FFN is one block
# with the GEMMs of an unblocked one.  At paper width (hidden 2048) a
# block's hidden rows take 6.3 MB in float32, against 27 MB for all 3328
# of paper_long's rows and 109 MB at n=4096.  Blocks of 768 and 1024 rows
# ran a paper_long FFN's fwd+bwd in the same time (1.17 times that of
# keeping every hidden row: the recompute's GEMM), so the smaller.
FFN_BLOCK = 768


def _accumulate(total: np.ndarray | None, term: np.ndarray) -> np.ndarray:
    """total + term in total's buffer; the first term is the total.  (A
    zero-filled start would turn a -0.0 first term into +0.0.)"""
    if total is None:
        return term
    total += term
    return total


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Position-wise feed-forward block relu(x w1 + b1) w2 + b2, with 2-D
    weights w1 [d, hidden] and w2 [hidden, d_out].

    One autodiff node that keeps only x, which w1's gradient reads anyway.
    Forward and backward run over blocks of FFN_BLOCK rows along axis -2,
    and the backward recomputes each block's rectified hidden rows h_b
    from x.  Per block, in block order, it adds h_bᵀ g_b to w2's gradient,
    takes the rectifier's mask h_b > 0 (exactly where its input was),
    makes h_b's gradient in h_b's own buffer, writes the block's rows of
    x's gradient and adds the block's terms to w1's and b1's.  It replays
    the matmul -> add -> relu -> matmul -> add chain in reverse with that
    chain's own ops, so y and x's gradient, row blocks of the same GEMMs,
    are bit for bit those of the generic nodes; the weight gradients are
    the block-order sums of theirs, so exactly theirs for one block (every
    toy FFN).
    """
    blocks = [(..., slice(r0, r0 + FFN_BLOCK), slice(None))
              for r0 in range(0, x.shape[-2], FFN_BLOCK)]

    def hidden(rows):
        h = np.matmul(x.data[rows], w1.data)
        h += b1.data
        return np.maximum(h, 0, out=h)

    y = np.empty(x.shape[:-1] + w2.shape[-1:], dtype=np.result_type(x.data, w1.data, w2.data))
    for rows in blocks:
        np.matmul(hidden(rows), w2.data, out=y[rows])
    y += b2.data

    def bw(g):
        gx = np.empty(x.shape, dtype=np.result_type(g, w1.data, w2.data))
        gw1 = gb1 = gw2 = None
        for rows in blocks:
            h, g_rows = hidden(rows), g[rows]
            gw2 = _accumulate(gw2, _unbroadcast(np.matmul(np.swapaxes(h, -1, -2), g_rows),
                                                w2.shape))
            live = h > 0
            # h's gradient in h's buffer, masked in place; g may be shared
            np.matmul(g_rows, np.swapaxes(w2.data, -1, -2), out=h)
            np.multiply(h, live, out=h)
            np.matmul(h, np.swapaxes(w1.data, -1, -2), out=gx[rows])
            gw1 = _accumulate(gw1, _unbroadcast(
                np.matmul(np.swapaxes(x.data[rows], -1, -2), h), w1.shape))
            gb1 = _accumulate(gb1, _unbroadcast(h, b1.shape))
            del h, live  # freed before the next block's are made
        return gx, gw1, gb1, gw2, _unbroadcast(g, b2.shape)

    return _make(y, (x, w1, b1, w2, b2), bw)


# Added to the variance before its inverse square root.
LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    One autodiff node that keeps the centred input c and per-row
    statistics besides its output; the normalized c * inv is recomputed
    where the backward reads it.  The backward does the arithmetic of the
    chain mean -> centre -> variance -> rsqrt -> scale -> shift in
    reverse, step for step and in the order generic mean and elementwise
    nodes for that chain would, so gradients, and the checkpoints trained
    with them, are bit for bit those of that chain.  It works in place
    where it can, so it peaks at two arrays of x's size, the gradient it
    returns among them.
    """
    n = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    c = x.data - mu
    v = (c * c).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS
    inv = v ** -0.5

    def bw(g):
        gc = g * gain.data
        gv = _unbroadcast(gc * c, inv.shape) * -0.5 * v ** -1.5
        gc *= inv
        t = gv / n * c
        gc += t
        gc += t  # c*c reaches c twice; 2*t would round differently
        del t
        # the mean's share, sum(-gc)/n; IEEE rounding is sign-symmetric
        gc -= _unbroadcast(gc, mu.shape) / n
        normed = c * inv
        normed *= g
        return gc, _unbroadcast(normed, gain.shape), _unbroadcast(g, bias.shape)

    out = c * inv
    out *= gain.data
    out += bias.data
    return _make(out, (x, gain, bias), bw)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when p == 0, without drawing from rng.
    The node keeps the bool keep mask, a byte per element, and its
    backward rebuilds the float multiplier from it."""
    if p <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout enabled but no rng passed")
    if p >= 1.0:
        raise ValueError("dropout rate must be < 1")
    keep = rng.random(x.shape) >= p
    dtype = x.data.dtype

    def scaled():
        return keep.astype(dtype) / (1.0 - p)

    return _make(x.data * scaled(), (x,), lambda g: (g * scaled(),))


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

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[GradCheckEntry]:
        return [e for e in self.entries if not e.ok]

    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)


# Central-difference step of grad_check, in 64-bit.
FD_STEP = 1e-4


def grad_check(f: Callable[[], Tensor], params: Sequence[Parameter],
               tolerance: float = 1e-4, max_samples: int = 256,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of f() against central finite differences
    of step FD_STEP.

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
    report = GradCheckReport()
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
            with no_grad():
                flat[i] = orig + FD_STEP
                f_plus = float(f().data)
                flat[i] = orig - FD_STEP
                f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            a = float(a_flat[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            worst = max(worst, err)
        report.entries.append(GradCheckEntry(
            name=p.name, max_rel_err=worst, checked=len(idxs),
            ok=worst <= tolerance))
    return report
