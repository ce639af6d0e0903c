"""Multi-head multi-attention: each head runs its own mechanism (full,
local, or conv-compressed), outputs are concatenated and projected.
mhma_forward is the one multi-head entry point: encoder self-attention,
and decoder self- and cross-attention as all-full layers.

Every pass returns each head's output z^h beside y; the kernels'
attention weights are not kept.  With Wo split into per-head column
blocks Wo^h, the layer output satisfies

    y_i = Wo zcat_i + b_o = sum_h Wo^h z_i^h + b_o

and xi^h = z^h (Wo^h)^T, which head_outputs computes outside the graph,
is the per-head contribution to y that the analysis module measures.
recompose_check evaluates both sides independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import (ConvParams, OpCounter, conv_compress, full_attention,
                        local_attention)
from .tensor import Parameter, Tensor, check_conv, concat, default_dtype, matmul

# The hyperparameter fields each mechanism takes; the others must be None.
MECHANISM_FIELDS = {"full": (), "local": ("window",), "conv": ("kernel", "stride")}


@dataclass(frozen=True)
class HeadSpec:
    """One head's mechanism and its hyperparameters.

    window applies to local heads only: each token attends window//2
    neighbors on each side, plus itself.  kernel and stride apply to conv
    heads only.  Construction rejects missing or extraneous fields, an
    odd or too small window, and what tensor.check_conv rejects.
    """

    mechanism: str
    window: int | None = None
    kernel: int | None = None
    stride: int | None = None

    def __post_init__(self):
        if self.mechanism not in MECHANISM_FIELDS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}, "
                             f"expected one of {tuple(MECHANISM_FIELDS)}")
        for name in ("window", "kernel", "stride"):
            wanted = name in MECHANISM_FIELDS[self.mechanism]
            if (getattr(self, name) is None) == wanted:
                raise ValueError(f"{self.mechanism} head "
                                 f"{'needs' if wanted else 'takes no'} {name}")
        if self.mechanism == "local":
            if self.window < 2 or self.window % 2 != 0:
                raise ValueError(
                    f"window must be an even integer >= 2, got {self.window}")
        elif self.mechanism == "conv":
            check_conv(self.kernel, self.stride)

    def label(self) -> str:
        if self.mechanism == "local":
            return f"local({self.window})"
        if self.mechanism == "conv":
            return f"conv({self.kernel},{self.stride})"
        return "full"


@dataclass
class MHMAWeights:
    """Per-head projections plus the shared output projection.

    wq/wk/wv[h]: [d, d_h].  wo: [d, H*d_h], read in column blocks
    wo[:, h*d_h:(h+1)*d_h] per head.  Conv heads with the same
    (kernel, stride) share one compression conv, keyed in conv_params.
    """

    wq: list[Tensor]
    wk: list[Tensor]
    wv: list[Tensor]
    wo: Tensor
    bo: Tensor
    conv_params: dict[tuple[int, int], ConvParams] = field(default_factory=dict)

    @property
    def heads(self) -> int:
        return len(self.wq)

    @property
    def head_dim(self) -> int:
        return self.wq[0].shape[1]


@dataclass
class AttentionOutput:
    """Result of one MHMA forward pass: y [..., n, d], and per head (a
    list of length H) the head output z^h [..., n, d_h]."""

    y: Tensor
    z: list[Tensor]


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(default_dtype())


def init_mhma_weights(d: int, specs: list[HeadSpec],
                      rng: np.random.Generator) -> MHMAWeights:
    """Seeded Glorot-uniform init; one shared compression conv per
    distinct (kernel, stride) among the conv heads."""
    h_count = len(specs)
    if d % h_count != 0:
        raise ValueError(f"d_model {d} not divisible by {h_count} heads")
    d_h = d // h_count

    def trainable(arr):
        return Tensor(arr, requires_grad=True)

    wq = [trainable(glorot(rng, d, d_h, (d, d_h))) for _ in specs]
    wk = [trainable(glorot(rng, d, d_h, (d, d_h))) for _ in specs]
    wv = [trainable(glorot(rng, d, d_h, (d, d_h))) for _ in specs]
    wo = trainable(glorot(rng, h_count * d_h, d, (d, h_count * d_h)))
    bo = trainable(np.zeros(d, dtype=default_dtype()))
    conv_params: dict[tuple[int, int], ConvParams] = {}
    for s in specs:
        if s.mechanism != "conv":
            continue
        key = (s.kernel, s.stride)
        if key in conv_params:
            continue
        w = trainable(glorot(rng, s.kernel * d, d, (s.kernel, d, d)))
        b = trainable(np.zeros(d, dtype=default_dtype()))
        conv_params[key] = ConvParams(s.stride, w, b)
    return MHMAWeights(wq, wk, wv, wo, bo, conv_params)


def mhma_forward(x: Tensor, specs: list[HeadSpec], weights: MHMAWeights,
                 mask=None, counter: OpCounter | None = None,
                 kv_in: Tensor | None = None) -> AttentionOutput:
    """Run every head's mechanism over x: [..., n, d] -> y: [..., n, d].

    Queries come from x; keys and values from kv_in ([..., m, d]), or
    from x when kv_in is None.  mask marks valid key positions: [m] or
    [..., m] for every mechanism.  Full heads also take a per-query mask
    such as a causal one; it carries x's batch axes ([..., n, m] of x's
    rank), since an unbatched [n, m] mask with batched x is a key mask,
    read as [B, m].  In self-attention a [B, n] mask also marks the
    valid query rows of full and conv heads, which then run per sequence
    at paper scale (tensor.SEQUENCE_PAIRS), with z exactly 0 at padded
    rows.  Conv heads sharing a (kernel, stride) reuse one compressed
    stream per call.  Returns y with every head's z.
    """
    h_count = len(specs)
    if h_count != weights.heads:
        raise ValueError(f"{h_count} specs for {weights.heads} heads of weights")
    d = x.shape[-1]
    d_h = weights.head_dim
    if d != h_count * d_h:
        raise ValueError(f"input width {d} != heads*head_dim {h_count * d_h}")
    kv = x if kv_in is None else kv_in
    # self-attention over a padded batch: full and conv heads get the frame
    # mask as their valid query rows (see full_attention)
    rows = mask if kv_in is None and x.ndim == 3 and np.shape(mask) == x.shape[:-1] else None

    compressed: dict[tuple[int, int], tuple[Tensor, np.ndarray]] = {}
    zs: list[Tensor] = []
    for spec, wq, wk, wv in zip(specs, weights.wq, weights.wk, weights.wv):
        q = matmul(x, wq)
        stream, keep = kv, mask
        if spec.mechanism == "conv":
            key = (spec.kernel, spec.stride)
            if key not in compressed:
                compressed[key] = conv_compress(kv, weights.conv_params[key], mask)
            stream, keep = compressed[key]
        k, v = matmul(stream, wk), matmul(stream, wv)
        # only z: the weights are freed before the next head runs
        if spec.mechanism == "local":
            zs.append(local_attention(q, k, v, spec, keep, counter)[0])
        else:
            zs.append(full_attention(q, k, v, keep, counter, rows)[0])

    zcat = concat(zs, axis=-1)
    y = matmul(zcat, weights.wo.mT) + weights.bo
    return AttentionOutput(y=y, z=zs)


def head_outputs(out: AttentionOutput, weights: MHMAWeights) -> list[np.ndarray]:
    """Per-head contributions xi^h = z^h (Wo^h)^T, each [..., n, d],
    computed outside the graph."""
    d_h = weights.head_dim
    return [z.data @ weights.wo.data[:, h * d_h:(h + 1) * d_h].T
            for h, z in enumerate(out.z)]


def recompose_check(out: AttentionOutput, weights: MHMAWeights) -> float:
    """Max absolute gap between y and sum_h xi^h + b_o (Eq. 2 vs Eq. 3)."""
    total = np.zeros_like(out.y.data)
    for xi in head_outputs(out, weights):
        total = total + xi
    total = total + weights.bo.data
    return float(np.abs(out.y.data - total).max())


def mhma_parameters(prefix: str, weights: MHMAWeights) -> list[Parameter]:
    """Flatten to named parameters; names sort stably within one layer."""
    params = []
    for h in range(weights.heads):
        params.append(Parameter(f"{prefix}.head{h}.wq", weights.wq[h]))
        params.append(Parameter(f"{prefix}.head{h}.wk", weights.wk[h]))
        params.append(Parameter(f"{prefix}.head{h}.wv", weights.wv[h]))
    params.append(Parameter(f"{prefix}.wo", weights.wo))
    params.append(Parameter(f"{prefix}.bo", weights.bo))
    for (k, s), cp in sorted(weights.conv_params.items()):
        params.append(Parameter(f"{prefix}.compress.k{k}s{s}.weights", cp.weights))
        params.append(Parameter(f"{prefix}.compress.k{k}s{s}.bias", cp.bias))
    return params
