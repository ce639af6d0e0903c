"""Multi-head multi-attention: each head runs its own mechanism (full,
local, or conv-compressed), outputs are concatenated and projected.
mhma_forward is the one multi-head entry point: encoder self-attention,
and decoder self- and cross-attention as all-full layers.

The output projection is also kept in decomposed form: with Wo split into
per-head column blocks Wo^h, the layer output satisfies

    y_i = Wo zcat_i + b_o = sum_h Wo^h z_i^h + b_o

and xi^h = z^h (Wo^h)^T is the per-head contribution to y that the
analysis module measures.  recompose_check evaluates both sides
independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import (ConvParams, LocalParams, OpCounter, conv_compress,
                        full_attention, local_attention)
from .tensor import Parameter, Tensor, concat, default_dtype, matmul

# The hyperparameter fields each mechanism takes; the others must be None.
MECHANISM_FIELDS = {"full": (), "local": ("window",), "conv": ("kernel", "stride")}


@dataclass(frozen=True)
class HeadSpec:
    """One head's mechanism and its hyperparameters.

    window applies to local heads only; kernel and stride to conv heads
    only.  Construction rejects missing or extraneous fields, and takes
    the value rules from LocalParams and ConvParams.
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
            LocalParams(self.window)
        elif self.mechanism == "conv":
            ConvParams.check(self.kernel, self.stride)

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
    """Result of one MHMA forward pass.

    z, weights, and xi hold per-head captures (lists of length H) when
    the pass ran with capture enabled, else None.  xi[h] has the full
    model width: xi^h = z^h (Wo^h)^T.
    """

    y: Tensor
    specs: list[HeadSpec]
    z: list[Tensor] | None = None
    weights: list | None = None
    xi: list[Tensor] | None = None

    @property
    def captured(self) -> bool:
        return self.xi is not None


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
        conv_params[key] = ConvParams(s.kernel, s.stride, w, b)
    return MHMAWeights(wq, wk, wv, wo, bo, conv_params)


def mhma_forward(x: Tensor, specs: list[HeadSpec], weights: MHMAWeights,
                 mask=None, counter: OpCounter | None = None,
                 capture: bool = False, kv_in: Tensor | None = None
                 ) -> AttentionOutput:
    """Run every head's mechanism over x: [..., n, d] -> y: [..., n, d].

    Queries come from x; keys and values from kv_in ([..., m, d]), or
    from x when kv_in is None.  mask marks valid key positions: [m] or
    [..., m] for every mechanism, and full heads also take a per-query
    [..., n, m] mask such as a causal one.  Conv heads sharing a
    (kernel, stride) reuse one compressed stream per call.  Capture
    additionally stores per-head z, attention weights, and xi.
    """
    h_count = len(specs)
    if h_count != weights.heads:
        raise ValueError(f"{h_count} specs for {weights.heads} heads of weights")
    d = x.shape[-1]
    d_h = weights.head_dim
    if d != h_count * d_h:
        raise ValueError(f"input width {d} != heads*head_dim {h_count * d_h}")
    kv = x if kv_in is None else kv_in

    compressed: dict[tuple[int, int], tuple[Tensor, np.ndarray]] = {}
    zs: list[Tensor] = []
    a_list = []
    for spec, wq, wk, wv in zip(specs, weights.wq, weights.wk, weights.wv):
        q = matmul(x, wq)
        if spec.mechanism == "full":
            k = matmul(kv, wk)
            v = matmul(kv, wv)
            z, a = full_attention(q, k, v, mask, counter)
        elif spec.mechanism == "local":
            k = matmul(kv, wk)
            v = matmul(kv, wv)
            z, a = local_attention(q, k, v, LocalParams(spec.window), mask, counter)
        else:
            key = (spec.kernel, spec.stride)
            if key not in compressed:
                params = weights.conv_params[key]
                compressed[key] = conv_compress(kv, params, mask)
            xc, keep_c = compressed[key]
            z, a = full_attention(q, matmul(xc, wk), matmul(xc, wv), keep_c, counter)
        zs.append(z)
        a_list.append(a)

    zcat = concat(zs, axis=-1)
    y = matmul(zcat, weights.wo.mT) + weights.bo
    if not capture:
        return AttentionOutput(y=y, specs=list(specs))
    xi = []
    for h, z in enumerate(zs):
        wo_h = weights.wo[:, h * d_h:(h + 1) * d_h]
        xi.append(matmul(z, wo_h.mT))
    return AttentionOutput(y=y, specs=list(specs), z=zs, weights=a_list, xi=xi)


def recompose_check(out: AttentionOutput, weights: MHMAWeights) -> float:
    """Max absolute gap between y and sum_h xi^h + b_o (Eq. 2 vs Eq. 3)."""
    if not out.captured:
        raise ValueError("recompose_check needs a capture-enabled forward pass")
    total = np.zeros_like(out.y.data)
    for xi in out.xi:
        total = total + xi.data
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
