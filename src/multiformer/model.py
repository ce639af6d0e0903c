"""The full Multiformer: conv subsampling front-end, encoder layers whose
self-attention is an MHMA with per-layer head specs, and a vanilla
transformer decoder over token targets.

Conventions the original description leaves open, fixed here: plain
rectifier nonlinearities (subsampler and FFN), fixed sinusoidal positions
added after subsampling, post-norm residual blocks, zero-initialized
biases with seeded Glorot weights.  Dropout defaults to 0 so that forward
passes are deterministic; training may enable it by passing an rng.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attention import ConvParams, OpCounter, conv_compress
from .mhma import (AttentionOutput, HeadSpec, MHMAWeights, glorot,
                   init_mhma_weights, mhma_forward, mhma_parameters)
from .tensor import (Parameter, Tensor, default_dtype, dropout, embedding,
                     gather_last, layer_norm, log_softmax, matmul, mul, relu)

# Unused here, but perfbench/tracing.py lists multiformer.model.full_attention
# and multiformer.model.conv1d among its wrap points, and its smoke test
# requires every wrap point to resolve.
from .attention import full_attention  # noqa: F401
from .tensor import conv1d  # noqa: F401

SUBSAMPLE_KERNEL = 5
SUBSAMPLE_STRIDE = 2


@dataclass
class ModelConfig:
    d_model: int
    heads: int
    encoder_layers: list[list[HeadSpec]]
    decoder_layers: int
    ffn_dim: int
    vocab_size: int
    input_feature_dim: int
    dropout: float = 0.0
    max_source_len: int = 4096
    max_target_len: int = 1024

    def __post_init__(self):
        if self.d_model % self.heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by heads {self.heads}")
        if not self.encoder_layers:
            raise ValueError("need at least one encoder layer")
        for i, layer in enumerate(self.encoder_layers):
            if len(layer) != self.heads:
                raise ValueError(
                    f"encoder layer {i} lists {len(layer)} heads, expected {self.heads}")
        if self.decoder_layers < 1:
            raise ValueError("need at least one decoder layer")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads


@dataclass
class Seq2SeqBatch:
    """source_features: [B, T, F]; target_tokens: int [B, U] including
    begin/end sentinels.  Masks mark real (non-pad) positions."""

    source_features: Tensor
    source_mask: np.ndarray
    target_tokens: np.ndarray
    target_mask: np.ndarray


@dataclass
class LayerNormWeights:
    gain: Tensor
    bias: Tensor


@dataclass
class FFNWeights:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class EncoderLayerWeights:
    mhma: MHMAWeights
    ln1: LayerNormWeights
    ffn: FFNWeights
    ln2: LayerNormWeights


@dataclass
class DecoderLayerWeights:
    self_attn: MHMAWeights
    ln1: LayerNormWeights
    cross_attn: MHMAWeights
    ln2: LayerNormWeights
    ffn: FFNWeights
    ln3: LayerNormWeights


@dataclass
class ModelWeights:
    subsampler: list[ConvParams]
    encoder: list[EncoderLayerWeights]
    decoder: list[DecoderLayerWeights]
    embed: Tensor
    out_w: Tensor
    out_b: Tensor


def _ln_init(d: int) -> LayerNormWeights:
    return LayerNormWeights(
        gain=Tensor(np.ones(d, dtype=default_dtype()), requires_grad=True),
        bias=Tensor(np.zeros(d, dtype=default_dtype()), requires_grad=True))


def _ffn_init(d: int, hidden: int, rng) -> FFNWeights:
    return FFNWeights(
        w1=Tensor(glorot(rng, d, hidden, (d, hidden)), requires_grad=True),
        b1=Tensor(np.zeros(hidden, dtype=default_dtype()), requires_grad=True),
        w2=Tensor(glorot(rng, hidden, d, (hidden, d)), requires_grad=True),
        b2=Tensor(np.zeros(d, dtype=default_dtype()), requires_grad=True))


def init_model_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Seeded init; the draw order below is part of the determinism
    contract (same seed, same weights)."""
    rng = np.random.default_rng(seed)
    d, f = config.d_model, config.input_feature_dim
    k = SUBSAMPLE_KERNEL
    sub = [ConvParams(k, SUBSAMPLE_STRIDE,
                      Tensor(glorot(rng, k * width, d, (k, width, d)), requires_grad=True),
                      Tensor(np.zeros(d, dtype=default_dtype()), requires_grad=True))
           for width in (f, d)]
    encoder = []
    for specs in config.encoder_layers:
        encoder.append(EncoderLayerWeights(
            mhma=init_mhma_weights(d, specs, rng),
            ln1=_ln_init(d),
            ffn=_ffn_init(d, config.ffn_dim, rng),
            ln2=_ln_init(d)))
    full_specs = [HeadSpec("full")] * config.heads
    decoder = []
    for _ in range(config.decoder_layers):
        decoder.append(DecoderLayerWeights(
            self_attn=init_mhma_weights(d, full_specs, rng),
            ln1=_ln_init(d),
            cross_attn=init_mhma_weights(d, full_specs, rng),
            ln2=_ln_init(d),
            ffn=_ffn_init(d, config.ffn_dim, rng),
            ln3=_ln_init(d)))
    embed = Tensor(
        (rng.standard_normal((config.vocab_size, d)) / math.sqrt(d)
         ).astype(default_dtype()),
        requires_grad=True)
    out_w = Tensor(glorot(rng, d, config.vocab_size, (d, config.vocab_size)),
                   requires_grad=True)
    out_b = Tensor(np.zeros(config.vocab_size, dtype=default_dtype()),
                   requires_grad=True)
    return ModelWeights(sub, encoder, decoder, embed, out_w, out_b)


def named_parameters(weights: ModelWeights) -> list[Parameter]:
    """Every trainable tensor under a unique dotted name, sorted so the
    order matches the checkpoint layout."""
    params: list[Parameter] = [
        Parameter("sub.conv1.weights", weights.subsampler[0].weights),
        Parameter("sub.conv1.bias", weights.subsampler[0].bias),
        Parameter("sub.conv2.weights", weights.subsampler[1].weights),
        Parameter("sub.conv2.bias", weights.subsampler[1].bias),
        Parameter("dec.embed.table", weights.embed),
        Parameter("dec.out.weights", weights.out_w),
        Parameter("dec.out.bias", weights.out_b),
    ]
    for i, layer in enumerate(weights.encoder):
        prefix = f"enc.layer{i:02d}"
        params.extend(mhma_parameters(f"{prefix}.mhma", layer.mhma))
        params.append(Parameter(f"{prefix}.ln1.gain", layer.ln1.gain))
        params.append(Parameter(f"{prefix}.ln1.bias", layer.ln1.bias))
        params.append(Parameter(f"{prefix}.ffn.w1", layer.ffn.w1))
        params.append(Parameter(f"{prefix}.ffn.b1", layer.ffn.b1))
        params.append(Parameter(f"{prefix}.ffn.w2", layer.ffn.w2))
        params.append(Parameter(f"{prefix}.ffn.b2", layer.ffn.b2))
        params.append(Parameter(f"{prefix}.ln2.gain", layer.ln2.gain))
        params.append(Parameter(f"{prefix}.ln2.bias", layer.ln2.bias))
    for i, layer in enumerate(weights.decoder):
        prefix = f"dec.layer{i:02d}"
        params.extend(mhma_parameters(f"{prefix}.self", layer.self_attn))
        params.append(Parameter(f"{prefix}.ln1.gain", layer.ln1.gain))
        params.append(Parameter(f"{prefix}.ln1.bias", layer.ln1.bias))
        params.extend(mhma_parameters(f"{prefix}.cross", layer.cross_attn))
        params.append(Parameter(f"{prefix}.ln2.gain", layer.ln2.gain))
        params.append(Parameter(f"{prefix}.ln2.bias", layer.ln2.bias))
        params.append(Parameter(f"{prefix}.ffn.w1", layer.ffn.w1))
        params.append(Parameter(f"{prefix}.ffn.b1", layer.ffn.b1))
        params.append(Parameter(f"{prefix}.ffn.w2", layer.ffn.w2))
        params.append(Parameter(f"{prefix}.ffn.b2", layer.ffn.b2))
        params.append(Parameter(f"{prefix}.ln3.gain", layer.ln3.gain))
        params.append(Parameter(f"{prefix}.ln3.bias", layer.ln3.bias))
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ValueError("duplicate parameter names")
    return sorted(params, key=lambda p: p.name)


def sinusoidal_positions(length: int, d: int) -> np.ndarray:
    """Fixed sinusoidal table [length, d]: sin on even channels, cos on
    odd, geometric wavelengths from 2*pi to 10000*2*pi."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    chan = np.arange(0, d, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, chan / d)
    pe = np.zeros((length, d), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d // 2] if d % 2 == 0 else angle[:, :-1])
    return pe.astype(default_dtype())


def subsampled_length(t: int) -> int:
    return math.ceil(math.ceil(t / 2) / 2)


def subsample(x: Tensor, mask: np.ndarray | None,
              weights: list[ConvParams]) -> tuple[Tensor, np.ndarray]:
    """Two stride-2 convs with rectifiers: [.., T, F] -> [.., ceil(ceil(T/2)/2), d].

    Each conv is a conv_compress step: masked frames are zeroed before it
    so appended padding cannot alter valid output frames, and the mask
    downsamples by the center rule.
    """
    h, keep = x, mask
    for conv in weights:
        h, keep = conv_compress(h, conv, keep)
        h = relu(h)
    return mul(h, keep[..., None].astype(h.data.dtype)), keep


def _ffn(x: Tensor, w: FFNWeights) -> Tensor:
    return matmul(relu(matmul(x, w.w1) + w.b1), w.w2) + w.b2


def encode(source: Tensor, source_mask: np.ndarray | None, config: ModelConfig,
           weights: ModelWeights, counter: OpCounter | None = None,
           capture: bool = False, rng: np.random.Generator | None = None
           ) -> tuple[Tensor, np.ndarray, list[AttentionOutput] | None]:
    """Subsample, add positions, run the MHMA encoder stack.

    Returns (states [.., T', d], frame mask [.., T'], per-layer attention
    outputs when capture is on).
    """
    if source.shape[-2] > config.max_source_len:
        raise ValueError(
            f"source length {source.shape[-2]} exceeds max {config.max_source_len}")
    p = config.dropout
    if p > 0.0 and rng is None:
        raise ValueError("dropout enabled but no rng passed")
    h, keep = subsample(source, source_mask, weights.subsampler)
    h = h + Tensor(sinusoidal_positions(h.shape[-2], config.d_model))
    if p > 0.0:
        h = dropout(h, p, rng)
    captures: list[AttentionOutput] | None = [] if capture else None
    for specs, layer in zip(config.encoder_layers, weights.encoder):
        out = mhma_forward(h, specs, layer.mhma, keep, counter, capture)
        a = dropout(out.y, p, rng) if p > 0.0 else out.y
        h = layer_norm(h + a, layer.ln1.gain, layer.ln1.bias)
        f = _ffn(h, layer.ffn)
        if p > 0.0:
            f = dropout(f, p, rng)
        h = layer_norm(h + f, layer.ln2.gain, layer.ln2.bias)
        if capture:
            captures.append(out)
    return h, keep, captures


def decode(target_in: np.ndarray, target_in_mask: np.ndarray | None,
           enc_states: Tensor, enc_mask: np.ndarray, config: ModelConfig,
           weights: ModelWeights, rng: np.random.Generator | None = None) -> Tensor:
    """Teacher-forced decoder: token ids [.., U] -> logits [.., U, V].

    Self-attention is causal (token u sees <= u); cross-attention reads
    the encoder states under the source frame mask.  Both are MHMA
    layers whose heads are all full.
    """
    u = target_in.shape[-1]
    if u > config.max_target_len:
        raise ValueError(f"target length {u} exceeds max {config.max_target_len}")
    p = config.dropout
    if p > 0.0 and rng is None:
        raise ValueError("dropout enabled but no rng passed")
    tmask = (np.ones(target_in.shape, dtype=bool) if target_in_mask is None
             else np.asarray(target_in_mask, bool))
    causal = np.tril(np.ones((u, u), dtype=bool))
    self_keep = np.logical_and(causal, tmask[..., None, :])
    h = mul(embedding(weights.embed, target_in), math.sqrt(config.d_model))
    h = h + Tensor(sinusoidal_positions(u, config.d_model))
    if p > 0.0:
        h = dropout(h, p, rng)
    full_specs = [HeadSpec("full")] * config.heads
    for layer in weights.decoder:
        a = mhma_forward(h, full_specs, layer.self_attn, self_keep).y
        if p > 0.0:
            a = dropout(a, p, rng)
        h = layer_norm(h + a, layer.ln1.gain, layer.ln1.bias)
        c = mhma_forward(h, full_specs, layer.cross_attn, enc_mask,
                         kv_in=enc_states).y
        if p > 0.0:
            c = dropout(c, p, rng)
        h = layer_norm(h + c, layer.ln2.gain, layer.ln2.bias)
        f = _ffn(h, layer.ffn)
        if p > 0.0:
            f = dropout(f, p, rng)
        h = layer_norm(h + f, layer.ln3.gain, layer.ln3.bias)
    return matmul(h, weights.out_w) + weights.out_b


def label_smoothed_loss(logits: Tensor, labels: np.ndarray,
                        label_mask: np.ndarray, smoothing: float) -> Tensor:
    """Mean over unmasked positions of -sum_k q_k log p_k with
    q = (1 - eps) * onehot + eps / V."""
    v = logits.shape[-1]
    lp = log_softmax(logits)
    gold = gather_last(lp, labels)
    term = mul(gold, 1.0 - smoothing)
    if smoothing > 0.0:
        term = term + mul(lp.sum(axis=-1), smoothing / v)
    wmask = np.asarray(label_mask, bool)
    count = int(wmask.sum())
    if count == 0:
        raise ValueError("no unmasked target positions to score")
    picked = mul(term, wmask.astype(lp.data.dtype))
    return -picked.sum() / float(count)


def forward_loss(batch: Seq2SeqBatch, config: ModelConfig, weights: ModelWeights,
                 smoothing: float = 0.1, counter: OpCounter | None = None,
                 rng: np.random.Generator | None = None) -> Tensor:
    """Teacher-forced label-smoothed cross entropy over non-pad targets."""
    if batch.target_tokens.shape[-1] < 2:
        raise ValueError("targets must hold at least a begin and end sentinel")
    enc, enc_mask, _ = encode(batch.source_features, batch.source_mask,
                              config, weights, counter, rng=rng)
    dec_in = batch.target_tokens[..., :-1]
    in_mask = batch.target_mask[..., :-1]
    labels = batch.target_tokens[..., 1:]
    label_mask = batch.target_mask[..., 1:]
    logits = decode(dec_in, in_mask, enc, enc_mask, config, weights, rng=rng)
    return label_smoothed_loss(logits, labels, label_mask, smoothing)


def token_accuracy(batch: Seq2SeqBatch, config: ModelConfig,
                   weights: ModelWeights) -> float:
    """Teacher-forced argmax accuracy over non-pad target positions."""
    enc, enc_mask, _ = encode(batch.source_features, batch.source_mask,
                              config, weights)
    logits = decode(batch.target_tokens[..., :-1], batch.target_mask[..., :-1],
                    enc, enc_mask, config, weights)
    pred = logits.data.argmax(axis=-1)
    labels = batch.target_tokens[..., 1:]
    label_mask = np.asarray(batch.target_mask[..., 1:], bool)
    hits = int(((pred == labels) & label_mask).sum())
    return hits / int(label_mask.sum())
