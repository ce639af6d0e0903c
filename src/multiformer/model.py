"""The full Multiformer: conv subsampling front-end, encoder layers whose
self-attention is an MHMA with per-layer head specs, and a vanilla
transformer decoder over token targets.

Conventions the original description leaves open, fixed here: plain
rectifier nonlinearities (subsampler and FFN), fixed sinusoidal positions
added after subsampling, post-norm residual blocks, zero-initialized
biases with seeded Glorot weights.  Dropout defaults to 0 so that forward
passes are deterministic; a config with dropout needs an rng to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import ConvParams, OpCounter, conv_compress
from .mhma import (AttentionOutput, HeadSpec, MHMAWeights, glorot,
                   init_mhma_weights, mhma_forward, mhma_parameters)
from .tensor import (Parameter, Tensor, default_dtype, dropout, embedding, ffn,
                     gather_last, layer_norm, log_softmax, matmul, mul, pack,
                     relu, unpack)

# Unused here, but perfbench/tracing.py lists multiformer.model.full_attention
# and multiformer.model.conv1d among its wrap points, and its smoke test
# requires every wrap point to resolve.
from .attention import full_attention  # noqa: F401
from .tensor import conv1d  # noqa: F401

SUBSAMPLE_KERNEL = 5
SUBSAMPLE_STRIDE = 2
# Label smoothing of every training and held-out loss.
SMOOTHING = 0.1


def check_at_least(name: str, value, low) -> None:
    """The one lower-bound rule.  Its message names the field first: the
    config parsers read that name to report the line that set it."""
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


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
        # Every message names the field it rejects: the arch-file parser
        # reads it to report the line that set that field.
        for name in ("heads", "d_model", "decoder_layers", "ffn_dim",
                     "input_feature_dim", "max_source_len", "max_target_len"):
            check_at_least(name, getattr(self, name), 1)
        if self.d_model % self.heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by heads {self.heads}")
        if not self.encoder_layers:
            raise ValueError("encoder_layers must list at least one layer")
        for i, layer in enumerate(self.encoder_layers):
            if len(layer) != self.heads:
                raise ValueError(f"encoder_layers[{i}] lists {len(layer)} heads, "
                                 f"expected {self.heads}")
        check_at_least("vocab_size", self.vocab_size, 2)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


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
    # every trainable tensor above under its checkpoint name, sorted by name,
    # and all their values in that order; each tensor's .data is a view of flat
    params: list[Parameter]
    flat: np.ndarray


def init_model_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Seeded init; the draw order below is part of the determinism
    contract (same seed, same weights).  Each parameter is named where
    it is drawn; its .data then becomes its view of `flat`."""
    rng = np.random.default_rng(seed)
    d, f, hidden = config.d_model, config.input_feature_dim, config.ffn_dim
    k = SUBSAMPLE_KERNEL
    params: list[Parameter] = []

    def trainable(name: str, arr: np.ndarray) -> Tensor:
        t = Tensor(arr, requires_grad=True)
        params.append(Parameter(name, t))
        return t

    def zeros(name: str, size: int) -> Tensor:
        return trainable(name, np.zeros(size, dtype=default_dtype()))

    def norm(prefix: str) -> LayerNormWeights:
        return LayerNormWeights(
            trainable(f"{prefix}.gain", np.ones(d, dtype=default_dtype())),
            zeros(f"{prefix}.bias", d))

    def feed_forward(prefix: str) -> FFNWeights:
        return FFNWeights(
            trainable(f"{prefix}.w1", glorot(rng, d, hidden, (d, hidden))),
            zeros(f"{prefix}.b1", hidden),
            trainable(f"{prefix}.w2", glorot(rng, hidden, d, (hidden, d))),
            zeros(f"{prefix}.b2", d))

    def multi_head(prefix: str, specs: list[HeadSpec]) -> MHMAWeights:
        w = init_mhma_weights(d, specs, rng)
        params.extend(mhma_parameters(prefix, w))
        return w

    sub = [ConvParams(SUBSAMPLE_STRIDE,
                      trainable(f"sub.conv{i}.weights",
                                glorot(rng, k * width, d, (k, width, d))),
                      zeros(f"sub.conv{i}.bias", d))
           for i, width in enumerate((f, d), start=1)]
    encoder = []
    for i, specs in enumerate(config.encoder_layers):
        prefix = f"enc.layer{i:02d}"
        encoder.append(EncoderLayerWeights(
            mhma=multi_head(f"{prefix}.mhma", specs),
            ln1=norm(f"{prefix}.ln1"),
            ffn=feed_forward(f"{prefix}.ffn"),
            ln2=norm(f"{prefix}.ln2")))
    full_specs = [HeadSpec("full")] * config.heads
    decoder = []
    for i in range(config.decoder_layers):
        prefix = f"dec.layer{i:02d}"
        decoder.append(DecoderLayerWeights(
            self_attn=multi_head(f"{prefix}.self", full_specs),
            ln1=norm(f"{prefix}.ln1"),
            cross_attn=multi_head(f"{prefix}.cross", full_specs),
            ln2=norm(f"{prefix}.ln2"),
            ffn=feed_forward(f"{prefix}.ffn"),
            ln3=norm(f"{prefix}.ln3")))
    embed = trainable("dec.embed.table",
                      (rng.standard_normal((config.vocab_size, d)) / math.sqrt(d)
                       ).astype(default_dtype()))
    out_w = trainable("dec.out.weights",
                      glorot(rng, d, config.vocab_size, (d, config.vocab_size)))
    out_b = zeros("dec.out.bias", config.vocab_size)
    if len({p.name for p in params}) != len(params):
        raise ValueError("duplicate parameter names")
    params.sort(key=lambda p: p.name)
    flat = np.concatenate([p.tensor.data.reshape(-1) for p in params])
    ends = np.cumsum([p.tensor.size for p in params])
    for p, part in zip(params, np.split(flat, ends[:-1])):
        p.tensor.data = part.reshape(p.tensor.shape)
    return ModelWeights(sub, encoder, decoder, embed, out_w, out_b, params, flat)


def named_parameters(weights: ModelWeights) -> list[Parameter]:
    """Every trainable tensor under a unique dotted name, sorted so the
    order matches the checkpoint layout."""
    return weights.params


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


def subsample(x: Tensor, mask: np.ndarray | None,
              weights: list[ConvParams]) -> tuple[Tensor, np.ndarray]:
    """Two stride-2 convs with rectifiers over [.., T, F] frames.

    Each conv is a conv_compress step: masked frames are zeroed before it
    so appended padding cannot alter valid output frames, and the mask
    downsamples by the center rule.  Returns the valid output frames
    packed into rows [N, d] and their mask [.., ceil(ceil(T/2)/2)].
    """
    h, keep = x, mask
    for conv in weights:
        h, keep = conv_compress(h, conv, keep)
        h = relu(h)
    return pack(h, keep), keep


def _ffn(x: Tensor, w: FFNWeights) -> Tensor:
    return ffn(x, w.w1, w.b1, w.w2, w.b2)


def encode(source: Tensor, source_mask: np.ndarray | None, config: ModelConfig,
           weights: ModelWeights, counter: OpCounter | None = None,
           rng: np.random.Generator | None = None
           ) -> tuple[Tensor, np.ndarray, list[AttentionOutput]]:
    """Subsample, add positions, run the MHMA encoder stack.

    The position-wise work (position add, residual adds, dropout, layer
    norms and FFN) runs on the valid frames packed into rows [N, d]; each
    MHMA attends over them unpacked to [.., T', d].  Returns (states
    [.., T', d] with padded frames exactly 0, frame mask [.., T'],
    per-layer attention outputs).
    """
    if source.shape[-2] > config.max_source_len:
        raise ValueError(
            f"source length {source.shape[-2]} exceeds max {config.max_source_len}")
    p = config.dropout
    h, keep = subsample(source, source_mask, weights.subsampler)
    positions = sinusoidal_positions(keep.shape[-1], config.d_model)
    h = dropout(h + positions[np.nonzero(keep)[-1]], p, rng)
    outs: list[AttentionOutput] = []
    for specs, layer in zip(config.encoder_layers, weights.encoder):
        out = mhma_forward(unpack(h, keep), specs, layer.mhma, keep, counter)
        y = dropout(pack(out.y, keep), p, rng)
        h = layer_norm(h + y, layer.ln1.gain, layer.ln1.bias)
        f = dropout(_ffn(h, layer.ffn), p, rng)
        h = layer_norm(h + f, layer.ln2.gain, layer.ln2.bias)
        outs.append(out)
    return unpack(h, keep), keep, outs


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
    tmask = (np.ones(target_in.shape, dtype=bool) if target_in_mask is None
             else np.asarray(target_in_mask, bool))
    causal = np.tril(np.ones((u, u), dtype=bool))
    self_keep = np.logical_and(causal, tmask[..., None, :])
    h = mul(embedding(weights.embed, target_in), math.sqrt(config.d_model))
    h = dropout(h + sinusoidal_positions(u, config.d_model), p, rng)
    full_specs = [HeadSpec("full")] * config.heads
    for layer in weights.decoder:
        a = dropout(mhma_forward(h, full_specs, layer.self_attn, self_keep).y,
                    p, rng)
        h = layer_norm(h + a, layer.ln1.gain, layer.ln1.bias)
        c = dropout(mhma_forward(h, full_specs, layer.cross_attn, enc_mask,
                                 kv_in=enc_states).y, p, rng)
        h = layer_norm(h + c, layer.ln2.gain, layer.ln2.bias)
        f = dropout(_ffn(h, layer.ffn), p, rng)
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


def teacher_forced_logits(batch: Seq2SeqBatch, config: ModelConfig,
                          weights: ModelWeights,
                          rng: np.random.Generator | None = None
                          ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """One teacher-forced pass: the decoder reads the targets without
    their last column and predicts them without their first.

    Returns (logits [.., U-1, V], labels [.., U-1], label mask [.., U-1]).
    """
    if batch.target_tokens.shape[-1] < 2:
        raise ValueError("targets must hold at least a begin and end sentinel")
    enc, enc_mask = encode(batch.source_features, batch.source_mask,
                           config, weights, rng=rng)[:2]
    logits = decode(batch.target_tokens[..., :-1], batch.target_mask[..., :-1],
                    enc, enc_mask, config, weights, rng=rng)
    return logits, batch.target_tokens[..., 1:], batch.target_mask[..., 1:]


def forward_loss(batch: Seq2SeqBatch, config: ModelConfig, weights: ModelWeights,
                 rng: np.random.Generator | None = None) -> Tensor:
    """Teacher-forced cross entropy, label-smoothed by SMOOTHING, over
    non-pad targets."""
    logits, labels, label_mask = teacher_forced_logits(batch, config, weights, rng)
    return label_smoothed_loss(logits, labels, label_mask, SMOOTHING)


def token_accuracy(logits: np.ndarray, labels: np.ndarray,
                   label_mask: np.ndarray) -> float:
    """Argmax accuracy of logits [.., V] over the unmasked labels."""
    label_mask = np.asarray(label_mask, bool)
    hits = int(((logits.argmax(axis=-1) == labels) & label_mask).sum())
    return hits / int(label_mask.sum())
