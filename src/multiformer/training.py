"""Training harness: inverse-sqrt schedule, Adam, a synthetic seq2seq
task, the loop itself, and checkpoint averaging.

The synthetic task mimics the structure of speech translation input at
desk scale: each target symbol is emitted as `redundancy` consecutive
noisy copies of a fixed per-symbol feature code, so the source runs
several frames per output token and the subsampler has real work to do.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import (load_checkpoint, load_into, load_matching, save_arrays,
                         save_checkpoint)
from .model import (SMOOTHING, ModelConfig, ModelWeights, Seq2SeqBatch,
                    check_at_least, forward_loss, init_model_weights,
                    label_smoothed_loss, named_parameters, teacher_forced_logits,
                    token_accuracy)
from .tensor import Tensor, default_dtype, no_grad, zero_grad

PAD, BOS, EOS = 0, 1, 2
SENTINELS = 3

METRICS_HEADER = ["step", "loss", "lr", "token_acc"]
CKPT_PATTERN = "ckpt_{step:06d}.mfck"


class TrainingDiverged(RuntimeError):
    """A parameter, the training loss or the held-out loss became non-finite."""


# Default warmup, sized for the desk-scale task.
TOY_WARMUP = 400
# Adam's moment decays and denominator floor.
BETA1, BETA2, ADAM_EPS = 0.9, 0.98, 1e-8
# Checkpoints averaged each side of the best one (7 in all mid-series).
AVERAGE_RADIUS = 3


@dataclass
class TrainConfig:
    max_updates: int
    batch_tokens: int = 512
    seed: int = 0
    peak_lr: float = 2e-3
    warmup_updates: int = TOY_WARMUP
    log_every: int = 100
    eval_sequences: int = 64
    target_acc: float | None = None

    def __post_init__(self):
        check_at_least("warmup_updates", self.warmup_updates, 1)
        if not self.peak_lr > 0:
            raise ValueError(f"peak_lr must be positive, got {self.peak_lr}")
        for name, low in (("seed", 0), ("max_updates", 0), ("log_every", 1),
                          ("eval_sequences", 1)):
            check_at_least(name, getattr(self, name), low)
        if self.target_acc is not None and not 0 < self.target_acc <= 1:
            raise ValueError("target_acc must lie in (0, 1]")


@dataclass
class SyntheticTaskSpec:
    """Symbols drawn uniformly; each becomes `redundancy` noisy frames of
    its code vector.  Vocabulary ids: 0=pad, 1=begin, 2=end, symbols from 3."""

    symbol_count: int = 32
    target_len_min: int = 16
    target_len_max: int = 24
    redundancy: int = 4
    feature_dim: int = 8
    noise: float = 0.1
    codebook_seed: int = 1234

    def __post_init__(self):
        # Every message names the field it rejects: the task-file parser
        # reads it to report the line that set that field.
        check_at_least("symbol_count", self.symbol_count, 2)
        for name in ("redundancy", "feature_dim", "target_len_min"):
            check_at_least(name, getattr(self, name), 1)
        if self.target_len_max < self.target_len_min:
            raise ValueError(f"target_len_max must be >= target_len_min "
                             f"{self.target_len_min}, got {self.target_len_max}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        check_at_least("codebook_seed", self.codebook_seed, 0)

    @property
    def vocab_size(self) -> int:
        return self.symbol_count + SENTINELS

    def codebook(self) -> np.ndarray:
        rng = np.random.default_rng(self.codebook_seed)
        return rng.normal(size=(self.symbol_count, self.feature_dim))

    @classmethod
    def field_types(cls) -> dict[str, type]:
        """Field name -> type of its default, in declaration order."""
        return {f.name: type(f.default) for f in dataclasses.fields(cls)}

    def meta(self) -> list[tuple[str, str]]:
        return [(f"task_{name}", str(getattr(self, name)))
                for name in self.field_types()]

    @classmethod
    def from_meta(cls, meta: dict[str, str]) -> "SyntheticTaskSpec":
        missing = [f"task_{name}" for name in cls.field_types()
                   if f"task_{name}" not in meta]
        if missing:
            raise ValueError(f"checkpoint meta lacks task key(s) {', '.join(missing)}")
        values = {}
        for name, kind in cls.field_types().items():
            try:
                values[name] = kind(meta[f"task_{name}"])
            except ValueError as e:
                raise ValueError(f"checkpoint meta task_{name}: {e}") from None
        return cls(**values)


def inv_sqrt_lr(step: int, cfg: TrainConfig) -> float:
    """peak * min(t/T_w, sqrt(T_w/t)): linear warmup, inverse-sqrt decay,
    both branches equal at t = T_w."""
    check_at_least("schedule step", step, 1)
    warm = cfg.warmup_updates
    return cfg.peak_lr * min(step / warm, math.sqrt(warm / step))


@dataclass
class AdamState:
    m: np.ndarray  # the moments, each shaped like the parameter buffer
    v: np.ndarray
    step: int = 0


def adam_step(params, flat: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place, of `flat`, whose views in
    order are the params' .data; a missing gradient counts as zeros."""
    grads = []
    for p in params:
        g = np.zeros_like(p.tensor.data) if p.tensor.grad is None else p.tensor.grad
        if g.shape != p.tensor.shape:
            raise ValueError(
                f"{p.name}: gradient shape {g.shape} != parameter {p.tensor.shape}")
        grads.append(g.reshape(-1))
    g = np.concatenate(grads)
    state.step += 1
    state.m *= BETA1
    state.m += (1.0 - BETA1) * g
    state.v *= BETA2
    state.v += (1.0 - BETA2) * (g * g)
    m_hat = state.m / (1.0 - BETA1 ** state.step)
    v_hat = state.v / (1.0 - BETA2 ** state.step)
    flat -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def gen_synthetic_batch(spec: SyntheticTaskSpec, batch: int,
                        rng: np.random.Generator) -> Seq2SeqBatch:
    """Sample target symbol sequences and render their source frames."""
    codes = spec.codebook()
    lengths = rng.integers(spec.target_len_min, spec.target_len_max + 1,
                           size=batch)
    u_max = int(lengths.max()) + 2
    t_max = int(lengths.max()) * spec.redundancy
    targets = np.full((batch, u_max), PAD, dtype=np.int64)
    tmask = np.zeros((batch, u_max), dtype=bool)
    source = np.zeros((batch, t_max, spec.feature_dim))
    smask = np.zeros((batch, t_max), dtype=bool)
    for b, n in enumerate(lengths):
        syms = rng.integers(0, spec.symbol_count, size=n)
        targets[b, 0] = BOS
        targets[b, 1:n + 1] = syms + SENTINELS
        targets[b, n + 1] = EOS
        tmask[b, :n + 2] = True
        frames = np.repeat(codes[syms], spec.redundancy, axis=0)
        if spec.noise > 0:
            frames = frames + spec.noise * rng.normal(size=frames.shape)
        source[b, :n * spec.redundancy] = frames
        smask[b, :n * spec.redundancy] = True
    return Seq2SeqBatch(
        source_features=Tensor(source.astype(default_dtype())),
        source_mask=smask, target_tokens=targets, target_mask=tmask)


def batch_size_for(cfg: TrainConfig, spec: SyntheticTaskSpec) -> int:
    """Sequences per update so that its target tokens number roughly
    batch_tokens (sentinels included)."""
    avg = (spec.target_len_min + spec.target_len_max) / 2 + 2
    return max(1, round(cfg.batch_tokens / avg))


def evaluate(config: ModelConfig, weights: ModelWeights,
             batch: Seq2SeqBatch) -> tuple[float, float]:
    """Held-out teacher-forced loss and token accuracy from one pass, in
    inference mode (dropout off, no graph)."""
    config = dataclasses.replace(config, dropout=0.0)
    with no_grad():
        logits, labels, label_mask = teacher_forced_logits(batch, config, weights)
        loss = label_smoothed_loss(logits, labels, label_mask, SMOOTHING)
    return float(loss.data), token_accuracy(logits.data, labels, label_mask)


@dataclass
class TrainResult:
    metrics_path: str
    checkpoint_paths: list[str]
    final_loss: float
    final_accuracy: float
    steps: int


def train(config: ModelConfig, cfg: TrainConfig, spec: SyntheticTaskSpec,
          out_dir, init_from=None) -> TrainResult:
    """Run the loop: log/evaluate/checkpoint every log_every updates plus
    once at step 0, abort on divergence.  Deterministic for a fixed seed
    (single thread, fixed precision)."""
    if config.vocab_size != spec.vocab_size:
        raise ValueError(
            f"model vocab {config.vocab_size} != task vocab {spec.vocab_size}")
    if config.input_feature_dim != spec.feature_dim:
        raise ValueError(
            f"model feature dim {config.input_feature_dim} != task {spec.feature_dim}")
    os.makedirs(out_dir, exist_ok=True)
    weights = init_model_weights(config, cfg.seed)
    if init_from is not None:
        load_into(init_from, config, weights)
    params = named_parameters(weights)

    root = np.random.SeedSequence(cfg.seed)
    data_ss, eval_ss, drop_ss = root.spawn(3)
    data_rng = np.random.default_rng(data_ss)
    drop_rng = np.random.default_rng(drop_ss)
    held_out = gen_synthetic_batch(spec, cfg.eval_sequences,
                                   np.random.default_rng(eval_ss))

    b_size = batch_size_for(cfg, spec)
    state = AdamState(np.zeros_like(weights.flat), np.zeros_like(weights.flat))
    meta = spec.meta() + [("train_seed", str(cfg.seed))]

    metrics_path = os.path.join(out_dir, "metrics.csv")
    ckpt_paths: list[str] = []

    def snapshot(step: int) -> tuple[float, float]:
        loss, acc = evaluate(config, weights, held_out)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"non-finite held-out loss at update {step}")
        path = os.path.join(out_dir, CKPT_PATTERN.format(step=step))
        save_checkpoint(path, config, weights, meta)
        ckpt_paths.append(path)
        with open(metrics_path, "a", newline="") as fh:
            csv.writer(fh).writerow(
                [step, f"{loss:.6f}", f"{inv_sqrt_lr(max(step, 1), cfg):.8g}",
                 f"{acc:.6f}"])
        return loss, acc

    def reached(acc: float) -> bool:
        return cfg.target_acc is not None and acc >= cfg.target_acc

    with open(metrics_path, "w", newline="") as fh:
        csv.writer(fh).writerow(METRICS_HEADER)
    loss_v, acc_v = snapshot(0)

    done = 0
    for step in range(1, cfg.max_updates + 1):
        if reached(acc_v):
            break
        lr = inv_sqrt_lr(step, cfg)
        zero_grad(params)
        batch = gen_synthetic_batch(spec, b_size, data_rng)
        loss = forward_loss(batch, config, weights, rng=drop_rng)
        if not np.isfinite(loss.data):
            raise TrainingDiverged(f"non-finite loss at update {step} (lr {lr:.3g})")
        loss.backward()
        adam_step(params, weights.flat, state, lr)
        if not np.isfinite(weights.flat).all():
            # each parameter's .data is its view of flat, in flat order
            bad = next(p for p in params if not np.isfinite(p.tensor.data).all())
            raise TrainingDiverged(
                f"non-finite parameter {bad.name} after update {step} (lr {lr:.3g})")
        done = step
        if step % cfg.log_every == 0 or step == cfg.max_updates:
            loss_v, acc_v = snapshot(step)

    return TrainResult(metrics_path=metrics_path, checkpoint_paths=ckpt_paths,
                       final_loss=loss_v, final_accuracy=acc_v,
                       steps=done)


# -- checkpoint averaging ----------------------------------------------------


def average_checkpoints(paths, out_path) -> None:
    """Elementwise mean of checkpoints that match the first one's hash and
    parameter shapes, accumulated in 64-bit over the paths in sorted order
    (so invariant to input order) and truncated once by save_arrays."""
    if not paths:
        raise ValueError("no checkpoints to average")
    ordered = sorted(str(p) for p in paths)
    first = load_checkpoint(ordered[0])
    totals = {name: arr.astype(np.float64) for name, arr in first.arrays.items()}
    shapes = {name: arr.shape for name, arr in totals.items()}
    for path in ordered[1:]:
        for name, arr in load_matching(path, first.arch_hash, shapes).arrays.items():
            totals[name] += arr
    averaged = {name: total / len(ordered) for name, total in totals.items()}
    meta = [kv for kv in first.meta if not kv[0].startswith("sources")]
    meta.append(("sources", ",".join(os.path.basename(p) for p in ordered)))
    save_arrays(out_path, first.arch_hash, averaged, meta)


def select_around_best(steps: list[int], losses: list[float]) -> list[int]:
    """Steps of the lowest-loss entry and its AVERAGE_RADIUS neighbors
    each side, truncated at the ends of the series."""
    if len(steps) != len(losses) or not steps:
        raise ValueError("need matching, nonempty steps and losses")
    order = np.argsort(steps)
    steps_sorted = [steps[i] for i in order]
    losses_sorted = [losses[i] for i in order]
    best = min(range(len(losses_sorted)), key=lambda i: losses_sorted[i])
    lo = max(0, best - AVERAGE_RADIUS)
    hi = min(len(steps_sorted), best + AVERAGE_RADIUS + 1)
    return steps_sorted[lo:hi]


def read_metrics(path) -> tuple[list[int], list[float]]:
    """Steps and held-out losses from a metrics CSV."""
    steps: list[int] = []
    losses: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != METRICS_HEADER:
            raise ValueError(f"{path}: unexpected metrics header {header}")
        for row in reader:
            try:
                if len(row) != len(METRICS_HEADER):
                    raise ValueError(f"expected {len(METRICS_HEADER)} fields")
                steps.append(int(row[0]))
                losses.append(float(row[1]))
                if not math.isfinite(losses[-1]):
                    raise ValueError("loss is not finite")
            except ValueError as e:
                raise ValueError(
                    f"{path}:{reader.line_num}: bad metrics row {row}: {e}") from None
    return steps, losses
