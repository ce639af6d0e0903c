"""Head-contribution analysis: how much each head's projected output
xi^h contributes to the attention output, per token.

The per-token contribution of head h is c_{i,h} = ||xi_i^h||_2.  Reports
pool c over all valid tokens of many sampled sequences, take the median
per (layer, head) cell, and also derive per-layer normalized shares and
a share-entropy uniformity metric (maximal exactly when a layer's heads
contribute equally).
"""

from __future__ import annotations

import csv
import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import durable_write
from .mhma import AttentionOutput, MHMAWeights, head_outputs
from .model import ModelConfig, ModelWeights, encode
from .training import SyntheticTaskSpec, gen_synthetic_batch

CSV_HEADER = "layer,head,mechanism,median_contribution,normalized_share"

# SVG border color per mechanism; fill intensity carries the share.
MECHANISM_COLORS = {"full": "#7f7f7f", "local": "#e87d0d", "conv": "#8e44ad"}

ANALYSIS_BATCH = 50


@dataclass
class ContributionReport:
    """medians: [L, H]; mechanisms: L x H labels like conv(5,2)."""

    medians: np.ndarray
    mechanisms: list[list[str]]
    sample_count: int
    token_count: int

    def __post_init__(self):
        self.medians = np.asarray(self.medians, dtype=np.float64)
        if self.medians.ndim != 2:
            raise ValueError(f"medians must be L x H, got {self.medians.shape}")
        if (self.medians < 0).any():
            raise ValueError("contribution medians cannot be negative")
        l_count, h_count = self.medians.shape
        if len(self.mechanisms) != l_count or any(
                len(row) != h_count for row in self.mechanisms):
            raise ValueError("mechanism labels do not match the median grid")

    @property
    def shape(self) -> tuple[int, int]:
        return self.medians.shape

    def normalized_shares(self) -> np.ndarray:
        """Per-layer share of each head: cell / row sum."""
        sums = self.medians.sum(axis=1, keepdims=True)
        if (sums == 0).any():
            bad = int(np.argwhere(sums[:, 0] == 0)[0][0])
            raise ValueError(f"layer {bad} has zero total contribution")
        return self.medians / sums

    def layer_entropy(self) -> np.ndarray:
        """Entropy of each layer's share distribution (nats)."""
        shares = self.normalized_shares()
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(shares > 0, shares * np.log(shares), 0.0)
        return -terms.sum(axis=1)


def head_contribution(out: AttentionOutput, weights: MHMAWeights) -> np.ndarray:
    """c_{i,h} = ||xi_i^h||_2 -> array [..., n, H]."""
    norms = [np.linalg.norm(xi, axis=-1) for xi in head_outputs(out, weights)]
    return np.stack(norms, axis=-1)


def aggregate_contributions(config: ModelConfig, weights: ModelWeights,
                            spec: SyntheticTaskSpec, samples: int,
                            seed: int) -> ContributionReport:
    """Median contribution per (layer, head) over all valid encoder
    tokens of `samples` sampled sequences.

    Sequences are processed in fixed-size batches from a seeded stream,
    so the pooled multiset (and hence every median) is reproducible
    bit for bit.  Runs in inference mode (dropout off).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    config = dataclasses.replace(config, dropout=0.0)
    rng = np.random.default_rng(seed)
    # one [tokens, H] contribution array per layer and batch
    pools: list[list[np.ndarray]] = [[] for _ in weights.encoder]
    token_count = 0
    remaining = samples
    while remaining > 0:
        b = min(ANALYSIS_BATCH, remaining)
        remaining -= b
        batch = gen_synthetic_batch(spec, b, rng)
        _, keep, outs = encode(batch.source_features, batch.source_mask,
                               config, weights)
        valid = np.asarray(keep, bool)
        token_count += int(valid.sum())
        for pool, out, layer in zip(pools, outs, weights.encoder):
            pool.append(head_contribution(out, layer.mhma)[valid])
    if token_count == 0:
        raise ValueError("no valid tokens across all samples")
    medians = np.stack([np.median(np.concatenate(pool), axis=0) for pool in pools])
    labels = [[s.label() for s in layer] for layer in config.encoder_layers]
    return ContributionReport(medians=medians, mechanisms=labels,
                              sample_count=samples, token_count=token_count)


def _mechanism_color(label: str) -> str:
    return MECHANISM_COLORS[label.split("(")[0]]


def write_report_csv(report: ContributionReport, path) -> None:
    shares = report.normalized_shares()
    with durable_write(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for li in range(report.shape[0]):
            for h in range(report.shape[1]):
                # repr of the python float: shortest string that round-trips,
                # so a rerun over the same weights emits identical bytes
                writer.writerow([li, h, report.mechanisms[li][h],
                                 repr(float(report.medians[li, h])),
                                 repr(float(shares[li, h]))])


def write_report_svg(report: ContributionReport, path) -> None:
    """Heatmap: one row per layer, one column per head.  Fill opacity is
    the head's normalized share scaled so each layer's largest cell is
    fully saturated; border color marks the mechanism."""
    shares = report.normalized_shares()
    entropy = report.layer_entropy()
    l_count, h_count = report.shape
    cell, pad_l, pad_t = 64, 88, 40
    width = pad_l + h_count * cell + 150
    height = pad_t + l_count * cell + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="12">',
        f'<text x="{pad_l}" y="20">head contribution shares '
        f'({report.sample_count} samples, {report.token_count} tokens)</text>',
    ]
    for h in range(h_count):
        x = pad_l + h * cell + cell // 2
        parts.append(f'<text x="{x}" y="{pad_t - 6}" text-anchor="middle">h{h}</text>')
    for li in range(l_count):
        y = pad_t + li * cell
        parts.append(f'<text x="8" y="{y + cell // 2 + 4}">layer {li}</text>')
        row_max = shares[li].max()
        for h in range(h_count):
            x = pad_l + h * cell
            share = shares[li, h]
            opacity = share / row_max if row_max > 0 else 0.0
            color = _mechanism_color(report.mechanisms[li][h])
            parts.append(
                f'<rect x="{x + 2}" y="{y + 2}" width="{cell - 4}" '
                f'height="{cell - 4}" fill="#1f77b4" fill-opacity="{opacity:.4f}" '
                f'stroke="{color}" stroke-width="3"/>')
            parts.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" '
                f'text-anchor="middle">{share:.3f}</text>')
        parts.append(
            f'<text x="{pad_l + h_count * cell + 10}" y="{y + cell // 2 + 4}">'
            f'entropy {entropy[li]:.4f}</text>')
    legend_y = pad_t + l_count * cell + 14
    legend = "  ".join(f"{name}: {color}" for name, color in MECHANISM_COLORS.items())
    parts.append(f'<text x="{pad_l}" y="{legend_y}">border = mechanism ({legend})</text>')
    parts.append("</svg>")
    with durable_write(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def emit_report(report: ContributionReport, csv_path, svg_path) -> None:
    """Write the CSV and the SVG, or neither when a directory is missing."""
    for target in (csv_path, svg_path):
        parent = os.path.dirname(os.path.abspath(target))
        if not os.path.isdir(parent):
            raise OSError(f"output directory does not exist: {parent}")
    write_report_csv(report, csv_path)
    write_report_svg(report, svg_path)
