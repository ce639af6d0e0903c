"""The benchmark's three workloads, each a closed loop over four head mixes.

Every operation goes through the package's public entry points: ``cli.main``
for ``train``, ``avg-ckpt`` and ``analyze``, and ``model.encode`` plus
``Tensor.backward`` for the long encoder passes.  Calls are made through
module attributes so that the traced run's wrappers see them.

A workload has three phases:

* ``prepare()``: repeatable set-up (files, configs, weights, set-up
  training), timed several times for ``setup_s``;
* ``warm()``: one operation per mix, run once and counted into ``setup_s``;
* ``run(mix)``: one timed operation, followed by ``check(mix)``, untimed,
  which raises ``CheckFailed`` when an output is wrong.

All inputs derive from the workload seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os

import numpy as np

import multiformer.checkpoint as checkpoint_mod
import multiformer.cli as cli_mod
import multiformer.config as config_mod
import multiformer.model as model_mod
import multiformer.training as training_mod
from multiformer.attention import OpCounter
from multiformer.tensor import Tensor, zero_grad

# The four head mixes, and the desk-scale preset that has each mix.
MIXES = ("full", "local", "conv", "lc")
TOY_PRESETS = {"full": "baseline", "local": "local_attention",
               "conv": "conv_attention", "lc": "multiformer_lc"}


class CheckFailed(RuntimeError):
    """An operation ran but its output is wrong."""


def derive_seed(seed: int, *labels) -> int:
    words = [seed] + [int.from_bytes(hashlib.sha256(str(x).encode()).digest()[:4], "little")
                      for x in labels]
    return int(np.random.SeedSequence(words).generate_state(1)[0] % (2 ** 31))


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(argv: list[str]) -> None:
    """`mf <argv>` in-process; stdout is swallowed, a non-zero exit raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_mod.main(argv)
    if code != 0:
        raise CheckFailed(f"mf {argv[0]} exited with code {code}")


class _Reference:
    """First value seen per key; later values must equal it."""

    def __init__(self):
        self._seen: dict = {}

    def same(self, key, value, what: str) -> None:
        first = self._seen.setdefault(key, value)
        if first != value:
            raise CheckFailed(f"{what} differs from the first same-seed run")


def _write_toy_files(root: str) -> tuple[str, dict[str, str]]:
    """Default task file plus one desk-scale architecture file per mix,
    parsed back to validate them."""
    spec = training_mod.SyntheticTaskSpec()
    task = os.path.join(root, "toy.task")
    with open(task, "w") as fh:
        fh.write(config_mod.format_task(spec))
    arches = {}
    for mix, preset in TOY_PRESETS.items():
        cfg = config_mod.toy_model_config(preset, vocab_size=spec.vocab_size,
                                          feature_dim=spec.feature_dim)
        arches[mix] = os.path.join(root, f"{preset}.arch")
        with open(arches[mix], "w") as fh:
            fh.write(config_mod.format_architecture(cfg))
        config_mod.parse_architecture(arches[mix])
    config_mod.parse_task(task)
    return task, arches


def _check_metrics_csv(path) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if not rows:
        raise CheckFailed(f"{path}: no metrics rows")
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row[1:]):
            raise CheckFailed(f"{path}: non-finite metrics row {row}")


def _check_checkpoint(path) -> None:
    data = checkpoint_mod.load_checkpoint(path)
    for name, arr in data.arrays.items():
        if not np.isfinite(arr).all():
            raise CheckFailed(f"{path}: parameter {name} is not finite")


class ToyTrain:
    """Repeated `mf train` on the desk-scale preset of each mix with the
    default task: the README example and the acceptance training recipe
    (23 sequences per update, TOY_WARMUP, a snapshot every 100 updates)."""

    name = "toy_train"

    def __init__(self, seed: int, root: str, smoke: bool):
        self.root = root
        self.steps = 2 if smoke else 6
        self.seeds = {mix: derive_seed(seed, "train", mix) for mix in MIXES}
        self.ref = _Reference()
        spec = training_mod.SyntheticTaskSpec()
        self.tokens = {mix: self._replay_tokens(spec, self.seeds[mix]) for mix in MIXES}
        self._prepared = 0

    def _argv(self, mix, steps, out):
        return ["train", "--arch", self.arches[mix], "--task", self.task,
                "--seed", str(self.seeds[mix]), "--steps", str(steps),
                "--out", out, "--log-every", "100"]

    def prepare(self) -> None:
        work = os.path.join(self.root, f"setup{self._prepared}")
        os.makedirs(work)
        self._prepared += 1
        self.task, self.arches = _write_toy_files(work)
        for mix in MIXES:
            out = os.path.join(work, f"warm_{mix}")
            run_cli(self._argv(mix, 1, out))
            self.ref.same(("warm", mix), digest(os.path.join(out, "ckpt_000001.mfck")),
                          f"{mix} set-up checkpoint")

    def _replay_tokens(self, spec, seed: int) -> int:
        """Non-pad target tokens the updates consume, from the same data
        stream `train` draws."""
        cfg = training_mod.TrainConfig(max_updates=self.steps, seed=seed,
                                       warmup_updates=training_mod.TOY_WARMUP)
        data_ss = np.random.SeedSequence(seed).spawn(3)[0]
        rng = np.random.default_rng(data_ss)
        size = training_mod.batch_size_for(cfg, spec)
        total = 0
        for _ in range(self.steps):
            batch = training_mod.gen_synthetic_batch(spec, size, rng)
            total += int(np.asarray(batch.target_mask)[..., 1:].sum())
        return total

    def warm(self) -> None:
        pass

    def run(self, mix: str) -> int:
        run_cli(self._argv(mix, self.steps, os.path.join(self.root, f"op_{mix}")))
        return self.tokens[mix]

    def check(self, mix: str) -> None:
        out = os.path.join(self.root, f"op_{mix}")
        final = os.path.join(out, f"ckpt_{self.steps:06d}.mfck")
        metrics = os.path.join(out, "metrics.csv")
        _check_metrics_csv(metrics)
        _check_checkpoint(final)
        self.ref.same(("ckpt", mix), digest(final), f"{mix} final checkpoint")
        self.ref.same(("metrics", mix), digest(metrics), f"{mix} metrics.csv")


class ToyAnalyze:
    """Repeated `mf avg-ckpt` then `mf analyze --samples 500` over
    checkpoints a short set-up `mf train` wrote: forward only, capture on,
    checkpoint reads, no backward and no Adam."""

    name = "toy_analyze"

    def __init__(self, seed: int, root: str, smoke: bool):
        self.root = root
        self.samples = 20 if smoke else 500
        self.train_steps = 2
        self.seeds = {mix: derive_seed(seed, "train", mix) for mix in MIXES}
        self.analyze_seed = derive_seed(seed, "analyze")
        self.ref = _Reference()
        self._prepared = 0

    def prepare(self) -> None:
        work = os.path.join(self.root, f"setup{self._prepared}")
        os.makedirs(work)
        self._prepared += 1
        self.task, self.arches = _write_toy_files(work)
        self.runs = {}
        for mix in MIXES:
            out = os.path.join(work, f"train_{mix}")
            run_cli(["train", "--arch", self.arches[mix], "--task", self.task,
                     "--seed", str(self.seeds[mix]), "--steps", str(self.train_steps),
                     "--out", out, "--log-every", "1"])
            final = os.path.join(out, f"ckpt_{self.train_steps:06d}.mfck")
            self.ref.same(("setup", mix), digest(final), f"{mix} set-up checkpoint")
            self.runs[mix] = out

    def _paths(self, mix):
        stem = os.path.join(self.root, f"op_{mix}")
        return stem + ".mfck", stem + ".csv", stem + ".svg"

    def warm(self) -> None:
        for mix in MIXES:
            self.run(mix)
            self.check(mix)

    def run(self, mix: str) -> int:
        avg, report_csv, report_svg = self._paths(mix)
        run_dir = self.runs[mix]
        run_cli(["avg-ckpt", "--metrics", os.path.join(run_dir, "metrics.csv"),
                 "--dir", run_dir, "--out", avg])
        run_cli(["analyze", "--ckpt", avg, "--arch", self.arches[mix],
                 "--samples", str(self.samples), "--seed", str(self.analyze_seed),
                 "--csv", report_csv, "--svg", report_svg])
        return self.samples

    def check(self, mix: str) -> None:
        avg, report_csv, _ = self._paths(mix)
        _check_checkpoint(avg)
        with open(report_csv, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        layers: dict[str, float] = {}
        for row in rows:
            median, share = float(row[3]), float(row[4])
            if not (math.isfinite(median) and math.isfinite(share)):
                raise CheckFailed(f"{report_csv}: non-finite row {row}")
            layers[row[0]] = layers.get(row[0], 0.0) + share
        if not layers or any(abs(s - 1.0) > 1e-9 for s in layers.values()):
            raise CheckFailed(f"{report_csv}: layer shares do not sum to 1")
        self.ref.same(("avg", mix), digest(avg), f"{mix} averaged checkpoint")
        self.ref.same(("csv", mix), digest(report_csv), f"{mix} analysis CSV")


# Paper-width layer, one encoder layer per mix.
PAPER_LAYER = {"full": "full full full full",
               "local": "local(64) local(64) local(64) local(64)",
               "conv": "conv(5,2) conv(5,2) conv(5,2) conv(5,2)",
               "lc": "local(64) local(64) conv(5,2) conv(5,2)"}
PAPER_VALID = (4096, 3584, 3072, 2560)


def _subsampled_mask(valid_frames, frames: int) -> np.ndarray:
    """Layer-rate validity: the subsampler's two stride-2 convs keep a
    frame when the input frame at its center, 2*j, is valid."""
    keep = np.arange(frames)[None, :] < np.asarray(valid_frames)[:, None]
    for _ in range(2):
        t = keep.shape[-1]
        keep = keep[:, np.minimum(np.arange(math.ceil(t / 2)) * 2, t - 1)]
    return keep


def count_law(specs, keep: np.ndarray) -> int:
    """Score products the count law gives for one layer over a batch:
    n*n per full head, valid in-band keys per local(w) head, and
    n*ceil(n/chi) per conv(K,chi) head, for each sequence."""
    b, n = keep.shape
    total = 0
    for spec in specs:
        if spec.mechanism == "full":
            total += b * n * n
        elif spec.mechanism == "conv":
            total += b * n * math.ceil(n / spec.stride)
        else:
            half = spec.window // 2
            for row in keep:
                for i in range(n):
                    total += int(row[max(0, i - half):i + half + 1].sum())
    return total


class PaperLong:
    """One paper-width encoder layer per mix (d=256, 4 heads, ffn 2048,
    80 features), forward plus backward of a fixed scalar, over 4 sources
    at the presets' 4096-frame cap padded to 4096/3584/3072/2560 valid
    frames (n=1024 at the layer)."""

    name = "paper_long"

    def __init__(self, seed: int, root: str, smoke: bool):
        self.seed = seed
        if smoke:
            self.frames, self.valid = 256, (256, 224, 192, 160)
            self.scalars = "d_model = 64\nffn_dim = 128\nfeature_dim = 8\n"
            self.layers = {m: s.replace("64", "8") for m, s in PAPER_LAYER.items()}
        else:
            self.frames, self.valid = 4096, PAPER_VALID
            self.scalars = "d_model = 256\nffn_dim = 2048\nfeature_dim = 80\n"
            self.layers = PAPER_LAYER
        self.ref = _Reference()
        self.last = {}
        self.law = {}

    def prepare(self) -> None:
        self.models = {}
        for mix in MIXES:
            text = (self.scalars + "heads = 4\ndecoder_layers = 1\nvocab_size = 35\n"
                    f"encoder_layers = 1\nmax_source_len = {self.frames}\n"
                    f"block 1 : {self.layers[mix]}\n")
            cfg = config_mod.parse_architecture_text(text, source=f"paper_{mix}")
            weights = model_mod.init_model_weights(cfg, derive_seed(self.seed, "init", mix))
            self.models[mix] = (cfg, weights, model_mod.named_parameters(weights))
        cfg = self.models["full"][0]
        rng = np.random.default_rng(derive_seed(self.seed, "inputs"))
        self.mask = np.arange(self.frames)[None, :] < np.asarray(self.valid)[:, None]
        feats = rng.normal(size=(len(self.valid), self.frames, cfg.input_feature_dim))
        self.source = Tensor((feats * self.mask[..., None]).astype(np.float32))
        self.keep = _subsampled_mask(self.valid, self.frames)
        self.layer_frames = int(self.keep.sum())
        self.probe = Tensor(
            rng.normal(size=self.keep.shape + (cfg.d_model,)).astype(np.float32))

    def warm(self) -> None:
        for mix in MIXES:
            self.run(mix)
            self.check(mix)

    def run(self, mix: str) -> int:
        cfg, weights, _ = self.models[mix]
        counter = OpCounter()
        states, _, _ = model_mod.encode(self.source, self.mask, cfg, weights, counter)
        loss = (states * self.probe).sum()
        loss.backward()
        self.last = {"states": states, "loss": loss, "counter": counter}
        return self.layer_frames

    def check(self, mix: str) -> None:
        last, self.last = self.last, {}
        states, loss = last["states"].data, float(last["loss"].data)
        if not (math.isfinite(loss) and np.isfinite(states).all()):
            raise CheckFailed(f"{mix}: non-finite encoder output")
        for p in self.models[mix][2]:
            if p.tensor.grad is not None and not np.isfinite(p.tensor.grad).all():
                raise CheckFailed(f"{mix}: non-finite gradient for {p.name}")
        zero_grad(self.models[mix][2])
        if mix not in self.law:
            self.law[mix] = count_law(self.models[mix][0].encoder_layers[0], self.keep)
        if last["counter"].score_products != self.law[mix]:
            raise CheckFailed(f"{mix}: {last['counter'].score_products} score products, "
                              f"count law gives {self.law[mix]}")
        self.ref.same(mix, hashlib.sha256(states.tobytes()).hexdigest(),
                      f"{mix} encoder output hash")


WORKLOADS = {w.name: w for w in (ToyTrain, PaperLong, ToyAnalyze)}
