"""Architecture files: a plain text format for the block/repeat scheme.

    d_model = 256
    heads = 4
    decoder_layers = 6
    ffn_dim = 2048
    vocab_size = 8000
    feature_dim = 80
    encoder_layers = 12

    block 6 : local(64) conv(5,2) conv(5,2) conv(5,2)
    block 6 : local(64) local(64) conv(5,2) conv(5,2)

Each block line contributes `repeat` identical encoder layers listing one
head spec per head.  The declared encoder_layers total must match the sum
of repeats.  Named presets ship with the package and resolve anywhere a
file path is accepted.  Task files hold `key = value` lines only; both
formats go through one line reader, _read_keys.
"""

from __future__ import annotations

import dataclasses
import os
import re
from importlib import resources

from .mhma import HeadSpec
from .model import ModelConfig, check_at_least
from .training import SyntheticTaskSpec

PRESET_NAMES = ("baseline", "local_attention", "conv_attention",
                "multiformer_lc", "multiformer_v1", "multiformer_v2")

# An architecture file's keys and their types, in the order
# format_architecture writes them.  Each sets the ModelConfig field of its
# name, except two: feature_dim sets input_feature_dim, and encoder_layers
# is the layer count the block lines must sum to.  A key whose field has a
# default may be left out.
_ARCH_KEYS = {"d_model": int, "heads": int, "decoder_layers": int, "ffn_dim": int,
              "vocab_size": int, "feature_dim": int, "encoder_layers": int,
              "dropout": float, "max_source_len": int, "max_target_len": int}
_FIELDS = {key: key for key in _ARCH_KEYS} | {"feature_dim": "input_feature_dim"}
_DEFAULTED = {f.name for f in dataclasses.fields(ModelConfig)
              if f.default is not dataclasses.MISSING}

_SPEC_RE = re.compile(r"^(full|local\((\d+)\)|conv\((\d+),(\d+)\))$")


class ArchitectureError(ValueError):
    """Parse or validation failure, with file/line context."""


def _fail(source: str, lineno: int, message: str):
    raise ArchitectureError(f"{source}:{lineno}: {message}")


def _fail_field(source: str, field_lines: dict[str, int], error: ValueError):
    """Report a ModelConfig or SyntheticTaskSpec error, whose message names
    the rejected field, at the line that set the first field it names
    that the file set."""
    words = re.findall(r"\w+", str(error))
    lineno = next((field_lines[w] for w in words if w in field_lines), 0)
    _fail(source, lineno, str(error))


def _read_keys(text: str, source: str, types: dict[str, type], block=None
               ) -> tuple[dict, dict[str, int]]:
    """The `key = value` lines of a config file, each value converted by
    its key's type in types, and the line that set each key.  `#` starts
    a comment, and blank lines are skipped.  Lines starting with `block`
    go to block(line, lineno, raw) when block is given."""
    values: dict = {}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if block is not None and line.startswith("block"):
            block(line, lineno, raw)
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            _fail(source, lineno, f"unrecognized line {raw.strip()!r}")
        if key not in types:
            _fail(source, lineno, f"unknown key {key!r}")
        if key in values:
            _fail(source, lineno, f"duplicate key {key!r}")
        try:
            values[key] = types[key](value)
        except ValueError:
            _fail(source, lineno, f"bad value for {key}: {value!r}")
        key_lines[key] = lineno
    return values, key_lines


def parse_head_spec(token: str, source: str = "<spec>", lineno: int = 0) -> HeadSpec:
    m = _SPEC_RE.match(token)
    if not m:
        _fail(source, lineno,
              f"unknown head spec {token!r} (expected full, local(w), or conv(k,s))")
    try:
        if token == "full":
            return HeadSpec("full")
        if m.group(2) is not None:
            return HeadSpec("local", window=int(m.group(2)))
        return HeadSpec("conv", kernel=int(m.group(3)), stride=int(m.group(4)))
    except ValueError as e:
        _fail(source, lineno, str(e))


def parse_architecture_text(text: str, source: str = "<text>") -> ModelConfig:
    blocks: list[tuple[int, list[HeadSpec], int]] = []

    def block(line: str, lineno: int, raw: str) -> None:
        head, _, specs_part = line.partition(":")
        fields = head.split()
        if len(fields) != 2 or not specs_part.strip():
            _fail(source, lineno, f"malformed block line {raw.strip()!r}")
        try:
            repeat = int(fields[1])
        except ValueError:
            _fail(source, lineno, f"block repeat must be an integer, got {fields[1]!r}")
        try:
            check_at_least("block repeat", repeat, 1)
        except ValueError as e:
            _fail(source, lineno, str(e))
        specs = [parse_head_spec(tok, source, lineno) for tok in specs_part.split()]
        blocks.append((repeat, specs, lineno))

    values, key_lines = _read_keys(text, source, _ARCH_KEYS, block)
    for key in _ARCH_KEYS:
        if key not in values and _FIELDS[key] not in _DEFAULTED:
            _fail(source, 0, f"missing required key {key!r}")
    if not blocks:
        _fail(source, 0, "no block lines")

    heads = values["heads"]
    declared = values.pop("encoder_layers")
    layers: list[list[HeadSpec]] = []
    for repeat, specs, lineno in blocks:
        if len(specs) != heads:
            _fail(source, lineno,
                  f"block lists {len(specs)} head specs, architecture has {heads} heads")
        layers.extend([list(specs) for _ in range(repeat)])
    if len(layers) != declared:
        _fail(source, blocks[-1][2],
              f"blocks sum to {len(layers)} layers, encoder_layers declares {declared}")

    try:
        return ModelConfig(encoder_layers=layers,
                           **{_FIELDS[key]: value for key, value in values.items()})
    except ValueError as e:
        _fail_field(source, {_FIELDS[key]: n for key, n in key_lines.items()}, e)


def preset_path(name: str):
    return resources.files("multiformer").joinpath("presets", f"{name}.arch")


def parse_architecture(path_or_preset) -> ModelConfig:
    """Parse an architecture file; a bare preset name resolves to the
    bundled copy."""
    name = str(path_or_preset)
    if os.path.exists(name):
        with open(name) as fh:
            return parse_architecture_text(fh.read(), source=name)
    if name in PRESET_NAMES:
        text = preset_path(name).read_text()
        return parse_architecture_text(text, source=f"preset:{name}")
    raise ArchitectureError(
        f"{name!r} is neither a file nor a preset (presets: {', '.join(PRESET_NAMES)})")


def format_architecture(config: ModelConfig) -> str:
    """Serialize a config back to the text format (blocks merged by
    consecutive identical layers)."""
    lines = []
    for key in _ARCH_KEYS:
        value = getattr(config, _FIELDS[key])
        if key == "encoder_layers":
            value = len(value)
        if key != "dropout" or value:  # no line for no dropout
            lines.append(f"{key} = {value}")
    lines.append("")
    runs: list[tuple[list[str], int]] = []
    for layer in config.encoder_layers:
        labels = [s.label() for s in layer]
        if runs and runs[-1][0] == labels:
            runs[-1] = (labels, runs[-1][1] + 1)
        else:
            runs.append((labels, 1))
    for labels, repeat in runs:
        lines.append(f"block {repeat} : {' '.join(labels)}")
    return "\n".join(lines) + "\n"


_TASK_KEYS = SyntheticTaskSpec.field_types()


def parse_task_text(text: str, source: str = "<text>"):
    """Task files are `key = value` lines for SyntheticTaskSpec fields;
    omitted keys keep their defaults."""
    values, key_lines = _read_keys(text, source, _TASK_KEYS)
    try:
        return SyntheticTaskSpec(**values)
    except ValueError as e:
        _fail_field(source, key_lines, e)


def parse_task(path):
    with open(path) as fh:
        return parse_task_text(fh.read(), source=str(path))


def format_task(spec) -> str:
    lines = [f"{key} = {getattr(spec, key)}" for key in sorted(_TASK_KEYS)]
    return "\n".join(lines) + "\n"


# -- toy-scale variants of the shipped presets --------------------------------

TOY_WINDOW = 8
TOY_KERNEL = 1


def toy_model_config(preset: str, vocab_size: int, feature_dim: int) -> ModelConfig:
    """Desk-scale variant of a bundled preset: d=64, 4 heads, 2 decoder
    layers, and every third of the preset's encoder layers, so the toy
    keeps the preset's mechanism mix in four layers.

    Resolution hyperparameters shrink with the dimensions: the local
    window comes down to TOY_WINDOW and the compression kernel to
    TOY_KERNEL.  The stride stays; it sets the compression factor that
    defines conv heads.  At desk-scale sequence lengths a wide
    compression kernel blends most of the sequence into every key, which
    stalls training when a layer has no uncompressed head to anchor it.
    """
    if preset not in PRESET_NAMES:
        raise ArchitectureError(f"unknown toy preset {preset!r}")
    full = parse_architecture_text(preset_path(preset).read_text(),
                                   source=f"preset:{preset}")
    shrink = {"full": {}, "local": {"window": TOY_WINDOW},
              "conv": {"kernel": TOY_KERNEL}}
    layers = [[dataclasses.replace(s, **shrink[s.mechanism]) for s in layer]
              for layer in full.encoder_layers[::3]]
    return ModelConfig(d_model=64, heads=4, encoder_layers=layers,
                       decoder_layers=2, ffn_dim=128, vocab_size=vocab_size,
                       input_feature_dim=feature_dim, max_source_len=512,
                       max_target_len=128)
