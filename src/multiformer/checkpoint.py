"""Bit-exact checkpoint files.

Layout: magic `MFCKPT1\n`, an 8-byte little-endian length, a UTF-8 text
header, then the parameter payload as little-endian float32 in header
order.  The header lists the format version, an architecture hash, free
meta lines, and one line per parameter (name, shape, element count) in
lexicographic name order.  save(load(f)) reproduces f byte for byte.

Values are stored in 32 bits even when the session computes in 64
(truncate on save); every consumer's tolerance accounts for that.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, ModelWeights, named_parameters

MAGIC = b"MFCKPT1\n"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    """Base for checkpoint I/O problems."""


class MagicError(CheckpointError):
    """File does not start with the checkpoint magic."""


class HeaderError(CheckpointError):
    """Header is malformed or inconsistent."""


class HashMismatchError(CheckpointError):
    """Checkpoint belongs to a different architecture."""


class TruncatedPayloadError(CheckpointError):
    """Payload length disagrees with the header's element counts."""


def config_hash(config: ModelConfig) -> str:
    """Stable hash over everything that fixes parameter names and shapes.

    Dropout and length limits are excluded on purpose: they do not change
    the parameter set, and analysis may run with different values.
    """
    parts = [
        f"d={config.d_model}",
        f"heads={config.heads}",
        f"dec={config.decoder_layers}",
        f"ffn={config.ffn_dim}",
        f"vocab={config.vocab_size}",
        f"feat={config.input_feature_dim}",
        "enc=" + "|".join(
            ",".join(s.label() for s in layer) for layer in config.encoder_layers),
    ]
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


@dataclass
class CheckpointData:
    """Parsed checkpoint: float32 arrays keyed by parameter name, in
    stored (lexicographic) order, plus header metadata."""

    arch_hash: str
    arrays: dict[str, np.ndarray]
    meta: list[tuple[str, str]] = field(default_factory=list)

    def meta_dict(self) -> dict[str, str]:
        return dict(self.meta)


def _positive_int(text: str) -> int:
    """A header dimension or count.  ValueError unless it is >= 1: a
    count of -1 would make np.frombuffer read to the end of the file."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not positive")
    return value


def save_arrays(path, arch_hash: str, arrays: dict[str, np.ndarray],
                meta: list[tuple[str, str]] | None = None) -> None:
    """Write a checkpoint from raw arrays (cast to little-endian f32)."""
    names = sorted(arrays)
    lines = [f"version {FORMAT_VERSION}", f"arch {arch_hash}"]
    for key, value in meta or []:
        if " " in key or "\n" in key or "\n" in value:
            raise HeaderError(f"illegal meta entry {key!r}")
        lines.append(f"meta {key} {value}")
    blobs = []
    for name in names:
        if " " in name:
            raise HeaderError(f"parameter name {name!r} contains a space")
        arr = np.ascontiguousarray(arrays[name], dtype="<f4")
        if arr.size == 0:
            raise HeaderError(f"parameter {name!r} is empty; sizes must be >= 1")
        # ascontiguousarray makes a 0-d value 1-d, so a shape is never empty
        lines.append(f"param {name} {'x'.join(map(str, arr.shape))} {arr.size}")
        blobs.append(arr.tobytes())
    header = ("\n".join(lines) + "\n").encode()
    # Write a sibling file, sync it and rename it over path, then sync the
    # directory, so neither a save that dies partway nor a crash after it
    # leaves a truncated checkpoint under the real name; remove the sibling
    # when a save dies.
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_checkpoint(path) -> CheckpointData:
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(MAGIC):
        raise MagicError(f"{path}: not a checkpoint (bad magic)")
    off = len(MAGIC)
    if len(raw) < off + 8:
        raise TruncatedPayloadError(f"{path}: missing header length")
    (hlen,) = struct.unpack_from("<Q", raw, off)
    off += 8
    if len(raw) < off + hlen:
        raise TruncatedPayloadError(f"{path}: header cut short")
    try:
        header = raw[off:off + hlen].decode()
    except UnicodeDecodeError as e:
        raise HeaderError(f"{path}: header is not UTF-8 text") from e
    off += hlen

    arch_hash = None
    version = None
    meta: list[tuple[str, str]] = []
    table: list[tuple[str, tuple[int, ...], int]] = []
    # split on "\n" alone, the separator save_arrays writes: str.splitlines
    # would also break meta values and names at \r, \x0b, \x85, \u2028 and more
    for line in header.removesuffix("\n").split("\n"):
        kind, _, rest = line.partition(" ")
        if kind == "version":
            version = rest
        elif kind == "arch":
            arch_hash = rest
        elif kind == "meta":
            key, _, value = rest.partition(" ")
            meta.append((key, value))
        elif kind == "param":
            fields = rest.rsplit(" ", 2)
            if len(fields) != 3:
                raise HeaderError(f"{path}: bad param line {line!r}")
            name, shape_s, count_s = fields
            try:
                shape = tuple(_positive_int(d) for d in shape_s.split("x"))
            except ValueError as e:
                raise HeaderError(f"{path}: {name}: bad shape field {shape_s!r}, "
                                  "want positive integers joined by 'x'") from e
            try:
                count = _positive_int(count_s)
            except ValueError as e:
                raise HeaderError(f"{path}: {name}: bad count field {count_s!r}, "
                                  "want a positive integer") from e
            if int(np.prod(shape, dtype=np.int64)) != count:
                raise HeaderError(
                    f"{path}: {name} count {count} != product of shape {shape}")
            table.append((name, shape, count))
        else:
            raise HeaderError(f"{path}: unknown header line {line!r}")
    if version != str(FORMAT_VERSION):
        raise HeaderError(f"{path}: unsupported format version {version!r}")
    if arch_hash is None:
        raise HeaderError(f"{path}: missing architecture hash")
    names = [t[0] for t in table]
    if names != sorted(names):
        raise HeaderError(f"{path}: parameter names not in lexicographic order")
    if len(set(names)) != len(names):
        raise HeaderError(f"{path}: duplicate parameter names")

    expected = 4 * sum(t[2] for t in table)
    if len(raw) - off != expected:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(raw) - off} bytes, header promises {expected}")
    arrays: dict[str, np.ndarray] = {}
    for name, shape, count in table:
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=off)
        arrays[name] = arr.reshape(shape).copy()
        off += 4 * count
    return CheckpointData(arch_hash=arch_hash, arrays=arrays, meta=meta)


def save_checkpoint(path, config: ModelConfig, weights: ModelWeights,
                    meta: list[tuple[str, str]] | None = None) -> None:
    arrays = {p.name: p.tensor.data for p in named_parameters(weights)}
    save_arrays(path, config_hash(config), arrays, meta)


def load_into(path, config: ModelConfig, weights: ModelWeights) -> CheckpointData:
    """Load a checkpoint into existing model weights, in place, verifying
    the architecture hash and every shape."""
    data = load_checkpoint(path)
    want = config_hash(config)
    if data.arch_hash != want:
        raise HashMismatchError(
            f"{path}: checkpoint arch {data.arch_hash} != model arch {want}")
    params = named_parameters(weights)
    stored = set(data.arrays)
    ours = {p.name for p in params}
    if stored != ours:
        missing = sorted(ours - stored)[:3]
        extra = sorted(stored - ours)[:3]
        raise HeaderError(
            f"{path}: parameter set mismatch (missing {missing}, extra {extra})")
    for p in params:
        arr = data.arrays[p.name]
        if arr.shape != p.tensor.data.shape:
            raise HeaderError(
                f"{path}: {p.name} has shape {arr.shape}, model wants {p.tensor.data.shape}")
        p.tensor.data[...] = arr
    return data
