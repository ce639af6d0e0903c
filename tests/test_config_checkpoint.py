"""Architecture/task file parsing, the shipped presets, and the binary
checkpoint format with its error taxonomy."""

import io
import os
import re
import stat
import struct

import numpy as np
import pytest

from multiformer import checkpoint
from multiformer.checkpoint import (MAGIC, CheckpointError, HashMismatchError,
                                    HeaderError, MagicError, TruncatedPayloadError,
                                    config_hash, load_checkpoint, load_into,
                                    save_arrays, save_checkpoint)
from multiformer.config import (PRESET_NAMES, ArchitectureError,
                                format_architecture, format_task,
                                parse_architecture, parse_architecture_text,
                                parse_head_spec, parse_task_text,
                                toy_model_config)
from multiformer.mhma import HeadSpec
from multiformer.model import ModelConfig, init_model_weights, named_parameters
from multiformer.training import SyntheticTaskSpec

GOOD = """
d_model = 8
heads = 2
decoder_layers = 1
ffn_dim = 16
vocab_size = 11
feature_dim = 5
encoder_layers = 3

block 1 : full local(4)
block 2 : conv(3,2) conv(3,2)
"""

L, C = "local(64)", "conv(5,2)"
PRESET_ROWS = {
    "baseline": [["full"] * 4] * 12,
    "local_attention": [[L] * 4] * 12,
    "conv_attention": [[C] * 4] * 12,
    "multiformer_lc": [[L, L, C, C]] * 12,
    "multiformer_v1": [[L, C, C, C]] * 6 + [[L, L, C, C]] * 6,
    "multiformer_v2": ([[L, C, C, C]] * 3 + [[L, L, L, C]] * 5
                       + [[L, L, C, C]] * 4),
}

# Toy rows written out: every third layer of each preset, with local
# windows at 8 and compression kernels at 1.
TL, TC = "local(8)", "conv(1,2)"
TOY_ROWS = {
    "baseline": ["full full full full"] * 4,
    "local_attention": [f"{TL} {TL} {TL} {TL}"] * 4,
    "conv_attention": [f"{TC} {TC} {TC} {TC}"] * 4,
    "multiformer_lc": [f"{TL} {TL} {TC} {TC}"] * 4,
    "multiformer_v1": [f"{TL} {TC} {TC} {TC}"] * 2 + [f"{TL} {TL} {TC} {TC}"] * 2,
    "multiformer_v2": ([f"{TL} {TC} {TC} {TC}"] + [f"{TL} {TL} {TL} {TC}"] * 2
                       + [f"{TL} {TL} {TC} {TC}"]),
}


class TestHeadSpecParsing:
    @pytest.mark.parametrize("token,label", [
        ("full", "full"), ("local(8)", "local(8)"), ("conv(5,2)", "conv(5,2)")])
    def test_round_trip(self, token, label):
        assert parse_head_spec(token).label() == label

    @pytest.mark.parametrize("token", ["band(4)", "local", "conv(5)",
                                       "local(-2)", "conv(2,2)", "local(3)"])
    def test_rejects_bad_tokens(self, token):
        with pytest.raises(ArchitectureError):
            parse_head_spec(token)


class TestArchitectureParsing:
    def test_good_text(self):
        cfg = parse_architecture_text(GOOD)
        assert cfg.d_model == 8 and cfg.heads == 2
        assert [s.label() for s in cfg.encoder_layers[0]] == ["full", "local(4)"]
        assert [s.label() for s in cfg.encoder_layers[2]] == ["conv(3,2)"] * 2
        assert cfg.dropout == 0.0

    def test_comments_and_blanks_ignored(self):
        text = GOOD.replace("block 1", "# note\n\nblock 1")
        assert parse_architecture_text(text) == parse_architecture_text(GOOD)

    def test_format_parse_round_trip(self):
        cfg = parse_architecture_text(GOOD)
        again = parse_architecture_text(format_architecture(cfg))
        assert again == cfg

    def test_blocks_merge_on_format(self):
        text = format_architecture(parse_architecture_text(GOOD))
        assert "block 2 : conv(3,2) conv(3,2)" in text

    @pytest.mark.parametrize("mutate,match", [
        (lambda t: t.replace("heads = 2", "heads = 2\nwidgets = 3"), "unknown key"),
        (lambda t: t.replace("d_model = 8", "d_model = 8\nd_model = 8"), "duplicate"),
        (lambda t: t.replace("ffn_dim = 16", "ffn_dim = much"), "bad value"),
        (lambda t: t.replace("block 1 :", "block :"), "malformed block"),
        (lambda t: t.replace("block 1", "block zero"), "repeat must be an integer"),
        (lambda t: t.replace("block 1", "block 0"), "repeat must be >= 1"),
        (lambda t: t.replace("local(4)", "band(4)"), "unknown head spec"),
        (lambda t: t.replace("full local(4)", "full"), "head specs"),
        (lambda t: t.replace("encoder_layers = 3", "encoder_layers = 5"), "blocks sum"),
        (lambda t: t.replace("vocab_size = 11\n", ""), "missing required"),
        (lambda t: t.replace("block", "lbock"), "unrecognized line"),
    ])
    def test_errors_carry_context(self, mutate, match):
        with pytest.raises(ArchitectureError, match=match):
            parse_architecture_text(mutate(GOOD), source="arch.txt")

    def test_no_blocks(self):
        head = GOOD.split("block")[0]
        with pytest.raises(ArchitectureError, match="no block lines"):
            parse_architecture_text(head.replace("encoder_layers = 3",
                                                 "encoder_layers = 0"))

    def test_error_names_file_and_line(self):
        bad = GOOD.replace("heads = 2", "heads = 2\nwidgets = 3")
        with pytest.raises(ArchitectureError, match=r"arch\.txt:4"):
            parse_architecture_text(bad, source="arch.txt")

    def test_optional_lengths(self):
        text = GOOD + "max_source_len = 64\nmax_target_len = 16\n"
        cfg = parse_architecture_text(text)
        assert cfg.max_source_len == 64 and cfg.max_target_len == 16

    def test_model_validation_becomes_parse_error(self):
        bad = GOOD.replace("d_model = 8", "d_model = 9")
        with pytest.raises(ArchitectureError, match="<text>:2: d_model 9 not divisible"):
            parse_architecture_text(bad)

    @pytest.mark.parametrize("key,value", [
        ("d_model", -8), ("ffn_dim", 0), ("feature_dim", 0),
        ("max_source_len", 0), ("max_target_len", -3), ("decoder_layers", 0)])
    def test_non_positive_size(self, key, value):
        """The error names the line that set the key; feature_dim is
        ModelConfig's input_feature_dim."""
        text = GOOD + "max_source_len = 64\nmax_target_len = 16\n"
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        lineno = text.splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ArchitectureError,
                           match=rf"arch\.txt:{lineno}: \w+ must be >= 1, got {value}"):
            parse_architecture_text(text, source="arch.txt")

    @pytest.mark.parametrize("value", ["-0.5", "1.0", "nan"])
    def test_dropout_outside_unit_interval(self, value):
        text = GOOD + f"dropout = {value}\n"
        lineno = len(text.splitlines())
        with pytest.raises(ArchitectureError,
                           match=rf"arch\.txt:{lineno}: dropout must lie in \[0, 1\)"):
            parse_architecture_text(text, source="arch.txt")


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_scalars(self, name):
        cfg = parse_architecture(name)
        assert (cfg.d_model, cfg.heads, cfg.decoder_layers) == (256, 4, 6)
        assert (cfg.ffn_dim, cfg.vocab_size, cfg.input_feature_dim) == \
            (2048, 8000, 80)
        assert cfg.dropout == 0.1
        assert len(cfg.encoder_layers) == 12

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_layer_structure(self, name):
        cfg = parse_architecture(name)
        rows = [[s.label() for s in layer] for layer in cfg.encoder_layers]
        assert rows == PRESET_ROWS[name]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_format_round_trip(self, name):
        cfg = parse_architecture(name)
        assert parse_architecture_text(format_architecture(cfg)) == cfg

    def test_unknown_name(self):
        with pytest.raises(ArchitectureError, match="neither a file nor"):
            parse_architecture("enormous_attention")

    def test_path_parsing_matches_preset(self, tmp_path):
        text = format_architecture(parse_architecture("multiformer_lc"))
        p = tmp_path / "copy.arch"
        p.write_text(text)
        assert parse_architecture(p) == parse_architecture("multiformer_lc")


class TestToyConfigs:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_toy_preserves_mix_pattern(self, name):
        cfg = toy_model_config(name, vocab_size=35, feature_dim=8)
        assert (cfg.d_model, cfg.heads, cfg.decoder_layers) == (64, 4, 2)
        rows = [" ".join(s.label() for s in layer) for layer in cfg.encoder_layers]
        assert rows == TOY_ROWS[name]

    def test_file_in_cwd_does_not_shadow_preset(self, tmp_path, monkeypatch):
        before = toy_model_config("baseline", vocab_size=35, feature_dim=8)
        (tmp_path / "baseline").write_text(GOOD)
        monkeypatch.chdir(tmp_path)
        assert toy_model_config("baseline", vocab_size=35, feature_dim=8) == before

    def test_unknown_toy_preset(self):
        with pytest.raises(ArchitectureError, match="unknown toy preset"):
            toy_model_config("gigaformer", vocab_size=35, feature_dim=8)


class TestTaskFiles:
    def test_round_trip(self):
        spec = SyntheticTaskSpec(symbol_count=7, noise=0.25)
        assert parse_task_text(format_task(spec)) == spec

    def test_defaults_fill_omitted_keys(self):
        spec = parse_task_text("symbol_count = 9\n")
        assert spec.symbol_count == 9
        assert spec.redundancy == SyntheticTaskSpec().redundancy

    @pytest.mark.parametrize("text,match", [
        ("wibble = 3", "unknown key"),
        ("wibble", "unrecognized line"),
        ("noise = soft", "bad value"),
        ("symbol_count = 4\nsymbol_count = 4", "duplicate"),
        pytest.param("symbol_count = 1",
                     r"^x\.task:1: symbol_count must be >= 2, got 1$",
                     id="symbol_count = 1-two symbols"),
        # spec errors name the line that set the rejected field
        ("symbol_count = 9\nredundancy = 0", r"^x\.task:2: redundancy must be >= 1"),
        ("symbol_count = 9\nnoise = -1", r"^x\.task:2: noise must be"),
        ("symbol_count = 9\nnoise = nan", r"^x\.task:2: noise must be"),
        ("symbol_count = 9\nnoise = inf", r"^x\.task:2: noise must be"),
        ("symbol_count = 9\nfeature_dim = 0", r"^x\.task:2: feature_dim must be"),
        ("symbol_count = 9\ncodebook_seed = -1",
         r"^x\.task:2: codebook_seed must be >= 0, got -1$"),
        # the message names target_len_max first, which the file left unset
        ("symbol_count = 9\ntarget_len_min = 30",
         r"^x\.task:2: target_len_max must be >= target_len_min 30, got 24$"),
        ("target_len_max = 9\ntarget_len_min = 30", r"^x\.task:1: target_len_max"),
    ])
    def test_errors(self, text, match):
        with pytest.raises(ArchitectureError, match=match):
            parse_task_text(text, source="x.task")


def tiny_config() -> ModelConfig:
    return ModelConfig(d_model=8, heads=2,
                       encoder_layers=[[HeadSpec("full"),
                                        HeadSpec("local", window=4)]],
                       decoder_layers=1, ffn_dim=16, vocab_size=11,
                       input_feature_dim=5)


def write_raw(path, header: bytes, payload: bytes):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(payload)


class TestConfigHash:
    def test_stable_and_architecture_sensitive(self):
        a = tiny_config()
        assert config_hash(a) == config_hash(tiny_config())
        import dataclasses
        b = dataclasses.replace(a, ffn_dim=32)
        assert config_hash(a) != config_hash(b)

    def test_ignores_dropout_and_length_limits(self):
        import dataclasses
        a = tiny_config()
        b = dataclasses.replace(a, dropout=0.3, max_source_len=999)
        assert config_hash(a) == config_hash(b)


class TestCheckpointRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"b.w": rng.normal(size=(2, 3)).astype("<f4"),
                  "a.v": rng.normal(size=4).astype("<f4")}
        p1, p2 = tmp_path / "a.mfck", tmp_path / "b.mfck"
        save_arrays(p1, "feed" * 4, arrays, [("note", "hi there")])
        data = load_checkpoint(p1)
        save_arrays(p2, data.arch_hash, data.arrays, data.meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_names_stored_sorted(self, tmp_path):
        arrays = {"z": np.ones(1, dtype="<f4"), "a": np.ones(1, dtype="<f4")}
        save_arrays(tmp_path / "c.mfck", "feed" * 4, arrays)
        data = load_checkpoint(tmp_path / "c.mfck")
        assert list(data.arrays) == ["a", "z"]

    def test_load_into_restores_bit_exact(self, tmp_path):
        cfg = tiny_config()
        w = init_model_weights(cfg, seed=1)
        path = tmp_path / "m.mfck"
        save_checkpoint(path, cfg, w, [("train_seed", "1")])
        before = {p.name: p.tensor.data.copy() for p in named_parameters(w)}
        for p in named_parameters(w):
            p.tensor.data = p.tensor.data + 1.0
        data = load_into(path, cfg, w)
        for p in named_parameters(w):
            np.testing.assert_array_equal(p.tensor.data, before[p.name])
        assert data.meta_dict()["train_seed"] == "1"

    def test_save_syncs_the_file_before_the_rename(self, tmp_path, monkeypatch):
        """The payload reaches the disk before the rename puts it under the
        real name, and the directory is synced after the rename."""
        calls = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            calls.append(("fsync", "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"))
            fsync(fd)

        def record_replace(src, dst):
            calls.append(("replace", os.path.basename(dst)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        save_arrays(tmp_path / "c.mfck", "feed" * 4, {"w": np.ones(3, dtype="<f4")})
        assert calls == [("fsync", "file"), ("replace", "c.mfck"), ("fsync", "dir")]

    def test_failed_save_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        import multiformer.checkpoint as ckpt
        path = tmp_path / "ckpt.mfck"
        save_arrays(path, "feed" * 4, {"w": np.ones(3, dtype="<f4")})
        before = path.read_bytes()

        class DiesAfterHeader:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 4:  # magic, length, header, then payload
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(ckpt, "open",
                            lambda p, mode: DiesAfterHeader(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_arrays(path, "feed" * 4, {"w": np.zeros(3, dtype="<f4")})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not (tmp_path / "ckpt.mfck.tmp").exists()
        assert load_checkpoint(path).arrays["w"].tolist() == [1.0, 1.0, 1.0]

    def test_meta_order_preserved(self, tmp_path):
        meta = [("zeta", "1"), ("alpha", "2"), ("mid", "x y z")]
        save_arrays(tmp_path / "m.mfck", "feed" * 4,
                    {"w": np.ones(1, dtype="<f4")}, meta)
        assert load_checkpoint(tmp_path / "m.mfck").meta == meta

    @pytest.mark.parametrize("meta,match", [
        ([("bad key", "v")], "illegal meta"),
        ([("k", "1"), ("j", "2"), ("k", "3")], "repeated meta key 'k'"),
    ], ids=["space", "repeated-key"])
    def test_meta_key_with_space_rejected(self, tmp_path, meta, match):
        with pytest.raises(HeaderError, match=match):
            save_arrays(tmp_path / "m.mfck", "feed" * 4,
                        {"w": np.ones(1, dtype="<f4")}, meta)
        assert list(tmp_path.iterdir()) == []

    def test_empty_array_rejected(self, tmp_path):
        # load refuses a size below 1, so save must not write one
        with pytest.raises(HeaderError, match="'w' is empty"):
            save_arrays(tmp_path / "x.mfck", "feed" * 4,
                        {"w": np.zeros((0, 3), dtype="<f4")})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                      "\x85", "\u2028", "\u2029"], ids=repr)
    def test_other_line_breaks_round_trip(self, tmp_path, char):
        """str.splitlines breaks at these, but the header's separator is
        only \\n: a meta value or name holding one saves, loads, and saves
        again byte for byte."""
        arrays = {"b": np.zeros(3, dtype="<f4"),
                  f"w{char}x": np.arange(4, dtype="<f4").reshape(2, 2)}
        meta = [("note", f"a{char}b")]
        first, second = tmp_path / "a.mfck", tmp_path / "b.mfck"
        save_arrays(first, "feed" * 4, arrays, meta)
        data = load_checkpoint(first)
        assert data.meta == meta and list(data.arrays) == sorted(arrays)
        save_arrays(second, data.arch_hash, data.arrays, data.meta)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("field", ["name", "arch"])
    def test_newline_in_name_or_arch_hash_rejected(self, tmp_path, field):
        """The header is split on \\n, so either would save a file that
        does not load; nothing is written."""
        name, arch = ("a\nb", "feed" * 4) if field == "name" else ("w", "a\nb")
        with pytest.raises(HeaderError, match="newline"):
            save_arrays(tmp_path / "n.mfck", arch, {name: np.ones(2, dtype="<f4")})
        assert list(tmp_path.iterdir()) == []

    def test_tab_in_name_round_trips(self, tmp_path):
        first, second = tmp_path / "a.mfck", tmp_path / "b.mfck"
        save_arrays(first, "feed" * 4, {"w\tx": np.arange(3, dtype="<f4")})
        data = load_checkpoint(first)
        assert list(data.arrays) == ["w\tx"]
        save_arrays(second, data.arch_hash, data.arrays, data.meta)
        assert second.read_bytes() == first.read_bytes()

    def test_param_name_with_space_rejected(self, tmp_path):
        with pytest.raises(HeaderError, match="space"):
            save_arrays(tmp_path / "m.mfck", "feed" * 4,
                        {"w 0": np.ones(1, dtype="<f4")})


class TestCheckpointErrors:
    def header(self, params="param w 2 2\n", version=1, arch="feed" * 4):
        return (f"version {version}\narch {arch}\n" + params).encode()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.mfck"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(MagicError, match="bad magic"):
            load_checkpoint(p)

    def test_missing_header_length(self, tmp_path):
        p = tmp_path / "x.mfck"
        p.write_bytes(MAGIC + b"\x01\x02")
        with pytest.raises(TruncatedPayloadError, match="header length"):
            load_checkpoint(p)

    def test_header_cut_short(self, tmp_path):
        p = tmp_path / "x.mfck"
        p.write_bytes(MAGIC + struct.pack("<Q", 100) + b"version 1\n")
        with pytest.raises(TruncatedPayloadError, match="cut short"):
            load_checkpoint(p)

    def test_payload_too_short(self, tmp_path):
        p = tmp_path / "x.mfck"
        write_raw(p, self.header(), b"\x00" * 4)  # header promises 8
        with pytest.raises(TruncatedPayloadError, match="payload holds 4"):
            load_checkpoint(p)

    def test_payload_too_long(self, tmp_path):
        p = tmp_path / "x.mfck"
        write_raw(p, self.header(), b"\x00" * 12)
        with pytest.raises(TruncatedPayloadError, match="payload holds 12"):
            load_checkpoint(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "x.mfck"
        write_raw(p, self.header(version=9), b"\x00" * 8)
        with pytest.raises(HeaderError, match="version"):
            load_checkpoint(p)

    def test_missing_arch_line(self, tmp_path):
        p = tmp_path / "x.mfck"
        write_raw(p, b"version 1\nparam w 2 2\n", b"\x00" * 8)
        with pytest.raises(HeaderError, match="missing architecture"):
            load_checkpoint(p)

    def test_unknown_header_line(self, tmp_path):
        p = tmp_path / "x.mfck"
        write_raw(p, self.header() + b"banana split\n", b"\x00" * 8)
        with pytest.raises(HeaderError, match="unknown header line"):
            load_checkpoint(p)

    def test_count_shape_disagreement(self, tmp_path):
        p = tmp_path / "x.mfck"
        write_raw(p, self.header(params="param w 2x2 3\n"), b"\x00" * 12)
        with pytest.raises(HeaderError, match="count 3"):
            load_checkpoint(p)

    @pytest.mark.parametrize("header,match", [
        (b"version 1\narch \xff\xfe\n", "not UTF-8"),
        (b"version 1\narch feedfeed\nparam w 2 two\n", "bad count field"),
        (b"version 1\nversion 1\narch feedfeed\nparam w 2 2\n",
         "repeated header line 'version 1'"),
        (b"version 1\narch feedfeed\narch 0123456789abcdef\nparam w 2 2\n",
         "repeated header line 'arch 0123456789abcdef'"),
        (b"version 1\narch feedfeed\nmeta k 1\nmeta k 2\nparam w 2 2\n",
         "repeated meta key 'k'"),
    ], ids=["not-utf8", "non-integer-count", "repeated-version", "repeated-arch",
            "repeated-meta-key"])
    def test_malformed_header_raises_header_error(self, tmp_path, header, match):
        p = tmp_path / "x.mfck"
        write_raw(p, header, b"\x00" * 8)
        with pytest.raises(HeaderError, match=match):
            load_checkpoint(p)

    def test_huge_dimension_is_a_header_error(self, tmp_path):
        """A dimension past int64 is compared as a Python int, not
        overflowed on the way."""
        p = tmp_path / "x.mfck"
        write_raw(p, self.header(params="param w 99999999999999999999x3 6\n"),
                  b"\x00" * 24)
        with pytest.raises(HeaderError, match="w count 6 != product of shape"):
            load_checkpoint(p)

    def test_damage_raises_only_checkpoint_errors(self, tmp_path, monkeypatch):
        """Every truncation of a small checkpoint raises a CheckpointError,
        and every single-byte change either raises one or loads; no other
        exception escapes the loader.  Changes that load are those to the
        payload and to free header text (the arch hash, a meta value):
        catching them needs a payload digest in the header, format v2 of
        ROADMAP item 4."""
        good = tmp_path / "good.mfck"
        save_arrays(good, "feed" * 4, {"a": np.arange(3, dtype="<f4"),
                                       "b": np.ones((2, 1), "<f4")}, [("k", "v1")])
        raw = good.read_bytes()

        def loads(data: bytes) -> bool:
            # the loader reads data as the file's bytes
            monkeypatch.setattr(checkpoint, "open", lambda *_: io.BytesIO(data),
                                raising=False)
            try:
                load_checkpoint("x.mfck")
            except CheckpointError:
                return False
            return True

        assert not any(loads(raw[:cut]) for cut in range(len(raw)))
        payload = len(raw) - 4 * 5  # the file ends in five float32 values
        for i in range(len(raw)):
            outcomes = [loads(raw[:i] + bytes([b]) + raw[i + 1:])
                        for b in range(256) if b != raw[i]]
            assert i < payload or all(outcomes), f"payload byte {i} changed, not loaded"

    def test_negative_sizes_cannot_read_past_their_array(self, tmp_path):
        """The counts -1 + 2 match a 4-byte payload, but count -1 would
        read the rest of the file into a and leave junk in b."""
        p = tmp_path / "x.mfck"
        write_raw(p, self.header(params="param a -1 -1\nparam b 2 2\n"),
                  b"\x00\x00\x80\x3f")
        with pytest.raises(HeaderError, match="a: bad shape field '-1'"):
            load_checkpoint(p)

    @pytest.mark.parametrize("params,match", [
        ("param w 0 0\n", "w: bad shape field '0'"),
        ("param w 2x0 0\n", "w: bad shape field '2x0'"),
        ("param w 2x-1 -2\n", "w: bad shape field '2x-1'"),
        ("param w 2 -2\n", "w: bad count field '-2'"),
    ], ids=["zero", "zero-dim", "negative-dim", "negative-count"])
    def test_sizes_must_be_positive(self, tmp_path, params, match):
        p = tmp_path / "x.mfck"
        write_raw(p, self.header(params=params), b"")
        with pytest.raises(HeaderError, match=match):
            load_checkpoint(p)

    def test_unsorted_names_rejected(self, tmp_path):
        p = tmp_path / "x.mfck"
        write_raw(p, self.header(params="param z 1 1\nparam a 1 1\n"),
                  b"\x00" * 8)
        with pytest.raises(HeaderError, match="lexicographic"):
            load_checkpoint(p)

    def test_duplicate_names_rejected(self, tmp_path):
        p = tmp_path / "x.mfck"
        write_raw(p, self.header(params="param w 1 1\nparam w 1 1\n"),
                  b"\x00" * 8)
        with pytest.raises(HeaderError, match="duplicate"):
            load_checkpoint(p)

    def test_hash_mismatch_on_load_into(self, tmp_path):
        cfg = tiny_config()
        w = init_model_weights(cfg, seed=0)
        other = ModelConfig(d_model=8, heads=2,
                            encoder_layers=[[HeadSpec("full")] * 2],
                            decoder_layers=1, ffn_dim=16, vocab_size=11,
                            input_feature_dim=5)
        path = tmp_path / "m.mfck"
        save_checkpoint(path, other, init_model_weights(other, seed=0))
        with pytest.raises(HashMismatchError, match="!= expected arch"):
            load_into(path, cfg, w)

    def test_parameter_set_mismatch_on_load_into(self, tmp_path):
        cfg = tiny_config()
        w = init_model_weights(cfg, seed=0)
        path = tmp_path / "m.mfck"
        save_arrays(path, config_hash(cfg), {"bogus": np.ones(1, dtype="<f4")})
        with pytest.raises(HeaderError, match="parameter set mismatch"):
            load_into(path, cfg, w)

    def test_shape_mismatch_on_load_into(self, tmp_path):
        cfg = tiny_config()
        w = init_model_weights(cfg, seed=0)
        arrays = {p.name: p.tensor.data for p in named_parameters(w)}
        name = sorted(arrays)[0]
        arrays[name] = np.ones((1, 1), dtype="<f4")
        path = tmp_path / "m.mfck"
        save_arrays(path, config_hash(cfg), arrays)
        with pytest.raises(HeaderError, match=r"has shape \(1, 1\), expected"):
            load_into(path, cfg, w)
