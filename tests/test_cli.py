"""End-to-end CLI tests, run in process through main(argv).

Exit code contract: 0 success, 1 validation/parse, 2 numerical failure,
3 I/O error.
"""

import dataclasses
import os
import re
import subprocess
import sys

import pytest

import multiformer
import multiformer.cli as cli
import multiformer.verify as verify
from multiformer.checkpoint import load_checkpoint, save_arrays
from multiformer.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from multiformer.config import format_architecture, format_task, toy_model_config
from multiformer.training import SyntheticTaskSpec

ARCH = """
d_model = 16
heads = 2
decoder_layers = 1
ffn_dim = 16
vocab_size = 8
feature_dim = 4
encoder_layers = 2

block 1 : full local(4)
block 1 : conv(3,2) conv(3,2)
"""

TASK = """
symbol_count = 5
target_len_min = 3
target_len_max = 5
redundancy = 2
feature_dim = 4
noise = 0.05
codebook_seed = 1234
"""


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "m.arch").write_text(ARCH)
    (tmp_path / "t.task").write_text(TASK)
    return tmp_path


def do_train(ws, out="run", steps=6, extra=()):
    return main(["train", "--arch", str(ws / "m.arch"),
                 "--task", str(ws / "t.task"), "--seed", "0",
                 "--steps", str(steps), "--out", str(ws / out),
                 "--log-every", "3", *extra])


class TestTrain:
    def test_happy_path(self, ws, capsys):
        assert do_train(ws) == EXIT_OK
        out = capsys.readouterr().out
        assert "trained 6 updates" in out
        assert (ws / "run" / "metrics.csv").exists()
        assert (ws / "run" / "ckpt_000006.mfck").exists()

    def test_warm_start(self, ws, capsys):
        assert do_train(ws) == EXIT_OK
        code = do_train(ws, out="warm", steps=3,
                        extra=("--init-from", str(ws / "run" / "ckpt_000006.mfck")))
        assert code == EXIT_OK

    def test_bad_arch_file(self, ws, capsys):
        (ws / "bad.arch").write_text(ARCH.replace("heads = 2", "heads = banana"))
        code = main(["train", "--arch", str(ws / "bad.arch"),
                     "--task", str(ws / "t.task"), "--seed", "0",
                     "--steps", "1", "--out", str(ws / "o")])
        assert code == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_vocab_mismatch_is_validation(self, ws, capsys):
        (ws / "t2.task").write_text(TASK.replace("symbol_count = 5",
                                                 "symbol_count = 9"))
        code = main(["train", "--arch", str(ws / "m.arch"),
                     "--task", str(ws / "t2.task"), "--seed", "0",
                     "--steps", "1", "--out", str(ws / "o")])
        assert code == EXIT_VALIDATION

    def test_out_of_range_dropout_is_validation(self, ws, capsys):
        (ws / "drop.arch").write_text(ARCH + "dropout = 1.0\n")
        code = main(["train", "--arch", str(ws / "drop.arch"),
                     "--task", str(ws / "t.task"), "--seed", "0",
                     "--steps", "1", "--out", str(ws / "o")])
        assert code == EXIT_VALIDATION
        assert "drop.arch" in capsys.readouterr().err
        assert not (ws / "o").exists()

    @pytest.mark.parametrize("line", ["noise = -1", "noise = nan", "feature_dim = 0",
                                      "codebook_seed = -1"])
    def test_bad_task_value_is_validation(self, ws, capsys, line):
        key = line.split()[0]
        (ws / "bad.task").write_text(re.sub(rf"^{key} = .*$", line, TASK, flags=re.M))
        code = main(["train", "--arch", str(ws / "m.arch"),
                     "--task", str(ws / "bad.task"), "--seed", "0",
                     "--steps", "1", "--out", str(ws / "o")])
        assert code == EXIT_VALIDATION
        lineno = [row.split(" =")[0] for row in TASK.splitlines()].index(key) + 1
        assert f"bad.task:{lineno}: {key} must be" in capsys.readouterr().err
        assert not (ws / "o").exists()

    @pytest.mark.parametrize("flags,message", [
        (("--steps", "-2"), "max_updates must be >= 0, got -2"),
        (("--steps", "1", "--log-every", "0"), "log_every must be >= 1, got 0"),
        (("--steps", "1", "--seed", "-1"), "seed must be >= 0, got -1"),
    ])
    def test_bad_step_count_names_its_field(self, ws, capsys, flags, message):
        code = main(["train", "--arch", str(ws / "m.arch"),
                     "--task", str(ws / "t.task"), "--seed", "0",
                     "--out", str(ws / "o"), *flags])
        assert code == EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err

    def test_missing_task_file_is_io(self, ws, capsys):
        code = main(["train", "--arch", str(ws / "m.arch"),
                     "--task", str(ws / "absent.task"), "--seed", "0",
                     "--steps", "1", "--out", str(ws / "o")])
        assert code == EXIT_IO


# Prints one line per encoder block given as an argument: the sha256 of a
# paper-width layer's encoder output and every parameter gradient.
PAPER_LAYER_DIGEST = """
import hashlib, sys
import numpy as np
from multiformer.config import parse_architecture_text
from multiformer.model import encode, init_model_weights, named_parameters
from multiformer.tensor import Tensor

for block in sys.argv[1:]:
    cfg = parse_architecture_text(
        "d_model = 256\\nffn_dim = 2048\\nfeature_dim = 80\\nheads = 4\\n"
        "decoder_layers = 1\\nvocab_size = 35\\nencoder_layers = 1\\n"
        f"max_source_len = 4096\\nblock 1 : {block}\\n")
    w = init_model_weights(cfg, seed=5)
    rng = np.random.default_rng(5)
    mask = np.arange(4096) < np.array([[4096], [3584], [3072], [2560]])
    source = Tensor(rng.normal(size=(4, 4096, 80)) * mask[..., None])
    states, _, _ = encode(source, mask, cfg, w)
    (states * Tensor(rng.normal(size=states.shape))).sum().backward()
    digest = hashlib.sha256(states.data.tobytes())
    for p in named_parameters(w):
        if p.tensor.grad is not None:
            digest.update(p.name.encode() + p.tensor.grad.tobytes())
    print(block, digest.hexdigest())
"""


class TestDeterminism:
    def test_two_processes_write_the_same_bytes(self, tmp_path):
        """Same seed, same bytes across processes at one BLAS thread: two
        `mf train` runs of the toy multiformer_lc preset with dropout 0.1
        write byte-identical checkpoints and metrics.csv.  (Across BLAS
        thread counts the weight gradients of the subsampler convs and
        the encoder FFNs differ at this size.)"""
        spec = SyntheticTaskSpec()
        config = dataclasses.replace(
            toy_model_config("multiformer_lc", spec.vocab_size, spec.feature_dim),
            dropout=0.1)
        (tmp_path / "toy.arch").write_text(format_architecture(config))
        (tmp_path / "toy.task").write_text(format_task(spec))
        src = os.path.dirname(os.path.dirname(multiformer.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for run in ("a", "b"):
            subprocess.run(
                [sys.executable, "-m", "multiformer.cli", "train",
                 "--arch", str(tmp_path / "toy.arch"), "--task", str(tmp_path / "toy.task"),
                 "--seed", "4", "--steps", "4", "--log-every", "2",
                 "--out", str(tmp_path / run)],
                env=env, check=True, capture_output=True, timeout=600)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["ckpt_000000.mfck", "ckpt_000002.mfck", "ckpt_000004.mfck",
                         "metrics.csv"]
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    def test_paper_width_layer_is_the_same_at_one_and_two_blas_threads(self):
        """A paper-width encoder layer (d=256, ffn 2048, four padded
        sources of up to 4096 frames) gives the same output and parameter
        gradient bytes at 1 and 2 OpenBLAS threads, for the full and lc
        mixes.  Its FFN weight gradients are one GEMM over the packed
        rows of the whole batch."""
        src = os.path.dirname(os.path.dirname(multiformer.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run(
                [sys.executable, "-c", PAPER_LAYER_DIGEST, "full full full full",
                 "local(64) local(64) conv(5,2) conv(5,2)"],
                env=env, check=True, capture_output=True, text=True, timeout=600)
            digests.append(run.stdout.splitlines())
        assert len(digests[0]) == 2 and digests[0] == digests[1]


class TestAnalyze:
    def test_report_from_trained_checkpoint(self, ws, capsys):
        do_train(ws)
        capsys.readouterr()
        code = main(["analyze", "--ckpt", str(ws / "run" / "ckpt_000006.mfck"),
                     "--arch", str(ws / "m.arch"), "--samples", "5",
                     "--seed", "1", "--csv", str(ws / "r.csv"),
                     "--svg", str(ws / "r.svg")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "layer  0" in out and "entropy=" in out
        assert (ws / "r.csv").exists() and (ws / "r.svg").exists()
        header = (ws / "r.csv").read_text().splitlines()[0]
        assert header.startswith("layer,head,mechanism")

    def test_negative_seed_names_its_field(self, ws, capsys):
        do_train(ws)
        capsys.readouterr()
        code = main(["analyze", "--ckpt", str(ws / "run" / "ckpt_000006.mfck"),
                     "--arch", str(ws / "m.arch"), "--samples", "2",
                     "--seed", "-2", "--csv", str(ws / "r.csv"),
                     "--svg", str(ws / "r.svg")])
        assert code == EXIT_VALIDATION
        assert "error: seed must be >= 0, got -2" in capsys.readouterr().err
        assert not (ws / "r.csv").exists()

    def test_zero_samples_names_its_field(self, ws, capsys):
        do_train(ws)
        capsys.readouterr()
        code = main(["analyze", "--ckpt", str(ws / "run" / "ckpt_000006.mfck"),
                     "--arch", str(ws / "m.arch"), "--samples", "0",
                     "--seed", "1", "--csv", str(ws / "r.csv"),
                     "--svg", str(ws / "r.svg")])
        assert code == EXIT_VALIDATION
        assert "error: samples must be >= 1, got 0" in capsys.readouterr().err
        assert not (ws / "r.csv").exists()

    def test_arch_mismatch_is_validation(self, ws, capsys):
        do_train(ws)
        other = ARCH.replace("ffn_dim = 16", "ffn_dim = 32")
        (ws / "other.arch").write_text(other)
        code = main(["analyze", "--ckpt", str(ws / "run" / "ckpt_000006.mfck"),
                     "--arch", str(ws / "other.arch"), "--samples", "2",
                     "--seed", "1", "--csv", str(ws / "r.csv"),
                     "--svg", str(ws / "r.svg")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("dropped", [
        pytest.param(["task_noise"], id="task_noise"),
        pytest.param(["task_symbol_count"], id="task_symbol_count"),
        pytest.param([k for k, _ in SyntheticTaskSpec().meta()], id="every_task_key"),
    ])
    def test_checkpoint_missing_a_task_key_is_validation(self, ws, capsys, dropped):
        """The trained task is rebuilt from the checkpoint's task keys
        alone: a missing one is named, never guessed from the model."""
        do_train(ws)
        data = load_checkpoint(ws / "run" / "ckpt_000006.mfck")
        meta = [(k, v) for k, v in data.meta if k not in dropped]
        save_arrays(ws / "cut.mfck", data.arch_hash, data.arrays, meta)
        capsys.readouterr()
        code = main(["analyze", "--ckpt", str(ws / "cut.mfck"),
                     "--arch", str(ws / "m.arch"), "--samples", "2",
                     "--seed", "1", "--csv", str(ws / "r.csv"),
                     "--svg", str(ws / "r.svg")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert all(key in err for key in dropped), err
        assert not (ws / "r.csv").exists()

    def test_missing_checkpoint_is_io(self, ws, capsys):
        code = main(["analyze", "--ckpt", str(ws / "absent.mfck"),
                     "--arch", str(ws / "m.arch"), "--samples", "2",
                     "--seed", "1", "--csv", str(ws / "r.csv"),
                     "--svg", str(ws / "r.svg")])
        assert code == EXIT_IO

    def test_unwritable_report_dir_is_io(self, ws, capsys):
        do_train(ws)
        code = main(["analyze", "--ckpt", str(ws / "run" / "ckpt_000006.mfck"),
                     "--arch", str(ws / "m.arch"), "--samples", "2",
                     "--seed", "1", "--csv", str(ws / "nope" / "r.csv"),
                     "--svg", str(ws / "r.svg")])
        assert code == EXIT_IO


class TestAvgCkpt:
    def test_averages_window_around_best(self, ws, capsys):
        do_train(ws)
        capsys.readouterr()
        code = main(["avg-ckpt", "--metrics", str(ws / "run" / "metrics.csv"),
                     "--dir", str(ws / "run"), "--out", str(ws / "avg.mfck")])
        assert code == EXIT_OK
        assert "averaged steps" in capsys.readouterr().out
        data = load_checkpoint(ws / "avg.mfck")
        assert "sources" in data.meta_dict()

    def test_missing_member_is_io(self, ws, capsys):
        do_train(ws)
        (ws / "run" / "ckpt_000003.mfck").unlink()
        code = main(["avg-ckpt", "--metrics", str(ws / "run" / "metrics.csv"),
                     "--dir", str(ws / "run"), "--out", str(ws / "avg.mfck")])
        assert code == EXIT_IO

    def test_bad_metrics_is_validation(self, ws, capsys):
        (ws / "bad.csv").write_text("wrong,header\n1,2\n")
        code = main(["avg-ckpt", "--metrics", str(ws / "bad.csv"),
                     "--dir", str(ws), "--out", str(ws / "avg.mfck")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("row", ["", "3,1.5", "3,x,1e-05,0.1"],
                             ids=["blank", "two-fields", "non-numeric"])
    def test_malformed_metrics_row_is_validation(self, ws, capsys, row):
        (ws / "bad.csv").write_text(
            f"step,loss,lr,token_acc\n0,2.0,1e-05,0.1\n{row}\n")
        code = main(["avg-ckpt", "--metrics", str(ws / "bad.csv"),
                     "--dir", str(ws), "--out", str(ws / "avg.mfck")])
        assert code == EXIT_VALIDATION
        assert "bad.csv:3" in capsys.readouterr().err

    def test_non_finite_loss_is_validation(self, ws, capsys):
        """A NaN loss would otherwise be picked as the best step."""
        rows = "".join(f"{step},{loss},1e-05,0.1\n" for step, loss in
                       zip((0, 4, 8, 12), ("nan", 1.0, 0.5, 0.7)))
        (ws / "m.csv").write_text("step,loss,lr,token_acc\n" + rows)
        code = main(["avg-ckpt", "--metrics", str(ws / "m.csv"),
                     "--dir", str(ws), "--out", str(ws / "avg.mfck")])
        assert code == EXIT_VALIDATION
        assert "m.csv:2" in capsys.readouterr().err
        assert not (ws / "avg.mfck").exists()


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        assert main(["verify", "--fast"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_gradcheck_applies_the_tolerance_it_reports(self, monkeypatch):
        monkeypatch.setattr(verify, "GRAD_TOL", 0.0)
        result = verify.run_gradcheck_suite(samples_per_tensor=2, mixes=["lc"])
        assert not result.passed

    def test_failure_maps_to_numerical_exit(self, monkeypatch, capsys):
        class Fake:
            passed = False

            def line(self):
                return "FAIL fake_suite: deviation 1.0"

        monkeypatch.setattr(cli, "run_all", lambda fast: [Fake()])
        assert main(["verify", "--fast"]) == EXIT_NUMERICAL
        assert "FAIL fake_suite" in capsys.readouterr().out


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == EXIT_VALIDATION

    def test_unknown_command(self):
        # `bench` was removed; perfbench/run.py times the model instead
        for argv in (["transmogrify"], ["bench", "--arch", "baseline", "--lens", "16"]):
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == EXIT_VALIDATION

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as e:
            main(["train", "--seed", "0"])
        assert e.value.code == EXIT_VALIDATION

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
        assert "train" in capsys.readouterr().out
