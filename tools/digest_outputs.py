"""Print `sha256 path` for every output a change to the numerics could move.

    python3 tools/digest_outputs.py

The first line, `# numpy ...; blas ...; cpu ...`, names what the digests
depend on besides the code: the NumPy version, the BLAS build with the
kernel it chose for this CPU, and the CPU.  Then it runs the package of
the checkout this file lives in, at one BLAS thread:

- each of the six toy presets at dropout 0 and 0.1: `mf train --seed 3
  --steps 4 --log-every 1`, then `mf avg-ckpt`, then `mf analyze
  --samples 30`; every file they write is listed under
  `toy/<preset>/dropout<p>/`;
- one paper-width encoder layer per head mix (full, local, conv, lc), as
  perfbench's paper_long runs it: d=256, 4 heads, 4 sources of 4096
  frames with 4096/3584/3072/2560 valid (n=1024 at the layer), forward
  plus the backward of a fixed probe; listed as `paper/<mix>/states`,
  `paper/<mix>/z` (every head) and `paper/<mix>/gradients` (every
  parameter, in checkpoint order).

Two checkouts whose outputs match print the same lines, so `diff` of the
two listings shows every output a change moved.  tests/output_digests.txt
holds this listing, and tests/test_output_digests.py checks it.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import platform  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from multiformer import cli  # noqa: E402
from multiformer.config import (PRESET_NAMES, format_architecture, format_task,  # noqa: E402
                                parse_architecture_text, toy_model_config)
from multiformer.model import encode, init_model_weights, named_parameters  # noqa: E402
from multiformer.tensor import Tensor  # noqa: E402
from multiformer.training import SyntheticTaskSpec  # noqa: E402

DROPOUTS = (0.0, 0.1)
PAPER_MIXES = {"full": "full full full full",
               "local": "local(64) local(64) local(64) local(64)",
               "conv": "conv(5,2) conv(5,2) conv(5,2) conv(5,2)",
               "lc": "local(64) local(64) conv(5,2) conv(5,2)"}
PAPER_FRAMES, PAPER_VALID = 4096, (4096, 3584, 3072, 2560)


def _openblas_config() -> str | None:
    """OpenBLAS's own config line, which names the kernel it chose at run
    time; None where the loaded BLAS cannot be found or is not OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        so = ctypes.CDLL(lib)
        # NumPy's wheels bundle scipy-openblas; a system OpenBLAS has no prefix
        for name in ("scipy_openblas_get_config64_", "openblas_get_config"):
            fn = getattr(so, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return " ".join(fn().decode().split())
    return None


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return f"{line.split(':', 1)[1].strip()} ({platform.machine()})"
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = f"{blas.get('name')} {blas.get('version')}"
    return f"# numpy {np.__version__}; blas {_openblas_config() or build}; cpu {_cpu()}"


def _mf(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"mf {' '.join(argv)} exited with {code}")


def toy_digests(work: str):
    spec = SyntheticTaskSpec()
    task = os.path.join(work, "toy.task")
    with open(task, "w") as fh:
        fh.write(format_task(spec))
    for preset in PRESET_NAMES:
        config = toy_model_config(preset, vocab_size=spec.vocab_size,
                                  feature_dim=spec.feature_dim)
        for p in DROPOUTS:
            out = os.path.join(work, "toy", preset, f"dropout{p}")
            os.makedirs(out)
            arch = os.path.join(out, "model.arch")
            with open(arch, "w") as fh:
                fh.write(format_architecture(dataclasses.replace(config, dropout=p)))
            _mf("train", "--arch", arch, "--task", task, "--seed", "3", "--steps", "4",
                "--log-every", "1", "--out", out)
            avg = os.path.join(out, "avg.mfck")
            _mf("avg-ckpt", "--metrics", os.path.join(out, "metrics.csv"), "--dir", out,
                "--out", avg)
            _mf("analyze", "--ckpt", avg, "--arch", arch, "--samples", "30", "--seed", "3",
                "--csv", os.path.join(out, "analysis.csv"),
                "--svg", os.path.join(out, "analysis.svg"))
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    yield hashlib.sha256(fh.read()).hexdigest(), os.path.relpath(
                        os.path.join(out, name), work)


def paper_digests():
    rng = np.random.default_rng(0)
    mask = np.arange(PAPER_FRAMES)[None, :] < np.asarray(PAPER_VALID)[:, None]
    source = Tensor((rng.normal(size=mask.shape + (80,)) * mask[..., None]).astype(np.float32))
    probe = None
    for mix, layer in PAPER_MIXES.items():
        config = parse_architecture_text(
            "d_model = 256\nffn_dim = 2048\nfeature_dim = 80\nheads = 4\n"
            "decoder_layers = 1\nvocab_size = 35\nencoder_layers = 1\n"
            f"max_source_len = {PAPER_FRAMES}\nblock 1 : {layer}\n", source=f"paper_{mix}")
        weights = init_model_weights(config, seed=1)
        states, _, outputs = encode(source, mask, config, weights)
        if probe is None:
            probe = Tensor(rng.normal(size=states.shape).astype(np.float32))
        (states * probe).sum().backward()
        z = hashlib.sha256()
        for head in outputs[0].z:
            z.update(head.data.tobytes())
        grads = hashlib.sha256()
        for p in named_parameters(weights):
            grads.update(p.name.encode())
            if p.tensor.grad is not None:
                grads.update(p.tensor.grad.tobytes())
        yield hashlib.sha256(states.data.tobytes()).hexdigest(), f"paper/{mix}/states"
        yield z.hexdigest(), f"paper/{mix}/z"
        yield grads.hexdigest(), f"paper/{mix}/gradients"


def main() -> int:
    print(environment(), flush=True)
    with tempfile.TemporaryDirectory(prefix="digest_outputs_") as work:
        for digest, path in toy_digests(work):
            print(digest, path, flush=True)
    for digest, path in paper_digests():
        print(digest, path, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
