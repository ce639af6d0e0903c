"""Time one forward and backward pass of a paper-width encoder and report
the process's peak resident memory.

    python3 tools/encoder_peak.py --mix {conv,full,lc,local} --n N --layers L

The encoder has d=256, 4 heads, ffn_dim 2048 and 80 input features, as
perfbench's paper_long layer, with L identical layers of that layer's
heads per mix: all full, all local(64), all conv(5,2), or lc, which is
local(64) local(64) conv(5,2) conv(5,2).  Its input is 4 sources of 4N frames with 4N,
3.5N, 3N and 2.5N valid, so the layers see N, 7N/8, 3N/4 and 5N/8 valid
frames; N must be a multiple of 8.  The pass is `model.encode` plus the
backward of a fixed random probe of the states, at one BLAS thread.  It
prints one JSON line: the mix, N, L, the seconds the pass took, and
`peak_rss_mb`, the process's ru_maxrss, which counts set-up too (the
weights, the input and the import of NumPy).  Run it in a fresh process
per measurement, since the peak only ever grows.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from multiformer.config import parse_head_spec  # noqa: E402
from multiformer.model import ModelConfig, encode, init_model_weights  # noqa: E402
from multiformer.tensor import Tensor  # noqa: E402

MIXES = {mix: [parse_head_spec(token) for token in layer.split()] for mix, layer in (
    ("full", "full full full full"),
    ("local", "local(64) local(64) local(64) local(64)"),
    ("conv", "conv(5,2) conv(5,2) conv(5,2) conv(5,2)"),
    ("lc", "local(64) local(64) conv(5,2) conv(5,2)"))}
HEADS, D_MODEL, FFN_DIM, FEATURES = 4, 256, 2048, 80


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="time one fwd+bwd pass of a paper-width encoder and report peak RSS")
    parser.add_argument("--mix", choices=sorted(MIXES), required=True)
    parser.add_argument("--n", type=int, required=True, help="frames per layer, a multiple of 8")
    parser.add_argument("--layers", type=int, required=True)
    args = parser.parse_args(argv)
    if args.n < 8 or args.n % 8:
        parser.error(f"--n must be a positive multiple of 8, got {args.n}")
    if args.layers < 1:
        parser.error(f"--layers must be >= 1, got {args.layers}")
    frames = 4 * args.n
    config = ModelConfig(d_model=D_MODEL, heads=HEADS,
                         encoder_layers=[MIXES[args.mix]] * args.layers,
                         decoder_layers=1, ffn_dim=FFN_DIM, vocab_size=35,
                         input_feature_dim=FEATURES, max_source_len=frames)
    weights = init_model_weights(config, seed=1)
    rng = np.random.default_rng(0)
    valid = np.array([8, 7, 6, 5]) * frames // 8
    mask = np.arange(frames) < valid[:, None]
    source = Tensor((rng.normal(size=mask.shape + (FEATURES,)) * mask[..., None])
                    .astype(np.float32))
    probe = Tensor(rng.normal(size=(len(valid), args.n, D_MODEL)).astype(np.float32))

    start = time.perf_counter()
    states = encode(source, mask, config, weights)[0]  # the layer outputs are not kept
    (states * probe).sum().backward()
    seconds = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"mix": args.mix, "n": args.n, "layers": args.layers,
                      "seconds": round(seconds, 3), "peak_rss_mb": round(peak_mb, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
