"""Benchmark entry point.

    python3 perfbench/run.py --workload {toy_train,paper_long,toy_analyze} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run it from the root of a checkout.  Each run starts `worker.py` in a
fresh process with the BLAS thread count pinned, so that `peak_rss_mb`
belongs to that workload alone, and prints the worker's lines with the
result object, completed by `peak_rss_mb` in an untraced run, as the last
line.  Exits non-zero, without a result, when the checkout holds no
`src/multiformer` or the worker fails.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys

from worker import build_parser

# One BLAS thread: never more than the cores, and steadier on a shared box.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 170


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isfile(os.path.join("src", "multiformer", "__init__.py")):
        print("perfbench: run from the root of a checkout holding src/multiformer",
              file=sys.stderr)
        return 2
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    env = dict(os.environ, **{name: BLAS_THREADS for name in THREAD_VARS})
    proc = subprocess.Popen([sys.executable, worker, *argv], stdout=subprocess.PIPE,
                            env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    lines = out.splitlines()
    result = json.loads(lines[-1])
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the worker is the only child waited for.
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
