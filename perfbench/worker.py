"""One benchmark run in a fresh process; `run.py` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Prints an ``{"info": ...}`` line, then
the result object as the last line; also writes both, and the traced
run's spans, under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.0, 90.0, 50.0)


def load_package():
    """Import the checkout's own `multiformer`, never an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import multiformer
    if os.path.dirname(os.path.dirname(os.path.abspath(multiformer.__file__))) != src:
        raise ImportError(f"multiformer imported from {multiformer.__file__}, not {src}")


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: v for k, v in sorted(os.environ.items())
               if k.endswith("_NUM_THREADS") or k.startswith("MALLOC_")}
    return {"cpu_count": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_env": threads, "python": platform.python_version(),
            "machine": platform.machine()}


def tail(values: list[float]) -> dict:
    """Sample count, median, and the highest percentile with at least ten
    samples beyond it (None when there are too few samples)."""
    out = {"samples": len(values), "p50": statistics.median(values) if values else None,
           "tail_percentile": None, "tail_value": None}
    for p in TAIL_PERCENTILES:
        if len(values) * (1 - p / 100) >= 10:
            out["tail_percentile"] = p
            out["tail_value"] = statistics.quantiles(values, n=1000)[int(p * 10) - 1]
            break
    return out


def measure(workload, mixes, seconds: float, tracer=None) -> list[dict]:
    """Closed loop over the mixes, in whole cycles, until `seconds` have
    passed.  Every mix runs equally often, so a sum over the run does not
    depend on which mixes a last, partial cycle would have reached.  In a
    traced run even cycles are traced and odd cycles are not, so that the
    difference is the tracing overhead."""
    ops = []
    start = time.perf_counter()
    min_cycles = 2 if tracer else 1
    cycle = 0
    while cycle < min_cycles or time.perf_counter() - start < seconds:
        traced = tracer is not None and cycle % 2 == 0
        for mix in mixes:
            gc.collect()
            if traced:
                tracer.tag = mix
                tracer.install()
            op = {"mix": mix, "traced": traced, "ok": False, "work": 0}
            t0 = time.perf_counter()
            try:
                try:
                    op["work"] = workload.run(mix)
                finally:
                    op["seconds"] = time.perf_counter() - t0
                    if traced:
                        tracer.remove()
                workload.check(mix)
                op["ok"] = True
            except Exception:  # an op boundary: record, count as failed, go on
                traceback.print_exc(file=sys.stderr)
            ops.append(op)
        cycle += 1
    return ops


def end_to_end(ops, setup_s: float, mixes) -> dict:
    timed = [op for op in ops if not op["traced"]]
    metrics = {"setup_s": setup_s,
               "ok_frac": sum(op["ok"] for op in ops) / len(ops),
               "work_per_s": sum(op["work"] for op in timed)
               / sum(op["seconds"] for op in timed)}
    for mix in mixes:
        metrics[f"op_ms_p50.{mix}"] = 1e3 * statistics.median(
            op["seconds"] for op in timed if op["mix"] == mix)
    return metrics


def per_layer(tracer, ops, mixes) -> dict:
    n_ops = {mix: sum(op["mix"] == mix and op["traced"] for op in ops) for mix in mixes}
    totals, by_parent = tracer.times()

    def per_op(table, key_of, mix=None):
        """Per traced op of `mix`; without a mix, the mean over mixes, so
        that the value does not depend on how many ops of each ran."""
        if mix is None:
            return statistics.mean(per_op(table, key_of, m) for m in mixes)
        return table.get(key_of(mix), 0.0) / n_ops[mix] if n_ops[mix] else 0.0

    def self_ms(name, mix=None):
        return 1e3 * per_op({k: v[1] for k, v in totals.items()}, lambda t: (name, t), mix)

    def incl_ms(name, mix=None):
        return 1e3 * per_op({k: v[0] for k, v in totals.items()}, lambda t: (name, t), mix)

    def under_ms(name, parent):
        return 1e3 * per_op(by_parent, lambda t: (name, parent, t))

    def count(what, mix=None):
        return per_op(tracer.counts, lambda t: (what, t), mix)

    m = {
        "tensor.conv1d_ms": self_ms("tensor.conv1d"),
        "tensor.layer_norm_ms": self_ms("tensor.layer_norm"),
        "attention.full_ms": self_ms("attention.full"),
        "attention.local_ms": self_ms("attention.local"),
        "attention.conv_compress_ms": incl_ms("attention.conv_compress"),
        "mhma.capture_ms": self_ms("mhma.capture"),
        "model.subsample_ms": self_ms("model.subsample"),
        "model.encode_ms": self_ms("model.encode"),
        "model.decode_ms": self_ms("model.decode"),
        "model.loss_ms": self_ms("model.loss"),
        "training.data_ms": self_ms("training.data"),
        "training.forward_loss_ms": under_ms("model.forward_loss", "training.train"),
        "training.adam_ms": self_ms("training.adam"),
        "training.snapshot_ms": incl_ms("training.evaluate")
        + under_ms("checkpoint.save", "training.train"),
        "training.avg_ckpt_ms": incl_ms("training.avg_ckpt"),
        "checkpoint.save_ms": incl_ms("checkpoint.save"),
        "checkpoint.save_bytes": count("checkpoint.save_bytes"),
        "checkpoint.load_ms": incl_ms("checkpoint.load"),
        "checkpoint.load_bytes": count("checkpoint.load_bytes"),
        "analysis.aggregate_ms": self_ms("analysis.aggregate"),
        "analysis.head_contribution_ms": self_ms("analysis.head_contribution"),
        "analysis.emit_ms": incl_ms("analysis.emit"),
        "config.parse_ms": incl_ms("config.parse"),
        "cli.main_ms": self_ms("cli.main"),
    }
    overheads = []
    for mix in mixes:
        m[f"tensor.backward_ms.{mix}"] = self_ms("tensor.backward", mix)
        calls = tracer.counts.get(("tensor.backward_calls", mix), 0)
        m[f"tensor.graph_nodes.{mix}"] = (
            tracer.counts.get(("tensor.graph_nodes", mix), 0) / calls if calls else 0.0)
        m[f"mhma.forward_ms.{mix}"] = self_ms("mhma.forward", mix)
        computed = count("attention.computed_products", mix)
        m[f"attention.score_products.{mix}"] = count("attention.score_products", mix)
        m[f"attention.computed_products.{mix}"] = computed
        m[f"attention.useful_score_frac.{mix}"] = (
            count("attention.useful_pairs", mix) / computed if computed else 0.0)
        with_trace = [op["seconds"] for op in ops if op["mix"] == mix and op["traced"]]
        without = [op["seconds"] for op in ops if op["mix"] == mix and not op["traced"]]
        if with_trace and without:
            overheads.append(statistics.median(with_trace) - statistics.median(without))
    m["bench.trace_overhead_ms"] = 1e3 * statistics.mean(overheads) if overheads else 0.0
    return m


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="one multiformer benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    load_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import Tracer
    from workloads import MIXES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})")
    os.makedirs(OUT_DIR, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = tempfile.mkdtemp(prefix=label + "-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, work, args.smoke)
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            workload.prepare()
            setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        workload.warm()
        warm_s = time.perf_counter() - t0
        tracer = Tracer() if args.trace else None
        ops = measure(workload, MIXES, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, wanted = per_layer(tracer, ops, MIXES), spec["per_layer"]
        tracer.write(os.path.join(OUT_DIR, label + "-spans.csv"))
    else:
        values = end_to_end(ops, statistics.median(setups) + warm_s, MIXES)
        wanted = [m for m in spec["end_to_end"] if m["name"] != "peak_rss_mb"]
    missing = sorted({m["name"] for m in wanted} ^ set(values))
    if missing:
        raise KeyError(f"metrics and BENCHMARK.json disagree on {missing}")
    failed = sum(not op["ok"] for op in ops)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "setup_repeats_s": setups, "warm_s": warm_s,
            "op_ms": {mix: tail([1e3 * op["seconds"] for op in ops
                                 if op["mix"] == mix and not op["traced"]])
                      for mix in MIXES},
            "absent_wrap_points": tracer.absent if tracer else [],
            "environment": environment()}
    with open(os.path.join(OUT_DIR, label + ".json"), "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
