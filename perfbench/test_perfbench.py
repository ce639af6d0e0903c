"""Smoke test of the benchmark: every metric in BENCHMARK.json is emitted
with its unit, outputs validate, and count metrics repeat exactly.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MIXES = ("full", "local", "conv", "lc")
COUNT_PREFIXES = ("attention.score_products", "attention.computed_products",
                  "tensor.graph_nodes", "checkpoint.save_bytes", "checkpoint.load_bytes")


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for key in ((0, 0), (1, 0), (1, 1)):
            proc = bench(workload, key[0])
            assert proc.returncode == 0, proc.stderr[-3000:]
            out[(workload,) + key] = json.loads(proc.stdout.splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(results, workload, trace):
    result = results[(workload, trace, 0)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), name
        if not trace:
            assert v["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_metrics_repeat_exactly(results, workload):
    first, second = results[(workload, 1, 0)], results[(workload, 1, 1)]
    counts = [n for n in first["metrics"] if n.startswith(COUNT_PREFIXES)]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_metric_map_covers_every_metric():
    table = json.loads((ROOT / "perfbench" / "metric_map.json").read_text())

    def expand(names):
        return {n.replace("<mix>", mix) for n in names for mix in MIXES}

    assert expand(table["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert expand(table["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    e2e = expand(table["end_to_end"])
    for entry in table["per_layer"].values():
        assert expand(entry["moves"]) <= e2e
        assert set(entry["workloads"]) <= set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_wrap_point_is_reported_not_fatal():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracing import WRAP_POINTS, Tracer

    gone = "multiformer.model._no_such_function"
    tracer = Tracer(WRAP_POINTS + [(gone, "model.gone", "plain")])
    assert tracer.absent == [gone]
    tracer.install()
    tracer.remove()
