"""tools/encoder_peak.py at a tiny length: one fwd+bwd pass per mix, one
JSON line naming the run, its time and its peak resident memory."""

import json
import os
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "encoder_peak.py")


@pytest.mark.parametrize("mix", ["full", "local", "conv", "lc"])
def test_prints_the_time_and_peak_of_one_pass(mix):
    run = subprocess.run([sys.executable, TOOL, "--mix", mix, "--n", "16", "--layers", "2"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    line = json.loads(run.stdout)
    assert {k: line[k] for k in ("mix", "n", "layers")} == {"mix": mix, "n": 16, "layers": 2}
    assert line["seconds"] > 0 and line["peak_rss_mb"] > 0


@pytest.mark.parametrize("flag,value", [("--n", "12"), ("--n", "0"), ("--layers", "0")])
def test_rejects_sizes_it_cannot_run(flag, value):
    args = {"--n": "16", "--layers": "1", flag: value}
    run = subprocess.run([sys.executable, TOOL, "--mix", "full",
                          *(x for kv in args.items() for x in kv)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 2 and f"{flag} must be" in run.stderr
