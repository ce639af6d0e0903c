"""The benchmark under perfbench/ imports names from the package and
wraps call sites by their dotted names, binding the kernels' arguments by
name.  A refactor that moves or renames one fails here, not only in a
benchmark run."""

import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrap_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads  # noqa: F401  (fails on a name it can no longer import)
    from tracing import WRAP_POINTS, Tracer, resolve

    assert Tracer(WRAP_POINTS).absent == []
    for dotted, _, kind in WRAP_POINTS:
        if kind == "attention":
            params = inspect.signature(resolve(dotted)[2]).parameters
            assert {"q", "k", "mask", "counter"} <= set(params), dotted
