"""The benchmark under perfbench/ imports names from the package and
wraps call sites by their dotted names, binding the kernels' arguments by
name.  A refactor that moves or renames one fails here, not only in a
benchmark run."""

import functools
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


def test_tracer_counts_what_the_kernels_return(monkeypatch):
    """One traced mhma_forward over a padded batch whose heads are full,
    conv, banded local and a local window covering the sequence: the
    tracer's score products are the OpCounter's, and its computed
    products are the sizes of the weights the kernels return."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import numpy as np
    from tracing import WRAP_POINTS, Tracer

    from multiformer import mhma, model
    from multiformer.attention import OpCounter
    from multiformer.tensor import Tensor

    returned = []
    for name in ("full_attention", "local_attention"):
        @functools.wraps(getattr(mhma, name))
        def record(*args, _kernel=getattr(mhma, name), **kwargs):
            out = _kernel(*args, **kwargs)
            returned.append(out[1])
            return out
        monkeypatch.setattr(mhma, name, record)

    specs = [mhma.HeadSpec("full"), mhma.HeadSpec("conv", kernel=3, stride=2),
             mhma.HeadSpec("local", window=4), mhma.HeadSpec("local", window=16)]
    rng = np.random.default_rng(0)
    weights = mhma.init_mhma_weights(8, specs, rng)
    x = Tensor(rng.normal(size=(2, 9, 8)))
    keep = np.ones((2, 9), dtype=bool)
    keep[1, 6:] = False
    expected = OpCounter()
    model.mhma_forward(x, specs, weights, keep, expected)

    returned.clear()
    tracer = Tracer([p for p in WRAP_POINTS if p[2] in ("attention", "mhma")])
    tracer.install()
    try:
        model.mhma_forward(x, specs, weights, keep, OpCounter())
    finally:
        tracer.remove()
    assert [a.shape for a in returned] == [(2, 9, 9), (2, 9, 5), (2, 9, 5), (2, 9, 17)]
    assert tracer.counts[("attention.score_products", "")] == expected.score_products
    assert (tracer.counts[("attention.computed_products", "")]
            == sum(a.data.size for a in returned))


def test_tracer_counts_per_sequence_weights(monkeypatch):
    """A traced mhma_forward over a padded batch whose full and conv heads
    are past tensor.SEQUENCE_PAIRS: the tracer's score products are still
    the OpCounter's, B*n*m per head, and its computed products are the
    Σ n_b*m_b valid pairs of the flat weights the heads return."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import numpy as np
    from tracing import WRAP_POINTS, Tracer

    from multiformer import mhma, model
    from multiformer.attention import OpCounter
    from multiformer.tensor import SEQUENCE_PAIRS, Tensor

    returned = []

    @functools.wraps(mhma.full_attention)
    def record(*args, _kernel=mhma.full_attention, **kwargs):
        out = _kernel(*args, **kwargs)
        returned.append(out[1])
        return out
    monkeypatch.setattr(mhma, "full_attention", record)

    specs = [mhma.HeadSpec("full"), mhma.HeadSpec("conv", kernel=3, stride=2)]
    rng = np.random.default_rng(1)
    weights = mhma.init_mhma_weights(8, specs, rng)
    n = 2 * int(np.sqrt(SEQUENCE_PAIRS))
    x = Tensor(rng.normal(size=(2, n, 8)))
    keep = np.arange(n) < np.array([[n], [n - 100]])
    expected = OpCounter()
    model.mhma_forward(x, specs, weights, keep, expected)
    assert expected.score_products == 2 * n * n + 2 * n * (n // 2)

    returned.clear()
    tracer = Tracer([p for p in WRAP_POINTS if p[2] in ("attention", "mhma")])
    tracer.install()
    try:
        model.mhma_forward(x, specs, weights, keep, OpCounter())
    finally:
        tracer.remove()
    valid = [n, n - 100]
    assert [a.shape for a in returned] == [(sum(v * v for v in valid),),
                                           (sum(v * (v // 2) for v in valid),)]
    assert tracer.counts[("attention.score_products", "")] == expected.score_products
    assert (tracer.counts[("attention.computed_products", "")]
            == sum(a.data.size for a in returned))
