"""Spans and counts for the traced run, recorded from outside the package.

Each wrap point names a call site: the module attribute through which
callers reach a public function (``multiformer.mhma.local_attention`` is
the binding ``mhma_forward`` calls).  Points are resolved when the tracer
is built; a name that no longer exists is reported as absent and skipped,
so a refactor that deletes or moves a function never crashes the run.

Spans are kept in memory as ``[name, start, end, parent, tag]`` rows and
written out once, when the benchmark ends.  ``tag`` is the head mix of
the operation being measured.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

# (call site, span name, kind).  A function imported into several modules
# is wrapped at each binding that production code calls through.
WRAP_POINTS = [
    ("multiformer.cli.main", "cli.main", "plain"),
    ("multiformer.cli.parse_architecture", "config.parse", "plain"),
    ("multiformer.cli.parse_task", "config.parse", "plain"),
    ("multiformer.cli.train", "training.train", "plain"),
    ("multiformer.cli.average_checkpoints", "training.avg_ckpt", "plain"),
    ("multiformer.cli.load_into", "checkpoint.load_into", "plain"),
    ("multiformer.cli.aggregate_contributions", "analysis.aggregate", "plain"),
    ("multiformer.cli.emit_report", "analysis.emit", "plain"),
    ("multiformer.training.gen_synthetic_batch", "training.data", "plain"),
    ("multiformer.analysis.gen_synthetic_batch", "training.data", "plain"),
    ("multiformer.training.forward_loss", "model.forward_loss", "plain"),
    ("multiformer.training.evaluate", "training.evaluate", "plain"),
    ("multiformer.training.adam_step", "training.adam", "plain"),
    ("multiformer.training.save_arrays", "checkpoint.save", "save"),
    ("multiformer.checkpoint.save_arrays", "checkpoint.save", "save"),
    ("multiformer.training.load_checkpoint", "checkpoint.load", "load"),
    ("multiformer.checkpoint.load_checkpoint", "checkpoint.load", "load"),
    ("multiformer.analysis.head_contribution", "analysis.head_contribution", "plain"),
    ("multiformer.analysis.encode", "model.encode", "plain"),
    ("multiformer.model.encode", "model.encode", "plain"),
    ("multiformer.model.subsample", "model.subsample", "plain"),
    ("multiformer.model.decode", "model.decode", "decode"),
    ("multiformer.model.label_smoothed_loss", "model.loss", "plain"),
    ("multiformer.model.mhma_forward", "mhma.forward", "mhma"),
    ("multiformer.model.layer_norm", "tensor.layer_norm", "plain"),
    ("multiformer.model.conv1d", "tensor.conv1d", "plain"),
    ("multiformer.attention.conv1d", "tensor.conv1d", "plain"),
    ("multiformer.model.full_attention", "attention.full", "attention"),
    ("multiformer.mhma.full_attention", "attention.full", "attention"),
    ("multiformer.mhma.local_attention", "attention.local", "attention"),
    ("multiformer.mhma.conv_compress", "attention.conv_compress", "plain"),
    ("multiformer.tensor.Tensor.backward", "tensor.backward", "backward"),
]


def resolve(dotted: str):
    """(owner object, attribute name, current value) for a dotted call
    site, or None when any part of it is missing."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        value = getattr(owner, parts[-1], None)
        return None if value is None else (owner, parts[-1], value)
    return None


class _Count:
    """Stands in for the caller's OpCounter so every call is counted."""

    def __init__(self):
        self.score_products = 0

    def add(self, count):
        self.score_products += int(count)


def _as_bool(mask):
    if mask is None:
        return None
    return np.asarray(getattr(mask, "valid", mask), dtype=bool)


def graph_nodes(root) -> int:
    """Autodiff nodes a backward sweep from `root` visits."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in getattr(node, "_parents", ()):
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def useful_pairs(kind: str, q_shape, k_shape, key_mask, query_mask, window=None) -> int:
    """(query, key) score pairs with both ends real and the key in band."""
    lead, n, m = tuple(q_shape[:-2]), q_shape[-2], k_shape[-2]
    qm = np.ones(lead + (n,), bool) if query_mask is None else np.broadcast_to(
        query_mask, lead + (n,))
    if kind == "attention.local":
        keep = np.ones(lead + (n,), bool) if key_mask is None else np.broadcast_to(
            key_mask, lead + (n,))
        half = window // 2
        prefix = np.concatenate(
            [np.zeros(lead + (1,), np.int64), np.cumsum(keep, axis=-1)], axis=-1)
        idx = np.arange(n)
        in_band = (prefix[..., np.minimum(n, idx + half + 1)]
                   - prefix[..., np.maximum(0, idx - half)])
        return int((in_band * qm).sum())
    if key_mask is None:
        return int(qm.sum()) * m
    if key_mask.ndim == len(q_shape):  # per-query mask, e.g. causal
        full = np.broadcast_to(key_mask, lead + (n, m))
        return int((full & qm[..., None]).sum())
    keys = np.broadcast_to(key_mask, lead + (m,))
    return int((qm.sum(axis=-1) * keys.sum(axis=-1)).sum())


class Tracer:
    """Installs wrappers at the resolved call sites and records spans."""

    def __init__(self, points=WRAP_POINTS):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.tag = ""
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._query_masks: list = []
        self._points = []  # (owner, attribute, original, wrapper)
        for dotted, name, kind in points:
            found = resolve(dotted)
            if found is None:
                self.absent.append(dotted)
            else:
                owner, attr, fn = found
                self._points.append((owner, attr, fn, self._wrap(fn, name, kind)))

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, wrapper in self._points:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, fn, _ in self._points:
            setattr(owner, attr, fn)

    # -- recording --------------------------------------------------------

    def count(self, what: str, value) -> None:
        self.counts[(what, self.tag)] += value

    def _span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, 0.0, 0.0, parent, self.tag]
        self.spans.append(row)
        self._stack.append(idx)
        row[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, kind):
        tracer = self
        sig = None
        if kind in ("attention", "mhma", "decode"):
            sig = inspect.signature(fn)

        if kind == "attention":
            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                caller = bound.arguments.get("counter")
                mine = _Count()
                if "counter" in sig.parameters:
                    bound.arguments["counter"] = mine
                out = tracer._span(name, fn, bound.args, bound.kwargs)
                tracer._attention_counts(name, bound.arguments, out, mine.score_products)
                if caller is not None:
                    caller.add(mine.score_products)
                return out
        elif kind == "mhma":
            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                span = "mhma.capture" if bound.arguments.get("capture") else name
                tracer._query_masks.append(_as_bool(bound.arguments.get("mask")))
                try:
                    return tracer._span(span, fn, args, kwargs)
                finally:
                    tracer._query_masks.pop()
        elif kind == "decode":
            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                tracer._query_masks.append(_as_bool(bound.arguments.get("target_in_mask")))
                try:
                    return tracer._span(name, fn, args, kwargs)
                finally:
                    tracer._query_masks.pop()
        elif kind == "backward":
            def wrapper(self_tensor, *args, **kwargs):
                tracer.count("tensor.graph_nodes", graph_nodes(self_tensor))
                tracer.count("tensor.backward_calls", 1)
                return tracer._span(name, fn, (self_tensor,) + args, kwargs)
        elif kind == "save":
            def wrapper(*args, **kwargs):
                out = tracer._span(name, fn, args, kwargs)
                tracer.count("checkpoint.save_bytes", os.path.getsize(args[0]))
                return out
        elif kind == "load":
            def wrapper(*args, **kwargs):
                tracer.count("checkpoint.load_bytes", os.path.getsize(args[0]))
                return tracer._span(name, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer._span(name, fn, args, kwargs)
        return wrapper

    def _attention_counts(self, name, arguments, out, products) -> None:
        q, k = arguments.get("q"), arguments.get("k")
        if q is None or k is None:  # the kernel's signature changed
            return
        weights = out[1]
        computed = getattr(weights, "values", weights).data.size
        query_mask = self._query_masks[-1] if self._query_masks else None
        if query_mask is not None and query_mask.shape != q.shape[:-1]:
            query_mask = None
        params = arguments.get("params")
        useful = useful_pairs(name, q.shape, k.shape, _as_bool(arguments.get("mask")),
                              query_mask, getattr(params, "window", None))
        self.count("attention.score_products", products)
        self.count("attention.computed_products", computed)
        self.count("attention.useful_pairs", useful)

    # -- reduction --------------------------------------------------------

    def times(self):
        """{(span name, tag): [inclusive s, self s]} summed over spans,
        plus {(span name, parent name, tag): inclusive s}."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, tag in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0.0])
        by_parent: dict[tuple[str, str, str], float] = defaultdict(float)
        for i, (name, t0, t1, parent, tag) in enumerate(self.spans):
            acc = totals[(name, tag)]
            acc[0] += t1 - t0
            acc[1] += t1 - t0 - child[i]
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            by_parent[(name, parent_name, tag)] += t1 - t0
        return totals, by_parent

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,tag\n")
            for name, t0, t1, parent, tag in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{tag}\n")
