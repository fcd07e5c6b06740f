"""Spans around the calls the solver makes into each layer.

The benchmark wraps public library functions from the outside, records one
span per call (name, start, end, parent span, request id) in memory, and
derives per-layer self times and work counts from them.  Counters that need
extra computation run in `Tracer.untimed`, whose time is taken off the
tracer's clock, so they are outside every span and add nothing to any
layer's time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

import splitcut
import splitcut.dominance
import splitcut.encoding
import splitcut.oracle
import splitcut.solver

# span name -> per-layer time metric built from its self time
LAYER_TIMES = {
    "encoding": "encoding.self_s",
    "dominance.build": "dominance.build_s",
    "dominance.join": "dominance.join_s",
    "dominance.witness": "dominance.witness_s",
    "oracle.sweep": "oracle.sweep_s",
    "solver": "solver.self_s",
    "request": "request.self_s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.now(), float("nan"), parent, self.request))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = self.now()

    @contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0


def write_spans(path, spans: list[Span]) -> None:
    """One JSON object per span and line."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_encoding(counts: Counter, args, kwargs, out) -> None:
    n = _arg(args, kwargs, 0, "g").n
    ka = n // 2
    counts["encoding.rows_enumerated"] += max(0, 2**ka - 2) + max(0, 2 ** (n - ka) - 2)
    query, data = getattr(out, "query", None), getattr(out, "data", None)
    if query is None or data is None:
        return
    counts["encoding.rows_kept"] += len(query) + len(data)
    counts["encoding.dim_total"] += query.shape[1]
    arrays = (query, data, getattr(out, "query_masks", None), getattr(out, "data_masks", None))
    counts["encoding.bytes_out"] += sum(a.nbytes for a in arrays if a is not None)
    if len(query) and len(data):
        counts["dominance.trivial_cols"] += int((data.max(axis=0) <= query.min(axis=0)).sum())


def _count_join(counts: Counter, args, kwargs, out) -> None:
    index, queries = args[0], _arg(args, kwargs, 1, "queries")
    counts["dominance.pairs"] += len(queries) * len(index)
    counts["dominance.matches"] += int(np.sum(out))


def _count_sweep(counts: Counter, args, kwargs, out) -> None:
    g = _arg(args, kwargs, 0, "g")
    size_target = _arg(args, kwargs, 2, "size_target")
    counts["oracle.sweep_hits"] += out[0]
    candidates = getattr(splitcut.encoding, "degenerate_candidate_masks", None)
    if candidates is None:
        return
    masks = candidates(g)
    keep = (masks != 0) & (masks != np.uint64((1 << g.n) - 1))
    if size_target is not None:
        keep &= np.bitwise_count(masks) == size_target
    counts["oracle.sweep_candidates"] += int(keep.sum())


def _targets():
    index_cls = getattr(splitcut.dominance, "DominanceIndex", None)
    return [
        ("encoding", splitcut.solver, "build_join_inputs", _count_encoding),
        ("dominance.build", splitcut.solver, "build_index", None),
        ("dominance.join", index_cls, "batch_count", _count_join),
        ("dominance.witness", index_cls, "find_dominated", None),
        ("oracle.sweep", splitcut.oracle, "sweep_degenerate", _count_sweep),
        # the public name and the module global `_optimize` re-enters through
        ("solver", splitcut.solver, "solve", None),
        ("solver", splitcut, "solve", None),
    ]


def _wrap(tracer: Tracer, name: str, fn, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            with tracer.untimed():
                after(tracer.counts, args, kwargs, out)
        return out

    return traced


_MISSING = object()


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer entry point for the duration of the block.

    Yields the sorted names of layers whose entry point no longer exists;
    those are reported as absent rather than failing the run.
    """
    patched = []
    present = set()
    targets = _targets()
    try:
        for name, owner, attr, after in targets:
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                continue
            patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, _wrap(tracer, name, fn, after))
            present.add(name)
        yield sorted({t[0] for t in targets} - present)
    finally:
        for owner, attr, orig in reversed(patched):
            if orig is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-layer totals over the traced requests: self times and work counts."""
    times: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        times[span.name] += own
        calls[span.name] += 1
    c = tracer.counts
    enc_calls = calls["encoding"]
    out = {metric: times[name] for name, metric in LAYER_TIMES.items()}
    out.update(
        {
            "encoding.calls": enc_calls,
            "encoding.rows_enumerated": c["encoding.rows_enumerated"],
            "encoding.rows_kept": c["encoding.rows_kept"],
            "encoding.keep_ratio": _ratio(c["encoding.rows_kept"], c["encoding.rows_enumerated"]),
            "encoding.dim": _ratio(c["encoding.dim_total"], enc_calls),
            "encoding.bytes_out": c["encoding.bytes_out"],
            "dominance.pairs": c["dominance.pairs"],
            "dominance.matches": c["dominance.matches"],
            "dominance.match_ratio": _ratio(c["dominance.matches"], c["dominance.pairs"]),
            "dominance.trivial_cols": c["dominance.trivial_cols"],
            "oracle.sweep_candidates": c["oracle.sweep_candidates"],
            "oracle.sweep_hits": c["oracle.sweep_hits"],
            "solver.solves_per_request": _ratio(calls["solver"], requests),
        }
    )
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
