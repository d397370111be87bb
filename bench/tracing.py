"""Outside-in span tracing of hgrc's layers for the benchmark.

Every layer function is replaced, for the length of one ``instrument``
block, by a wrapper that records a span around the call.  This works
without touching the package because callers look functions up as module
attributes at call time (``encoder.encode_batch``, ``simgraph.threshold``,
``model_mod.backward``, ...).  ``hgrc.train`` imports ``adam_step`` and
``compute_report`` by name, so those two are replaced in that namespace.

A span records its name, start, end and parent; all spans of one tracer
share its run id.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the time its child spans cover.

Training steps are recovered from call boundaries: a step opens when
``forward_train`` is entered and closes when the next ``forward_train`` or
``forward_eval`` (the epoch's validation pass) is entered.  So a step is
forward, backward and Adam over every parameter, plus gathering the next
batch and drawing its dropout masks.  These boundary hooks are the only
wrappers installed when tracing is off; they cost two clock reads a step,
plus a machine-speed sample between steps (``speed.py``) when the tracer
has a sampler.

Shape-derived counters (operation counts, hyperedge statistics, graph
density) are taken after the layer's span has closed, inside a
``trace.probe`` span, so their cost lands in no layer's self time.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

PROBE = "trace.probe"
STEP = "step"
SCORE_CALL = "score_call"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "counters")

    def __init__(self, sid: int, name: str, start: float, parent: "Span | None"):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.counters = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one run phase."""

    def __init__(self, run_id: str, full: bool, sampler=None):
        self.run_id = run_id
        self.full = full
        # a speed.SpeedSampler, sampled at every step boundary, or None
        self.sampler = sampler
        self.spans: list[Span] = []
        self.losses: list[float] = []
        self.warnings: list[str] = []
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), name, time.perf_counter(),
                    self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` and any span still open inside it (a pending step)."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            top.end = now
            if top is span:
                return
        raise RuntimeError(f"span {span.name!r} closed twice")

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def close_step(self) -> None:
        if self._stack and self._stack[-1].name == STEP:
            self.end(self._stack[-1])

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    def dump(self) -> dict:
        """Spans as plain data, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return {"run_id": self.run_id, "spans": [
            {"id": s.sid, "name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": None if s.parent is None else s.parent.sid,
             "counters": s.counters}
            for s in self.spans]}


# ------------------------------------------------- operation counts (computed)
#
# Each probe reads array shapes from a call's arguments and result and
# returns counters for that call.  Flop counts cover the matrix products
# only: 2*m*k*n for an (m, k) by (k, n) product.

def _gru_fwd(args, result):
    n, m, t = args[0].shape
    d = result[0].shape[1]
    # per step: three gates, each an (N, M)x(M, d) and an (N, d)x(d, d) product
    return {"flop": 2.0 * n * t * 3 * d * (m + d)}


def _gru_bwd(args, result):
    n, d = args[0].shape
    _, m, t = result[1].shape
    # weight gradients (da^T x, da^T h) plus input and hidden gradients (da W, da U)
    return {"flop": 4.0 * n * t * 3 * d * (m + d)}


def _hg_build(args, result):
    sizes = result.edge_degree
    k = int(result.n_edges)
    return {"n_edges": float(k), "mean_edge_size": float(sizes.mean()) if k else 0.0}


def _hg_operator(args, result):
    n, k = args[0].incidence.shape
    return {"flop": 2.0 * n * k * n}


def _hg_stack_fwd(args, result):
    n, w = args[0].shape
    layers = len(args[2])
    return {"flop": layers * (2.0 * n * n * w + 2.0 * n * w * w)}


def _hg_stack_bwd(args, result):
    n, w = args[0].shape
    layers = len(args[2])
    return {"flop": layers * (2.0 * n * n * w + 4.0 * n * w * w)}


def _similarity(args, result):
    n, w = args[0].shape
    return {"flop": 2.0 * n * n * w}


def _threshold(args, result):
    n = result.shape[0]
    if n < 2:
        return {}
    kept = float(result.sum() - result.trace())
    return {"edge_density": kept / (n * (n - 1))}


def _gcn_fwd(args, result):
    n, w = args[0].shape
    q = args[2].shape[1]
    return {"flop": 2.0 * n * w * q + 2.0 * n * n * q}


def _similarity_bwd(args, result):
    n, w = args[1].shape
    return {"flop": 2.0 * n * n * w}


def _gcn_bwd(args, result):
    n, q = args[0].shape
    w = args[2].shape[0]
    return {"flop": 4.0 * n * n * q + 4.0 * n * w * q}


# (module, attribute, span name, probe).  forward_train and forward_eval
# are wrapped separately because they also mark step boundaries.
LAYERS = (
    ("hgrc.encoder", "encode_batch", "encoder.fwd", _gru_fwd),
    ("hgrc.encoder", "encode_batch_backward", "encoder.bwd", _gru_bwd),
    ("hgrc.hypergraph", "build_hypergraph", "hypergraph.build", _hg_build),
    ("hgrc.hypergraph", "hconv_operator", "hypergraph.operator", _hg_operator),
    ("hgrc.hypergraph", "hconv_stack", "hypergraph.stack_fwd", _hg_stack_fwd),
    ("hgrc.hypergraph", "hconv_stack_backward", "hypergraph.stack_bwd", _hg_stack_bwd),
    ("hgrc.simgraph", "similarity", "simgraph.similarity", _similarity),
    ("hgrc.simgraph", "threshold", "simgraph.threshold", _threshold),
    ("hgrc.simgraph", "gcn_aggregate", "simgraph.gcn_fwd", _gcn_fwd),
    ("hgrc.simgraph", "similarity_backward", "simgraph.similarity_bwd", _similarity_bwd),
    ("hgrc.simgraph", "threshold_backward", "simgraph.threshold_bwd", None),
    ("hgrc.simgraph", "gcn_aggregate_backward", "simgraph.gcn_bwd", _gcn_bwd),
    ("hgrc.head", "head_forward", "head.fwd", None),
    ("hgrc.head", "head_backward", "head.bwd", None),
    ("hgrc.model", "backward", "model.bwd", None),
    ("hgrc.model", "make_dropout_masks", "model.dropout_masks", None),
    ("hgrc.train", "adam_step", "numeric.adam", None),
    ("hgrc.train", "compute_report", "metrics.report", None),
)

BOUNDARIES = (
    ("hgrc.model", "forward_train", "model.fwd_train"),
    ("hgrc.model", "forward_eval", "model.fwd_eval"),
)


def _wrap_layer(tracer: Tracer, fn, name: str, probe):
    def wrapped(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if probe is not None:
            with tracer.span(PROBE):
                try:
                    span.counters = probe(args, result)
                except (AttributeError, IndexError, TypeError, ValueError) as exc:
                    tracer.warn(f"{name}: shape probe failed ({exc!r}); its counters read 0")
        return result
    return wrapped


def _wrap_boundary(tracer: Tracer, fn, name: str, opens_step: bool):
    def wrapped(*args, **kwargs):
        tracer.close_step()
        if tracer.sampler is not None:
            tracer.sampler.sample()
        if opens_step:
            tracer.begin(STEP)
        span = tracer.begin(name) if tracer.full else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if span is not None:
                tracer.end(span)
        if opens_step:
            tracer.losses.append(float(result[0]))
        return result
    return wrapped


@contextmanager
def instrument(tracer: Tracer, layers=LAYERS):
    """Install the wrappers for the block; always restore the originals.

    A layer whose function is missing is reported through
    ``tracer.warnings`` and later as a zero-count layer, so a renamed
    function shows up instead of silently dropping out.
    """
    replaced = []
    plan = [(mod, attr, _wrap_boundary, (name, attr == "forward_train"))
            for mod, attr, name in BOUNDARIES]
    if tracer.full:
        plan += [(mod, attr, _wrap_layer, (name, probe)) for mod, attr, name, probe in layers]
    try:
        for mod_name, attr, make, extra in plan:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.warn(f"{mod_name}.{attr} not found; span {extra[0]} reads as zero-count")
                continue
            setattr(module, attr, make(tracer, fn, *extra))
            replaced.append((module, attr, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(replaced):
            setattr(module, attr, fn)


# ----------------------------------------------------------- span statistics


class SpanIndex:
    """Self times and ancestry over one tracer's spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                covered[s.parent.sid] += s.duration
        self.self_time = [s.duration - c for s, c in zip(spans, covered)]

    def unit_of(self, span: Span, units: tuple[str, ...]) -> Span | None:
        p = span.parent
        while p is not None and p.name not in units:
            p = p.parent
        return p

    def named(self, name: str, within: tuple[str, ...] | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and (within is None or self.unit_of(s, within) is not None)]


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# Per-layer metric table.  Context says which calls count:
#   "focus": inside the workload's focus unit (a training step on the train
#            workloads, one predict_scores call on score-4096);
#   "step":  inside training steps (on score-4096, its checkpoint training);
#   "score": inside predict_scores calls (validation has train.val_score_ms);
#   "all":   every call.
# Statistics: self_ms / dur_ms / dur_s are medians per call, calls is the
# call count, counter:<key> is the median per call of a probe counter,
# unit_gflop:<span> sums a span's flop counter within each unit and takes
# the median over units.
PER_LAYER = (
    ("encoder.fwd_ms", "ms", "encoder.fwd", "self_ms", "focus"),
    ("encoder.fwd_calls", "count", "encoder.fwd", "calls", "focus"),
    ("encoder.bwd_ms", "ms", "encoder.bwd", "self_ms", "step"),
    ("encoder.bwd_calls", "count", "encoder.bwd", "calls", "step"),
    ("encoder.gflop_fwd", "GFLOP", "encoder.fwd", "unit_gflop", "focus"),
    ("encoder.gflop_bwd", "GFLOP", "encoder.bwd", "unit_gflop", "step"),
    ("hypergraph.build_ms", "ms", "hypergraph.build", "self_ms", "focus"),
    ("hypergraph.build_calls", "count", "hypergraph.build", "calls", "focus"),
    ("hypergraph.operator_ms", "ms", "hypergraph.operator", "self_ms", "focus"),
    ("hypergraph.operator_calls", "count", "hypergraph.operator", "calls", "focus"),
    ("hypergraph.stack_fwd_ms", "ms", "hypergraph.stack_fwd", "self_ms", "focus"),
    ("hypergraph.stack_fwd_calls", "count", "hypergraph.stack_fwd", "calls", "focus"),
    ("hypergraph.stack_bwd_ms", "ms", "hypergraph.stack_bwd", "self_ms", "step"),
    ("hypergraph.stack_bwd_calls", "count", "hypergraph.stack_bwd", "calls", "step"),
    ("hypergraph.n_edges", "count", "hypergraph.build", "counter:n_edges", "focus"),
    ("hypergraph.mean_edge_size", "patients", "hypergraph.build", "counter:mean_edge_size", "focus"),
    ("hypergraph.gflop_fwd", "GFLOP", ("hypergraph.operator", "hypergraph.stack_fwd"),
     "unit_gflop", "focus"),
    ("hypergraph.gflop_bwd", "GFLOP", "hypergraph.stack_bwd", "unit_gflop", "step"),
    ("simgraph.similarity_ms", "ms", "simgraph.similarity", "self_ms", "focus"),
    ("simgraph.similarity_calls", "count", "simgraph.similarity", "calls", "focus"),
    ("simgraph.threshold_ms", "ms", "simgraph.threshold", "self_ms", "focus"),
    ("simgraph.threshold_calls", "count", "simgraph.threshold", "calls", "focus"),
    ("simgraph.gcn_fwd_ms", "ms", "simgraph.gcn_fwd", "self_ms", "focus"),
    ("simgraph.gcn_fwd_calls", "count", "simgraph.gcn_fwd", "calls", "focus"),
    ("simgraph.similarity_bwd_ms", "ms", "simgraph.similarity_bwd", "self_ms", "step"),
    ("simgraph.similarity_bwd_calls", "count", "simgraph.similarity_bwd", "calls", "step"),
    ("simgraph.threshold_bwd_ms", "ms", "simgraph.threshold_bwd", "self_ms", "step"),
    ("simgraph.threshold_bwd_calls", "count", "simgraph.threshold_bwd", "calls", "step"),
    ("simgraph.gcn_bwd_ms", "ms", "simgraph.gcn_bwd", "self_ms", "step"),
    ("simgraph.gcn_bwd_calls", "count", "simgraph.gcn_bwd", "calls", "step"),
    ("simgraph.edge_density", "ratio", "simgraph.threshold", "counter:edge_density", "focus"),
    ("simgraph.gflop_fwd", "GFLOP", ("simgraph.similarity", "simgraph.gcn_fwd"),
     "unit_gflop", "focus"),
    ("simgraph.gflop_bwd", "GFLOP", ("simgraph.similarity_bwd", "simgraph.gcn_bwd"),
     "unit_gflop", "step"),
    ("head.fwd_ms", "ms", "head.fwd", "self_ms", "focus"),
    ("head.fwd_calls", "count", "head.fwd", "calls", "focus"),
    ("head.bwd_ms", "ms", "head.bwd", "self_ms", "step"),
    ("head.bwd_calls", "count", "head.bwd", "calls", "step"),
    ("numeric.adam_ms_per_step", "ms", "numeric.adam", "unit_sum_ms", "step"),
    ("numeric.adam_calls_per_step", "count", "numeric.adam", "unit_calls", "step"),
    ("model.fwd_train_self_ms", "ms", "model.fwd_train", "self_ms", "step"),
    ("model.fwd_train_calls", "count", "model.fwd_train", "calls", "step"),
    ("model.bwd_self_ms", "ms", "model.bwd", "self_ms", "step"),
    ("model.bwd_calls", "count", "model.bwd", "calls", "step"),
    ("model.dropout_masks_ms", "ms", "model.dropout_masks", "self_ms", "step"),
    ("model.dropout_masks_calls", "count", "model.dropout_masks", "calls", "step"),
    ("model.fwd_eval_self_ms", "ms", "model.fwd_eval", "self_ms", "score"),
    ("model.fwd_eval_calls", "count", "model.fwd_eval", "calls", "score"),
    ("metrics.report_ms", "ms", "metrics.report", "dur_ms", "all"),
    ("metrics.report_calls", "count", "metrics.report", "calls", "all"),
    ("data.load_s", "s", "data.load", "dur_s", "all"),
    ("data.load_calls", "count", "data.load", "calls", "all"),
    ("data.prep_s", "s", "data.prep", "dur_s", "all"),
    ("data.prep_calls", "count", "data.prep", "calls", "all"),
    ("checkpoint.save_ms", "ms", "checkpoint.save", "dur_ms", "all"),
    ("checkpoint.save_calls", "count", "checkpoint.save", "calls", "all"),
    ("checkpoint.load_ms", "ms", "checkpoint.load", "dur_ms", "all"),
    ("checkpoint.load_calls", "count", "checkpoint.load", "calls", "all"),
)

PER_LAYER_UNITS = tuple((name, unit) for name, unit, *_ in PER_LAYER) + (
    ("encoder.gflops_achieved", "GFLOP/s"),
    ("train.val_score_ms", "ms"),
    ("train.val_score_calls", "count"),
    ("data.rows_per_s", "1/s"),
    ("checkpoint.bytes", "bytes"),
    ("trace.step_self_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

# Every workload trains (score-4096 for its checkpoint), sets up and scores.
EXPECTED_SPANS = ({name for _m, _a, name, _p in LAYERS} | {name for _m, _a, name in BOUNDARIES}
                  | {"data.load", "data.prep", "checkpoint.save", "checkpoint.load"})


def span_cost(calls: int = 2000, rounds: int = 5) -> float:
    """Seconds one wrapped layer call adds over a plain call, on a no-op."""
    def noop(x):
        return x

    tracer = Tracer("calibration", full=True)
    wrapped = _wrap_layer(tracer, noop, "noop", None)
    costs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return median(costs)


def layer_metrics(tracer: Tracer, focus: str) -> tuple[dict, dict]:
    """Per-layer values from a full tracer; returns (metrics, call counts).

    ``focus`` is the unit span name the workload optimises: ``step`` or
    ``score_call``.
    """
    index = SpanIndex(tracer.spans)
    contexts = {"focus": (focus,), "step": (STEP,), "score": (SCORE_CALL,), "all": None}
    values: dict[str, float] = {}
    calls: dict[str, int] = {}
    for metric, _unit, span_names, stat, context in PER_LAYER:
        within = contexts[context]
        names = span_names if isinstance(span_names, tuple) else (span_names,)
        spans = [s for n in names for s in index.named(n, within)]
        calls[metric] = len(spans)
        if stat == "self_ms":
            v = median(index.self_time[s.sid] * 1e3 for s in spans)
        elif stat == "dur_ms":
            v = median(s.duration * 1e3 for s in spans)
        elif stat == "dur_s":
            v = median(s.duration for s in spans)
        elif stat == "calls":
            v = float(len(spans))
        elif stat.startswith("counter:"):
            key = stat.split(":", 1)[1]
            v = median(s.counters[key] for s in spans if s.counters and key in s.counters)
        else:
            per_unit: dict[int, float] = {}
            for s in spans:
                unit = index.unit_of(s, within).sid
                if stat == "unit_gflop":
                    add = (s.counters or {}).get("flop", 0.0) / 1e9
                elif stat == "unit_sum_ms":
                    add = s.duration * 1e3
                else:
                    add = 1.0
                per_unit[unit] = per_unit.get(unit, 0.0) + add
            v = median(per_unit.values())
        values[metric] = v

    enc = [s for n in ("encoder.fwd", "encoder.bwd") for s in index.named(n, (focus,))]
    enc_time = sum(index.self_time[s.sid] for s in enc)
    enc_flop = sum((s.counters or {}).get("flop", 0.0) for s in enc)
    values["encoder.gflops_achieved"] = enc_flop / enc_time / 1e9 if enc_time > 0 else 0.0

    val = [s for s in index.named("model.fwd_eval")
           if s.parent is not None and s.parent.name == "train"]
    values["train.val_score_ms"] = median(s.duration * 1e3 for s in val)
    values["train.val_score_calls"] = float(len(val))
    calls["train.val_score_ms"] = len(val)

    loads = index.named("data.load")
    rows = [s.counters["rows"] / s.duration for s in loads if s.counters]
    values["data.rows_per_s"] = median(rows)

    saves = [s for s in index.named("checkpoint.save") if s.counters]
    values["checkpoint.bytes"] = float(saves[-1].counters["bytes"]) if saves else 0.0

    steps = index.named(STEP)
    values["trace.step_self_frac"] = median(
        index.self_time[s.sid] / s.duration for s in steps if s.duration > 0)
    # Time tracing added inside the focus units: the probes as measured,
    # plus a calibrated cost per span.  Comparing the traced pass with the
    # untraced one measures the machine's drift between the two instead;
    # on a shared 2-core host that read anywhere from -25% to +13%.
    total = sum(s.duration for s in index.named(focus))
    inside = [s for s in tracer.spans
              if s.name != focus and index.unit_of(s, (focus,)) is not None]
    added = (sum(s.duration for s in inside if s.name == PROBE)
             + span_cost() * len(inside))
    values["trace.overhead_frac"] = added / (total - added) if total > added else 0.0

    present = {s.name for s in tracer.spans}
    for name in sorted(EXPECTED_SPANS - present):
        tracer.warn(f"span {name} was never recorded; its metrics read as zero-count")
    return values, calls
