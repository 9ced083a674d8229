"""Span tracing of rklab's module boundaries, installed from outside the package.

``Tracer.install`` replaces every public function of each traced module, at
every place a traced module binds it, with a wrapper that records a span.  A
span is named after the binding the caller uses (``harnesses.run_epochs``,
``diagnostics.run_traces_final``) and belongs to the layer that defines the
function (``batch``).  Counts of work are recorded at the same boundaries,
from the call's arguments and result, inside a ``trace`` span of their own so
that their cost shows as tracing overhead instead of inflating a layer.

A layer's self time is the duration of its spans minus the part covered by
their child spans; its busy time is the duration of its outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types

# pathsim is a test oracle on no workload's path; selftest and errors hold no
# work of their own.
LAYERS = ("cli", "config", "harnesses", "diagnostics", "batch", "gaussfield",
          "chains", "stats", "reporting")


class Span:
    __slots__ = ("index", "name", "layer", "parent", "outer", "kind", "work",
                 "start", "end", "child")

    def __init__(self, index, name, layer, parent, outer, kind):
        self.index = index
        self.name = name
        self.layer = layer
        self.parent = parent
        self.outer = outer      # no enclosing span of the same layer
        self.kind = kind        # "engine", "sample", "factor" or None
        self.work = None        # counts recorded at this boundary
        self.start = self.end = 0.0
        self.child = 0.0        # summed duration of direct child spans

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = dict.fromkeys(LAYERS + ("trace",), 0)

    # recording ---------------------------------------------------------------

    def _open(self, name, layer, kind=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, parent,
                    self._active[layer] == 0, kind)
        self.spans.append(span)
        self._stack.append(span)
        self._active[layer] += 1
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        self._active[span.layer] -= 1
        if span.parent is not None:
            span.parent.child += span.duration

    def wrap(self, fn, name, layer):
        params = set(inspect.signature(fn).parameters)
        kind = None
        if layer == "batch" and {"kernel", "rng"} <= params:
            kind = "engine"
        elif layer == "gaussfield" and "rng" in params:
            kind = "sample"
        observe = _observer(fn, layer, params)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer, kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                cost = tracer._open("trace.observe", "trace")
                try:
                    observe(span, args, kwargs, result)
                finally:
                    tracer._close(cost)
            return result

        return traced

    def install(self, package="rklab"):
        """Wrap the public functions of every traced module of ``package``."""
        modules = {name: importlib.import_module(f"{package}.{name}")
                   for name in LAYERS}
        for caller, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                owner = value.__module__.rpartition(".")[2]
                if value.__module__.startswith(package + ".") and owner in modules:
                    setattr(module, attr,
                            self.wrap(value, f"{caller}.{attr}", owner))
        # the CLI reaches the identity harnesses through this dict
        registry = modules["harnesses"].REGISTRY
        for key, fn in registry.items():
            registry[key] = self.wrap(fn, f"harnesses.{fn.__name__}",
                                      "harnesses")

    def span_cost(self, calls=20000):
        """Seconds a recorded span adds to one call, from a wrapped no-op
        timed against the bare one; the spans it records are dropped."""
        def noop():
            return None

        traced = self.wrap(noop, "trace.noop", "trace")
        first = len(self.spans)
        t = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - t
        del self.spans[first:]
        return (wrapped - bare) / calls

    # reporting ---------------------------------------------------------------

    def summary(self, t0, t1, span_cost):
        """Per-layer metrics over the spans inside [t0, t1], plus the parse
        time of ``config`` spans wherever they fall, and the self-time table.
        ``span_cost`` (see ``span_cost``) prices the computed overhead."""
        inside = [s for s in self.spans if s.start >= t0 and s.end <= t1]
        self_s = dict.fromkeys(LAYERS + ("trace",), 0.0)
        busy = dict.fromkeys(LAYERS, 0.0)
        work = {}
        for s in inside:
            self_s[s.layer] += s.duration - s.child
            if s.outer and s.layer in busy:
                busy[s.layer] += s.duration
            for key, value in (s.work or {}).items():
                work[key] = max(work.get(key, 0), value) if key == "states" \
                    else work.get(key, 0) + value
        engine = [s for s in inside if s.kind == "engine"]
        engine_s = sum(s.duration for s in engine)
        factor = [s for s in inside if s.kind == "factor"]
        sample_s = sum(s.duration for s in inside if s.kind == "sample"
                       and (s.parent is None or s.parent.kind != "sample"))
        lanes = work.get("lanes", 0)
        events = work.get("events", 0.0)
        wall = t1 - t0
        metrics = {
            "batch.busy_s": engine_s,
            "batch.calls": len(engine),
            "batch.lanes": lanes,
            "batch.lanes_per_s": lanes / engine_s if engine_s else 0.0,
            "batch.lives": work.get("lives", 0),
            "batch.abandoned_lanes": work.get("abandoned", 0),
            "batch.events_est": events,
            "batch.events_per_s": events / engine_s if engine_s else 0.0,
            "gaussfield.factor_s": sum(s.duration for s in factor),
            "gaussfield.factor_calls": len(factor),
            "gaussfield.sample_s": sample_s,
            "gaussfield.draws": work.get("draws", 0),
            "gaussfield.gflop": work.get("flop", 0) / 1e9,
            "chains.busy_s": busy["chains"],
            "chains.max_states": work.get("states", 0),
            "stats.busy_s": busy["stats"],
            "harnesses.self_s": self_s["harnesses"],
            "diagnostics.self_s": self_s["diagnostics"],
            "reporting.busy_s": busy["reporting"],
            "config.parse_s": sum(s.duration for s in self.spans
                                  if s.layer == "config" and s.outer),
            "trace.wall_s": wall,
            "trace.untraced_s": wall - sum(self_s.values()),
            "trace.self_s": self_s["trace"],
            "trace.spans": len(inside),
            "trace.overhead_est_s": len(inside) * span_cost + self_s["trace"],
        }
        return metrics, self_s

    def dump(self, path, t0):
        rows = [[s.name, s.layer, s.start - t0, s.end - t0,
                 None if s.parent is None else s.parent.index]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "layer", "start_s", "end_s",
                                   "parent"], "spans": rows}, fh)


# counts recorded at the boundaries --------------------------------------------

def _observer(fn, layer, params):
    if layer == "batch" and {"kernel", "rng"} <= params:
        signature = inspect.signature(fn)
        return functools.partial(_observe_engine, signature)
    if layer == "gaussfield" and {"factor", "size"} <= params:
        signature = inspect.signature(fn)
        return functools.partial(_observe_draws, signature)
    if layer == "gaussfield":
        return _observe_factor
    if layer == "chains":
        return _observe_states
    return None


def _observe_engine(signature, span, args, kwargs, result):
    """Lanes, lives, abandoned lanes and an event estimate of one engine call.

    The event estimate sums local time x measure x total jump rate, i.e.
    holding time x rate, over every lane and state (computed, not counted).
    """
    bound = signature.bind(*args, **kwargs).arguments
    kernel = bound["kernel"]
    starts = bound.get("starts", bound.get("start"))
    work = {"lanes": len(starts)}
    if "epochs" in result:
        work["lives"] = int(result["epochs"].sum())
    if "stop_epoch" in result:
        work["abandoned"] = int((result["stop_epoch"] == 0).sum())
    field = result.get("field", result.get("fields"))
    if field is not None:
        occupation = field.reshape(-1, kernel.n).sum(axis=0)
        work["events"] = float(occupation @ (kernel.m * kernel.total_rate))
    span.work = work


def _observe_draws(signature, span, args, kwargs, result):
    bound = signature.bind(*args, **kwargs).arguments
    factor, rows = bound["factor"], bound["size"]
    span.work = {"draws": rows * factor.dim,
                 "flop": 2 * rows * factor.rank * factor.dim}


def _observe_factor(span, args, kwargs, result):
    if hasattr(result, "root"):
        span.kind = "factor"


def _observe_states(span, args, kwargs, result):
    states = getattr(result, "n_states", None)
    if states is None and hasattr(result, "table"):
        states = result.table.shape[0]
    if states is not None:
        span.work = {"states": states}
