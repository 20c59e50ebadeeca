"""In-memory span tracer that wraps stochgraph's layer entry points.

The package itself carries no instrumentation.  ``Tracer.install`` replaces
each entry point listed in ``ENTRY_POINTS`` with a wrapper that records a span
(name, start, end, parent) and a few counters, and ``Tracer.uninstall`` puts
the originals back, so untraced runs execute the unmodified code.

Names bound with ``from .x import y`` live in every importing module, so each
such binding is wrapped separately (for example ``stochgraph.oracle._mst_indices``
as well as ``stochgraph.solvers._mst_indices``).  Methods are wrapped on their
class.  Spans are kept on a per-thread stack; the Monte Carlo engine's thread
pool is replaced by an executor that hands the submitting thread's span to the
worker thread, so block spans keep their parent.
"""

from __future__ import annotations

import importlib
import inspect
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

# (module, attribute or "Class.method", span name)
ENTRY_POINTS = [
    ("stochgraph.rng", "SampleStream.uniforms", "rng.uniforms"),
    ("stochgraph.sampling", "ConditionalSampler.__init__", "sampling.build"),
    ("stochgraph.sampling", "ConditionalSampler.draw_block", "sampling.draw_block"),
    ("stochgraph.mc", "run_conditional_mc", "mc.run"),
    ("stochgraph.cc", "run_conditional_mc", "mc.run"),
    ("stochgraph.oracle", "enumerate_term", "oracle.enumerate"),
    ("stochgraph.oracle", "FunctionalEvaluator.value", "oracle.eval"),
    ("stochgraph.oracle", "FunctionalEvaluator._compute", "oracle.compute"),
    ("stochgraph.solvers", "_mst_indices", "solvers.mst"),
    ("stochgraph.solvers", "_mpm_indices", "solvers.mpm"),
    ("stochgraph.solvers", "_cc_indices", "solvers.cc"),
    ("stochgraph.solvers", "_nn_indices", "solvers.nn"),
    ("stochgraph.oracle", "_mst_indices", "solvers.mst"),
    ("stochgraph.oracle", "_mpm_indices", "solvers.mpm"),
    ("stochgraph.oracle", "_cc_indices", "solvers.cc"),
    ("stochgraph.oracle", "_nn_indices", "solvers.nn"),
    ("stochgraph.cc", "_cc_indices", "solvers.cc"),
    ("stochgraph.cc", "_nn_indices", "solvers.nn"),
    ("stochgraph.mst_home", "find_home", "mst_home.find_home"),
    ("stochgraph.mpm", "find_home_clusters", "mpm.find_home_clusters"),
    ("stochgraph.cc", "split_points", "cc.split_points"),
    ("stochgraph.mst_dp", "split_points", "cc.split_points"),
    ("stochgraph.cc", "prob_nearest", "cc.prob"),
    ("stochgraph.cc", "prob_mutual_nearest", "cc.prob"),
    ("stochgraph.cc", "_PairValues.get", "cc.pair_values"),
    ("stochgraph.cc", "estimate_pair_term", "cc.pair_term"),
    ("stochgraph.mst_dp", "estimate_conditional", "mst_dp.leaf"),
    ("stochgraph.generate", "gen_instance", "generate"),
    ("stochgraph.generate", "instance_from_dict", "model.load"),
    ("stochgraph.model", "instance_from_dict", "model.load"),
]


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional["Span"]
    root: str  # label of the outermost span (the benchmark operation)
    cpu: float = 0.0  # process CPU seconds inside the span (mc.run only)


class _TracingExecutor(ThreadPoolExecutor):
    """Thread pool whose tasks start under the submitting thread's span."""

    tracer: "Tracer"

    def submit(self, fn, /, *args, **kwargs):
        parent = self.tracer._current()

        def run(*a, **kw):
            local = self.tracer._local
            saved = getattr(local, "stack", None)
            local.stack = [parent] if parent is not None else []
            try:
                return fn(*a, **kw)
            finally:
                local.stack = saved

        return super().submit(run, *args, **kwargs)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # entry points this version lacks

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns (result, span)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(name, 0.0, 0.0, parent, parent.root if parent else name)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            return fn(*args, **kwargs), sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module_name, attr, span_name in ENTRY_POINTS:
            owner, name = _resolve(module_name, attr)
            original = getattr(owner, "__dict__", {}).get(name)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrapper(span_name, original))
        mc = importlib.import_module("stochgraph.mc")
        executor = type("TracingExecutor", (_TracingExecutor,), {"tracer": self})
        self._saved.append((mc, "ThreadPoolExecutor", mc.ThreadPoolExecutor))
        mc.ThreadPoolExecutor = executor

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrapper(self, span_name: str, original: Callable) -> Callable:
        hook = _HOOKS.get(span_name)
        signature = inspect.signature(original) if hook else None
        tracer = self

        def wrapper(*args, **kwargs):
            after = None
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                after = hook(tracer, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            result, sp = tracer.span(span_name, original, *args, **kwargs)
            if after is not None:
                after(result, sp)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """id(span) -> span duration minus the time its children cover."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(id(sp.parent), []).append(sp)
        return {
            id(sp): (sp.end - sp.start) - _covered(sp, children.get(id(sp), []))
            for sp in self.spans
        }

    def drain(self) -> dict[tuple[str, str], list[float]]:
        """Totals of the finished spans, then forget them.

        Returns (root, span name) -> [calls, seconds, self seconds, CPU
        seconds]; the counters are returned under ("", counter name) as
        [count, 0, 0, 0].  Call only when no span is open.
        """
        selfs = self.self_times()
        out: dict[tuple[str, str], list[float]] = {}
        for sp in self.spans:
            row = out.setdefault((sp.root, sp.name), [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += sp.end - sp.start
            row[2] += selfs[id(sp)]
            row[3] += sp.cpu
        for key, amount in self.counts.items():
            out[("", key)] = [amount, 0.0, 0.0, 0.0]
        self.spans = []
        self.counts = {}
        return out


def deterministic_terms(totals: dict) -> float:
    """Terms whose event pins every node, from drained totals.

    Every sampled term builds one ConditionalSampler; the pinned ones are
    evaluated once and report one sample without entering the Monte Carlo
    engine.  So the samples reports show equal ``mc.samples`` plus this.
    """

    def calls(name):
        return sum(row[0] for (_root, n), row in totals.items() if n == name)

    return calls("sampling.build") - calls("mc.run")


def _covered(parent: Span, kids: list[Span]) -> float:
    """Length of the union of the children's intervals, clipped to the parent.

    Children may overlap when they ran on different pool threads.
    """
    total = 0.0
    reach = parent.start
    for k in sorted(kids, key=lambda s: s.start):
        lo, hi = max(k.start, reach), min(k.end, parent.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _resolve(module_name: str, attr: str):
    """(object holding the attribute, attribute name); the holder is None
    when a class on the path does not exist."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, name


# -- per-entry-point counters ------------------------------------------------
# A hook sees the call's arguments by parameter name before the call, may
# replace them, and may return a callback that sees the result and the span.


def _draw_block_hook(tracer, a):
    rows = int(a["count"])
    tracer.count("sampling.rows", rows)
    tracer.count("rng.useful_draws", rows * a["self"].g.n)
    tracer.count("rng.stream_draws", rows * a["stream"].width)


def _mc_hook(tracer, a):
    n_samples = a["n_samples"]
    block = importlib.import_module("stochgraph.mc").BLOCK_SIZE
    tracer.count("mc.samples", n_samples)
    tracer.count("mc.blocks", math.ceil(n_samples / block))
    class_fn = a["class_fn"]

    def counted(row):
        tracer.count("mc.classes")
        return class_fn(row)

    a["class_fn"] = counted
    cpu0 = time.process_time()

    def after(_result, sp):
        sp.cpu = time.process_time() - cpu0

    return after


def _enumerate_hook(tracer, _a):
    def after(result, _sp):
        tracer.count("oracle.realizations", result[1])

    return after


_HOOKS = {
    "sampling.draw_block": _draw_block_hook,
    "mc.run": _mc_hook,
    "oracle.enumerate": _enumerate_hook,
}
