"""In-memory span tracer wrapped around each layer's public functions.

The traced run of the benchmark installs a :class:`Tracer`: every
function in :data:`SPANS` is replaced, at the module binding its caller
uses, by a wrapper that records one span (name, start, end, parent span,
request id). Spans stay in memory; a span's *self time* is its duration
minus the time its direct child spans cover, and :meth:`Tracer.dump`
writes every span out when the run ends. Deterministic work counters come
from public attributes (``RequirementCache.hits/misses``, the
``MakespanEvaluator`` counters), harvested after each ``solve()``.

An untraced run never installs it, so the library runs unpatched.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: span name -> (module, attribute) bindings wrapped for it. Each binding
#: is the one the calling layer looks up at call time, so the wrapper sees
#: exactly the calls that layer makes.
SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "partition": (("repro.core.heuristic", "acyclic_partition"),),
    "partition.coarsen": (("repro.partition.api", "coarsen"),),
    "partition.refine": (("repro.partition.api", "refine"),),
    "partition.initial": (("repro.partition.api", "initial_partition"),),
    "core.assign": (("repro.core.heuristic", "biggest_assign"),),
    "core.assign.bisect": (("repro.core.assignment", "bisect_block"),),
    "core.merge": (("repro.core.heuristic", "merge_unassigned_to_assigned"),),
    "core.swaps": (("repro.core.heuristic", "improve_by_swaps"),),
    "core.idle": (("repro.core.heuristic", "move_critical_to_idle"),),
    "memdag.best_first": (("repro.memdag.traversal", "best_first_traversal"),),
    "memdag.layered": (("repro.memdag.traversal", "layered_traversal"),),
    "memdag.sp": (("repro.memdag.traversal", "sp_traversal"),),
}

#: call-count-only bindings (too hot for a span each)
COUNTS: Dict[str, Tuple[str, str]] = {
    "partition.safe_to_contract": ("repro.partition.coarsen",
                                   "safe_to_contract"),
}

#: the public methods of MakespanEvaluator, all traced as core.evaluator
EVALUATOR_METHODS = ("makespan", "bottom_weights", "critical_path",
                     "invalidate", "eval_move", "eval_swap", "apply_move",
                     "apply_swap")

#: block-memory traversal front-ends (Step 2/3 cache and the DagHetMem
#: whole-workflow traversal)
TRAVERSAL_BINDINGS = (("repro.memdag.requirement", "memdag_traversal"),
                      ("repro.core.baseline", "memdag_traversal"))

#: the solve façade, at the binding the benchmark (repro.api) and the
#: service's execution backends (repro.api.batch) call
SOLVE_BINDINGS = (("repro.api", "solve"), ("repro.api.batch", "solve"))

EVALUATOR_COUNTERS = ("full_recomputes", "delta_syncs", "vertices_recomputed")


class Tracer:
    """Records nested spans per thread and aggregates them per name."""

    def __init__(self):
        #: (name, start, end, parent span index or -1, request id)
        self.spans: List[Optional[Tuple[str, float, float, int, Any]]] = []
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.request_id: Any = None
        self.solve_overhead_s = 0.0
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []
        self._caches: List[Any] = []
        self._evaluators: List[Any] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(None)
        # frame: [start, child seconds, span index, parent index, name,
        #         first peak computed directly inside this span]
        frame = [0.0, 0.0, index, stack[-1][2] if stack else -1, name, None]
        stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        start, child, index, parent, name, _ = frame
        duration = end - start
        if stack:
            stack[-1][1] += duration
        self.spans[index] = (name, start, end, parent, self.request_id)
        entry = self.totals[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child

    def _exclude(self, seconds: float) -> None:
        """Charge tracer bookkeeping to no layer: the enclosing span
        treats it as time a child covered."""
        stack = self._stack()
        if stack:
            stack[-1][1] += seconds

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a call the benchmark makes itself."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._restore.append((owner, attr, original))

    def _spanned(self, name: str) -> Callable[[Callable], Callable]:
        def make(fn):
            def wrapper(*args, **kwargs):
                frame = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(frame)
            return wrapper
        return make

    def _counted(self, name: str) -> Callable[[Callable], Callable]:
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _traversal(self, fn):
        """memdag_traversal: a span, the winning engine, and whether the
        best-first order already met the lower bound max r_u."""
        def wrapper(wf, block=None, *args, **kwargs):
            frame = self._open("memdag.traversal")
            try:
                result = fn(wf, block, *args, **kwargs)
            finally:
                self._close(frame)
            started = time.perf_counter()
            tasks = wf.tasks() if block is None else block
            lower = max((wf.task_requirement(u) for u in tasks), default=0.0)
            self.counts[f"memdag.win.{result.method}"] += 1
            if frame[5] == lower:
                self.counts["memdag.lb_hit"] += 1
            self._exclude(time.perf_counter() - started)
            return result
        return wrapper

    def _peak(self, fn):
        """peak_of_traversal: a span; remembers the first peak computed
        inside each traversal (the best-first candidate's)."""
        def wrapper(*args, **kwargs):
            frame = self._open("memdag.peak")
            try:
                peak = fn(*args, **kwargs)
            finally:
                self._close(frame)
            stack = self._stack()
            if stack and stack[-1][4] == "memdag.traversal" \
                    and stack[-1][5] is None:
                stack[-1][5] = peak
            return peak
        return wrapper

    def _solve(self, fn):
        """The solve façade: a span, the façade's own overhead, and the
        work counters of every cache/evaluator the solve created."""
        def wrapper(request):
            frame = self._open("api.solve")
            try:
                result = fn(request)
            finally:
                self._close(frame)
            wall = self.spans[frame[2]][2] - self.spans[frame[2]][1]
            self.solve_overhead_s += wall - result.runtime
            self.counts["api.solve.calls"] += 1
            self._harvest()
            return result
        return wrapper

    def _collect(self, bucket: List[Any]):
        def make(init):
            def wrapper(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                bucket.append(obj)
            return wrapper
        return make

    def _harvest(self) -> None:
        for cache in self._caches:
            self.counts["memdag.cache.hits"] += cache.hits
            self.counts["memdag.cache.misses"] += cache.misses
        for evaluator in self._evaluators:
            for counter in EVALUATOR_COUNTERS:
                self.counts[f"core.evaluator.{counter}"] += getattr(
                    evaluator, counter)
        self._caches.clear()
        self._evaluators.clear()

    def install(self) -> "Tracer":
        """Wrap every layer binding; :meth:`uninstall` restores them."""
        mod = importlib.import_module
        for name, bindings in SPANS.items():
            for module, attr in bindings:
                self._patch(mod(module), attr, self._spanned(name))
        for name, (module, attr) in COUNTS.items():
            self._patch(mod(module), attr, self._counted(name))
        for module, attr in TRAVERSAL_BINDINGS:
            self._patch(mod(module), attr, self._traversal)
        self._patch(mod("repro.memdag.traversal"), "peak_of_traversal",
                    self._peak)
        for module, attr in SOLVE_BINDINGS:
            self._patch(mod(module), attr, self._solve)

        evaluator = mod("repro.core.evaluator").MakespanEvaluator
        for method in EVALUATOR_METHODS:
            self._patch(evaluator, method, self._spanned("core.evaluator"))
        self._patch(evaluator, "__init__", self._collect(self._evaluators))
        cache = mod("repro.memdag.requirement").RequirementCache
        self._patch(cache, "__init__", self._collect(self._caches))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def self_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def calls(self, name: str) -> int:
        return int(self.totals[name][0]) if name in self.totals else 0

    def snapshot(self) -> Dict[str, Any]:
        """Aggregates only (what a traced server hands back)."""
        return {"totals": {k: list(v) for k, v in self.totals.items()},
                "counts": dict(self.counts),
                "solve_overhead_s": self.solve_overhead_s}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        for name, (calls, total, own) in snapshot["totals"].items():
            entry = self.totals[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        self.counts.update(snapshot["counts"])
        self.solve_overhead_s += snapshot["solve_overhead_s"]

    def dump(self, path: str) -> int:
        """Write every span as one JSON line (gzip); returns the count."""
        written = 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue  # still open: a call that never returned
                name, start, end, parent, request = span
                fh.write(json.dumps([index, parent, name, start, end,
                                     request]) + "\n")
                written += 1
        return written


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics derivable from spans and counters."""
    counts = tracer.counts
    traversals = tracer.calls("memdag.traversal")
    lookups = counts["memdag.cache.hits"] + counts["memdag.cache.misses"]
    solves = counts["api.solve.calls"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "partition.self_s": tracer.self_s("partition"),
        "partition.calls": tracer.calls("partition"),
        "partition.coarsen.self_s": tracer.self_s("partition.coarsen"),
        "partition.coarsen.calls": tracer.calls("partition.coarsen"),
        "partition.refine.self_s": tracer.self_s("partition.refine"),
        "partition.initial.self_s": tracer.self_s("partition.initial"),
        "partition.safe_to_contract.calls":
            counts["partition.safe_to_contract"],
        "core.assign.self_s": tracer.self_s("core.assign"),
        "core.assign.bisect.calls": tracer.calls("core.assign.bisect"),
        "core.merge.self_s": tracer.self_s("core.merge"),
        "core.merge.calls": tracer.calls("core.merge"),
        "core.swaps.self_s": tracer.self_s("core.swaps"),
        "core.idle.self_s": tracer.self_s("core.idle"),
        "core.evaluator.self_s": tracer.self_s("core.evaluator"),
        "core.evaluator.calls": tracer.calls("core.evaluator"),
        "memdag.traversal.calls": traversals,
        "memdag.cache.hit_ratio": ratio(counts["memdag.cache.hits"], lookups),
        "memdag.best_first.self_s": tracer.self_s("memdag.best_first"),
        "memdag.layered.self_s": tracer.self_s("memdag.layered"),
        "memdag.sp.self_s": tracer.self_s("memdag.sp"),
        "memdag.peak.self_s": tracer.self_s("memdag.peak"),
        "memdag.layered.win_ratio":
            ratio(counts["memdag.win.layered"], traversals),
        "memdag.sp.win_ratio": ratio(counts["memdag.win.sp"], traversals),
        "memdag.lb_hit_ratio": ratio(counts["memdag.lb_hit"], traversals),
        "api.solve.overhead_ms": ratio(1000.0 * tracer.solve_overhead_s,
                                       solves),
        "ingest.load.self_s": tracer.self_s("ingest.load"),
        "ingest.load.calls": tracer.calls("ingest.load"),
        "generators.generate.self_s": tracer.self_s("generators.generate"),
    }
    for counter in EVALUATOR_COUNTERS:
        metrics[f"core.evaluator.{counter}"] = \
            counts[f"core.evaluator.{counter}"]
    return metrics
