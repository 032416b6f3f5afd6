"""Memory semantics of executing a block of a workflow on one processor.

The model (DESIGN.md Section 6) generalizes the paper's single-task
requirement ``r_u = sum_in c + sum_out c + m_u`` to multi-task blocks:

* an **internal** edge ``(u, v)`` (both endpoints inside the block) occupies
  ``c_{u,v}`` bytes from the completion of ``u`` to the completion of ``v``;
* an **external input** ``(x, u)`` (``x`` outside the block) occupies
  ``c_{x,u}`` only while ``u`` executes;
* an **external output** ``(u, y)`` (``y`` outside) occupies ``c_{u,y}``
  from the completion of ``u`` until the whole block finishes;
* while ``u`` executes, its own ``m_u`` plus all its output files are
  resident (outputs are being written).

For a traversal ``sigma`` the peak is ``max_t [ live_before(t) +
ext_in(sigma_t) + m_{sigma_t} + out(sigma_t) ]``; a singleton block
reduces to ``r_u`` exactly.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

from repro.workflow.graph import Workflow

Node = Hashable


class TraversalState:
    """Incremental evaluation of a traversal of one block.

    ``execute(u)`` returns the memory usage *during* u's execution and
    updates the resident-set size. The caller is responsible for feeding
    tasks in an order that is topological w.r.t. the block-internal edges
    (checked in debug mode via :meth:`ready`).
    """

    __slots__ = ("wf", "block", "live", "peak", "executed", "_pending_preds")

    def __init__(self, wf: Workflow, block: Optional[Set[Node]] = None):
        self.wf = wf
        self.block: Set[Node] = set(block) if block is not None else set(wf.tasks())
        self.live = 0.0
        self.peak = 0.0
        self.executed: Set[Node] = set()
        # number of not-yet-executed block-internal predecessors per task
        self._pending_preds: Dict[Node, int] = {
            u: sum(1 for p in wf.parents(u) if p in self.block) for u in self.block
        }

    def ready(self, u: Node) -> bool:
        """True when all block-internal parents of ``u`` have executed."""
        return self._pending_preds[u] == 0 and u not in self.executed

    def usage_if_executed(self, u: Node) -> float:
        """Memory usage during ``u``'s execution if it ran right now."""
        return self.live + self._ext_in(u) + self.wf.memory(u) + self.wf.out_cost(u)

    def delta_if_executed(self, u: Node) -> float:
        """Change of resident-set size after ``u`` completes (out - freed in)."""
        freed = 0.0
        for p, c in self.wf.in_edges(u):
            if p in self.block:
                freed += c
        return self.wf.out_cost(u) - freed

    def execute(self, u: Node) -> float:
        """Run ``u``; returns usage during execution, updates live/peak."""
        if u not in self.block:
            raise KeyError(f"task {u!r} is not in the block")
        if not self.ready(u):
            raise ValueError(f"task {u!r} executed before its in-block parents")
        usage = self.usage_if_executed(u)
        self.live += self.delta_if_executed(u)
        self.peak = max(self.peak, usage)
        self.executed.add(u)
        for v in self.wf.children(u):
            if v in self.block:
                self._pending_preds[v] -= 1
        return usage

    def ready_tasks(self) -> List[Node]:
        """All currently executable tasks (deterministic order)."""
        return [u for u in self.block if u not in self.executed and self._pending_preds[u] == 0]

    def complete(self) -> bool:
        return len(self.executed) == len(self.block)

    def _ext_in(self, u: Node) -> float:
        # summed left to right like BlockStatics: builtin sum() of floats
        # is compensated from Python 3.12 on, which would let the two
        # disagree in the last bit
        ext_in = 0.0
        for p, c in self.wf.in_edges(u):
            if p not in self.block:
                ext_in += c
        return ext_in


class BlockStatics:
    """Per-task static quantities of one block, built in one pass.

    ``ext_in``, ``m`` and ``out`` are the three terms of a task's usage
    while it runs; ``a = ext_in + m + out`` is its activation and
    ``delta = out - freed`` the net change of the resident set after it
    completes (see segments.py). ``n_parents`` counts in-block parents and
    ``children`` lists in-block children in ``wf.children`` order. Every
    sum runs left to right over ``wf.in_edges``, exactly like
    :class:`TraversalState`, so :meth:`peak` is bit-identical to
    ``max(evaluate_traversal(...))``.

    ``block`` is a fresh set of the given tasks (default: all of them).
    Engines iterate it wherever set order reaches their output, so one
    shared instance gives the same orders as one built per engine. Nothing
    here changes after construction.
    """

    __slots__ = ("block", "ext_in", "m", "out", "a", "delta", "n_parents",
                 "children")

    block: Set[Node]
    ext_in: Dict[Node, float]
    m: Dict[Node, float]
    out: Dict[Node, float]
    a: Dict[Node, float]
    delta: Dict[Node, float]
    n_parents: Dict[Node, int]
    children: Dict[Node, List[Node]]

    def __init__(self, wf: Workflow, block: Optional[Iterable[Node]] = None):
        self.block = block = set(block if block is not None else wf.tasks())
        self.ext_in = ext_ins = {}
        self.m = ms = {}
        self.out = outs = {}
        self.a = a = {}
        self.delta = delta = {}
        self.n_parents = parents = {}
        self.children = children = {}
        in_edges, wf_children = wf.in_edges, wf.children
        memory, out_cost = wf.memory, wf.out_cost
        for u in block:
            ext_in = 0.0
            freed = 0.0
            n_parents = 0
            for p, c in in_edges(u):
                if p in block:
                    freed += c
                    n_parents += 1
                else:
                    ext_in += c
            m = ms[u] = memory(u)
            out = outs[u] = out_cost(u)
            ext_ins[u] = ext_in
            a[u] = ext_in + m + out
            delta[u] = out - freed
            parents[u] = n_parents
            children[u] = [v for v in wf_children(u) if v in block]

    def peak(self, order: Sequence[Node]) -> float:
        """Peak memory of ``order``; raises ``ValueError`` if it is not a
        topological order covering the block exactly once."""
        if len(order) != len(self.block):
            raise ValueError("traversal must cover the block exactly once")
        ext_in, m, out, delta = self.ext_in, self.m, self.out, self.delta
        children = self.children
        # in-block parents not yet run; -1 once the task itself has run
        pending = self.n_parents.copy()
        live = 0.0
        peak = None
        for u in order:
            if pending.get(u) != 0:
                raise ValueError(f"task {u!r} is foreign, repeated or run "
                                 "before its in-block parents")
            pending[u] = -1
            for v in children[u]:
                pending[v] -= 1
            usage = live + ext_in[u] + m[u] + out[u]
            live += delta[u]
            # max() semantics: the first maximum, replaced only when beaten
            if peak is None or usage > peak:
                peak = usage
        return 0.0 if peak is None else peak


def evaluate_traversal(wf: Workflow, order: Sequence[Node],
                       block: Optional[Set[Node]] = None) -> List[float]:
    """Per-step memory usage of ``order``; raises if the order is invalid."""
    block_set = set(block) if block is not None else set(wf.tasks())
    if set(order) != block_set:
        raise ValueError("traversal must cover the block exactly once")
    state = TraversalState(wf, block_set)
    return [state.execute(u) for u in order]


def peak_of_traversal(wf: Workflow, order: Sequence[Node],
                      block: Optional[Set[Node]] = None, *,
                      statics: Optional[BlockStatics] = None) -> float:
    """Peak memory of a traversal (max of :func:`evaluate_traversal`).

    With ``statics`` (built for the same block) the peak comes from one
    flat loop over precomputed per-task terms, bit-identical to the
    :class:`TraversalState` evaluation used without it.
    """
    if statics is not None:
        return statics.peak(order)
    usages = evaluate_traversal(wf, order, block)
    return max(usages) if usages else 0.0


class BlockPackingState:
    """Streaming packer used by the DagHetMem baseline (Section 4.1).

    Walks a fixed global traversal and grows the current block task by
    task, maintaining the block's running peak under the semantics above.
    Edges whose producer lives in an *earlier, already-closed* block are
    external inputs of the current block; edges to not-yet-traversed tasks
    are conservatively retained until the block closes (they are either
    internal-until-consumed or external-output-until-close — both resident).
    """

    def __init__(self, wf: Workflow, capacity: float):
        self.wf = wf
        self.capacity = float(capacity)
        self.live = 0.0
        self.peak = 0.0
        self.tasks: Set[Node] = set()
        self._closed: Set[Node] = set()  # tasks of earlier blocks

    def usage_if_added(self, u: Node) -> float:
        ext_in = sum(c for p, c in self.wf.in_edges(u) if p in self._closed)
        return self.live + ext_in + self.wf.memory(u) + self.wf.out_cost(u)

    def fits(self, u: Node) -> bool:
        return self.usage_if_added(u) <= self.capacity

    def add(self, u: Node) -> float:
        """Append ``u`` to the current block; returns usage during execution."""
        usage = self.usage_if_added(u)
        freed = sum(c for p, c in self.wf.in_edges(u) if p in self.tasks)
        self.live += self.wf.out_cost(u) - freed
        self.peak = max(self.peak, usage)
        self.tasks.add(u)
        return usage

    def close_block(self, capacity: float) -> Set[Node]:
        """Finish the current block and start a new empty one."""
        finished = self.tasks
        self._closed |= finished
        self.tasks = set()
        self.live = 0.0
        self.peak = 0.0
        self.capacity = float(capacity)
        return finished
