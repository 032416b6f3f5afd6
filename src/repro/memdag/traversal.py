"""Traversal generators and the ``memdag_traversal`` front-end.

Three candidate engines, cheapest first:

* :func:`best_first_traversal` — greedy topological order with static
  priorities (memory releasers before producers, smaller activations
  first); works on any DAG, O((n + e) log n).
* :func:`repro.memdag.spize.layered_traversal` — level-synchronized order
  with optimal intra-level interleaving.
* :func:`sp_traversal` — exact series-parallel engine: SP-tree
  decomposition with hill-valley merging of parallel branches; only
  applicable when the (source/sink augmented) block is TTSP.

:func:`memdag_traversal` evaluates the applicable candidates under the real
semantics and returns the best — the returned peak is therefore always the
peak of a *valid* traversal, never an unachievable estimate.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.memdag.model import BlockStatics, peak_of_traversal
from repro.memdag.segments import Segment, decompose_profile, merge_segment_sequences
from repro.memdag.sp_tree import SPTree, sp_decompose
from repro.memdag.spize import layered_traversal
from repro.workflow.graph import Workflow

Node = Hashable

#: blocks larger than this skip the SP engine (decomposition cost dominates)
SP_SIZE_LIMIT = 20_000

#: blocks up to this size may use the exact branch-and-bound engine
EXACT_SIZE_LIMIT = 12


@dataclass(frozen=True)
class TraversalResult:
    """A valid traversal of a block and its peak memory."""

    order: Tuple[Node, ...]
    peak: float
    method: str


def best_first_traversal(wf: Workflow, block: Optional[Set[Node]] = None, *,
                         statics: Optional[BlockStatics] = None) -> List[Node]:
    """Greedy min-peak topological order.

    Among ready tasks, prefer (1) net memory releasers (``delta <= 0``),
    (2) smaller activation ``a(u)``, (3) smaller ``delta``; ties broken by
    insertion order for determinism. Priorities are static, so a single
    heap suffices. ``statics`` (built for the same block) skips the
    per-call rescan of the block's edges.
    """
    if statics is None:
        statics = BlockStatics(wf, block)
    a, delta, children = statics.a, statics.delta, statics.children
    seq = wf.task_index()

    def prio(u: Node) -> Tuple[int, float, float, int]:
        d = delta[u]
        return (0 if d <= 0 else 1, a[u], d, seq[u])

    pending = statics.n_parents.copy()
    heap = [prio(u) + (u,) for u, k in pending.items() if k == 0]
    heapq.heapify(heap)
    order: List[Node] = []
    while heap:
        *_, u = heapq.heappop(heap)
        order.append(u)
        for v in children[u]:
            pending[v] -= 1
            if pending[v] == 0:
                heapq.heappush(heap, prio(v) + (v,))
    if len(order) != len(pending):
        raise ValueError("block graph contains a cycle")
    return order


def _sp_order(tree: SPTree, a: Dict[Node, float], delta: Dict[Node, float]) -> List[Node]:
    """Recursive traversal of an SP-tree's internal vertices."""
    if tree.kind == "leaf":
        return []
    if tree.kind == "series":
        order: List[Node] = []
        for i, child in enumerate(tree.children):
            order.extend(_sp_order(child, a, delta))
            if i < len(tree.via):
                order.append(tree.via[i])
        return order
    # parallel: branches share only the terminals -> independent sequences
    sequences: List[List[Segment]] = []
    for child in tree.children:
        child_order = _sp_order(child, a, delta)
        if child_order:
            sequences.append(decompose_profile(child_order, a, delta))
    merged, _ = merge_segment_sequences(sequences)
    return merged


_VIRTUAL = itertools.count()


def sp_traversal(wf: Workflow, block: Optional[Set[Node]] = None, *,
                 statics: Optional[BlockStatics] = None) -> Optional[List[Node]]:
    """Series-parallel traversal, or ``None`` when the block is not TTSP.

    Multi-source/multi-sink blocks are augmented with a virtual source and
    sink before decomposition. Both are terminals of the root, so they
    never appear among the internal vertices the order is built from.
    """
    if statics is None:
        statics = BlockStatics(wf, block)
    block_set, children = statics.block, statics.children
    if not block_set:
        return []
    if len(block_set) == 1:
        return list(block_set)

    edges: List[Tuple[Node, Node]] = [
        (u, v) for u in block_set for v in children[u]
    ]
    sources = [u for u in block_set if statics.n_parents[u] == 0]
    sinks = [u for u in block_set if not children[u]]
    if not sources or not sinks:
        return None

    tag = next(_VIRTUAL)
    vsrc: Node = ("__sp_source__", tag)
    vsink: Node = ("__sp_sink__", tag)
    edges.extend((vsrc, s) for s in sources)
    edges.extend((t, vsink) for t in sinks)

    tree = sp_decompose(edges, vsrc, vsink)
    if tree is None:
        return None

    order = _sp_order(tree, statics.a, statics.delta)
    if len(order) != len(block_set):
        return None
    return order


def memdag_traversal(wf: Workflow, block: Optional[Set[Node]] = None,
                     methods: Sequence[str] = ("best_first", "layered", "sp")) -> TraversalResult:
    """Best valid traversal among the requested engines (the memDag role).

    Candidates are evaluated under the exact semantics of
    :func:`repro.memdag.model.peak_of_traversal`; the smallest peak wins,
    with ties resolved toward the cheaper engine. The block's
    :class:`~repro.memdag.model.BlockStatics` are built once and shared by
    every engine and peak evaluation.
    """
    block_set = set(block) if block is not None else set(wf.tasks())
    if not block_set:
        return TraversalResult(order=(), peak=0.0, method="empty")
    # one statics pass shared by every engine and peak evaluation below
    statics = BlockStatics(wf, block_set)

    candidates: List[Tuple[float, str, List[Node]]] = []
    if "best_first" in methods:
        order = best_first_traversal(wf, block_set, statics=statics)
        candidates.append((peak_of_traversal(wf, order, block_set, statics=statics),
                           "best_first", order))
    if "layered" in methods:
        order = layered_traversal(wf, block_set, statics=statics)
        candidates.append((peak_of_traversal(wf, order, block_set, statics=statics),
                           "layered", order))
    if "sp" in methods and len(block_set) <= SP_SIZE_LIMIT:
        order = sp_traversal(wf, block_set, statics=statics)
        if order is not None:
            candidates.append((peak_of_traversal(wf, order, block_set, statics=statics),
                               "sp", order))
    if "exact" in methods and len(block_set) <= EXACT_SIZE_LIMIT:
        result = brute_force_min_peak(wf, block_set, limit=EXACT_SIZE_LIMIT,
                                      statics=statics)
        candidates.append((result.peak, "exact", list(result.order)))

    if not candidates:
        raise ValueError(f"no traversal engines selected from {methods!r}")
    peak, method, order = min(candidates, key=lambda t: t[0])
    return TraversalResult(order=tuple(order), peak=peak, method=method)


def brute_force_min_peak(wf: Workflow, block: Optional[Set[Node]] = None,
                         limit: int = 10, *,
                         statics: Optional[BlockStatics] = None) -> TraversalResult:
    """Exhaustive minimum over all topological orders (tests only).

    Branch-and-bound DFS; refuses blocks larger than ``limit`` tasks.
    """
    if statics is None:
        statics = BlockStatics(wf, block)
    block_set = statics.block
    n = len(block_set)
    if n > limit:
        raise ValueError(f"brute force limited to {limit} tasks, got {n}")
    if n == 0:
        return TraversalResult(order=(), peak=0.0, method="brute")

    a, delta, children = statics.a, statics.delta, statics.children
    best_peak = float("inf")
    best_order: List[Node] = []
    pending = statics.n_parents.copy()
    order: List[Node] = []

    def dfs(live: float, peak: float) -> None:
        nonlocal best_peak, best_order
        if peak >= best_peak:
            return
        if len(order) == n:
            best_peak = peak
            best_order = list(order)
            return
        for u in list(block_set):
            if pending[u] == 0 and u not in order_set:
                usage = live + a[u]
                order.append(u)
                order_set.add(u)
                for v in children[u]:
                    pending[v] -= 1
                dfs(live + delta[u], max(peak, usage))
                for v in children[u]:
                    pending[v] += 1
                order_set.discard(u)
                order.pop()

    order_set: Set[Node] = set()
    dfs(0.0, 0.0)
    return TraversalResult(order=tuple(best_order), peak=best_peak, method="brute")
