"""Public entry points of the acyclic DAG partitioner.

:func:`acyclic_partition` plays the role of ``dagP`` in Step 1 of
DagHetPart; :func:`bisect_block` plays its role inside ``FitBlock``
(Algorithm 2, ``Partition(V_m, 2)``).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set

from repro.partition.coarsen import coarsen
from repro.partition.contraction import CGraph
from repro.partition.initial import initial_partition
from repro.partition.refine import edge_cut, refine
from repro.utils.errors import InvalidPartitionError, PartitionSplitError
from repro.workflow.graph import Workflow

Node = Hashable

#: named node-weight functions for balancing
WEIGHT_FUNCTIONS = ("requirement", "work", "memory", "unit")


def _node_weight_fn(wf: Workflow, weight: str) -> Callable[[Node], float]:
    if weight == "requirement":
        return lambda u: max(wf.task_requirement(u), 1e-9)
    if weight == "work":
        return lambda u: max(wf.work(u), 1e-9)
    if weight == "memory":
        return lambda u: max(wf.memory(u), 1e-9)
    if weight == "unit":
        return lambda u: 1.0
    raise ValueError(f"unknown weight function {weight!r}; valid: {WEIGHT_FUNCTIONS}")


def _finalize(g_top: CGraph, part: Dict[Node, int]) -> List[Set[Node]]:
    """Convert a node->index map into a dense list of non-empty task sets."""
    by_index: Dict[int, Set[Node]] = {}
    for u, b in part.items():
        by_index.setdefault(b, set()).add(u)
    return [by_index[b] for b in sorted(by_index)]


def _check_acyclic_quotient(wf: Workflow, blocks: List[Set[Node]],
                            nodes: Optional[Set[Node]] = None) -> None:
    index: Dict[Node, int] = {}
    for i, block in enumerate(blocks):
        for u in block:
            index[u] = i
    succ: Dict[int, Set[int]] = {i: set() for i in range(len(blocks))}
    for u, bi in index.items():
        for v in wf.children(u):
            if v in index:
                bj = index[v]
                if bj != bi:
                    succ[bi].add(bj)
    indeg = {i: 0 for i in succ}
    for i, outs in succ.items():
        for j in outs:
            indeg[j] += 1
    ready = [i for i in succ if indeg[i] == 0]
    seen = 0
    while ready:
        i = ready.pop()
        seen += 1
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if seen != len(blocks):
        raise InvalidPartitionError("partition induces a cyclic quotient graph")


def acyclic_partition(wf: Workflow, k: int, *, weight: str = "requirement",
                      eps: float = 0.10, coarsen_target: Optional[int] = None,
                      refine_passes: int = 4, strategy: str = "best",
                      nodes: Optional[Iterable[Node]] = None) -> List[Set[Node]]:
    """Partition (a subset of) ``wf`` into at most ``k`` acyclic blocks.

    Multilevel: coarsen, initial topological chunking, refine at every
    uncoarsening level. Guarantees: blocks are non-empty and disjoint,
    cover the requested node set, and the quotient graph is acyclic
    (verified before returning). May return fewer than ``k`` blocks when
    the (coarsened) graph has fewer nodes, as dagP does on tiny inputs.

    Parameters
    ----------
    weight:
        Balancing weight per task: ``"requirement"`` (default; the memory
        footprint proxy, since memory is the binding constraint),
        ``"work"``, ``"memory"``, or ``"unit"``.
    eps:
        Balance tolerance for refinement moves.
    strategy:
        Initial-order strategy: ``"dfs"`` (chains contiguous), ``"bfs"``
        (levels contiguous), or ``"best"`` (default — run both on the
        coarsest graph and keep the one with the smaller refined cut; the
        multilevel pipeline amortizes the extra seed to a few percent).
    nodes:
        Restrict partitioning to this subset (used for block bisection).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    node_weight = _node_weight_fn(wf, weight)
    if nodes is None:
        g = CGraph.from_workflow(wf, node_weight)
    else:
        g = CGraph.from_subset(wf, nodes, node_weight)
    n = len(g)
    if n == 0:
        return []
    if k == 1 or n == 1:
        blocks = [set(g.nodes())]
        _check_acyclic_quotient(wf, blocks)
        return blocks

    target = coarsen_target if coarsen_target is not None else max(4 * k, 64)
    levels = coarsen(g, target)
    coarsest = levels[-1].graph if levels else g

    if strategy == "best":
        candidates = []
        for seed_strategy in ("dfs", "bfs"):
            candidate = initial_partition(coarsest, k, strategy=seed_strategy)
            refine(coarsest, candidate, k, eps=eps, max_passes=refine_passes)
            candidates.append((edge_cut(coarsest, candidate), candidate))
        part = min(candidates, key=lambda t: t[0])[1]
    else:
        part = initial_partition(coarsest, k, strategy=strategy)
        refine(coarsest, part, k, eps=eps, max_passes=refine_passes)

    # project back through the hierarchy, refining at each level;
    # levels[i].assignment maps nodes of the level's *input* graph
    # (levels[i-1].graph, or g for i == 0) to clusters of levels[i].graph
    for i in range(len(levels) - 1, -1, -1):
        level = levels[i]
        part = {u: part[level.assignment[u]] for u in level.assignment}
        input_graph = levels[i - 1].graph if i > 0 else g
        refine(input_graph, part, k, eps=eps, max_passes=refine_passes)

    blocks = _finalize(g, part)
    _check_acyclic_quotient(wf, blocks)
    return blocks


def bisect_block(wf: Workflow, block: Iterable[Node], *, weight: str = "requirement",
                 eps: float = 0.10) -> List[Set[Node]]:
    """Split a block into (at least) two acyclic sub-blocks (``FitBlock``).

    Raises :class:`PartitionSplitError` for singleton blocks — Step 2
    treats such blocks as unassignable and defers them to Step 3.
    """
    block_set = set(block)
    if len(block_set) < 2:
        raise PartitionSplitError(f"cannot split a block of {len(block_set)} task(s)")
    sub_blocks = acyclic_partition(wf, 2, weight=weight, eps=eps, nodes=block_set)
    if len(sub_blocks) < 2:
        raise PartitionSplitError("bisection failed to separate the block")
    return sub_blocks


def partition_quality(wf: Workflow, blocks: List[Set[Node]],
                      weight: str = "requirement") -> Dict[str, float]:
    """Diagnostics: weighted cut, imbalance, and block count."""
    node_weight = _node_weight_fn(wf, weight)
    index: Dict[Node, int] = {}
    for i, b in enumerate(blocks):
        for u in b:
            index[u] = i
    cut = sum(c for u, v, c in wf.edges()
              if u in index and v in index and index[u] != index[v])
    weights = [sum(node_weight(u) for u in b) for b in blocks]
    avg = sum(weights) / len(weights) if weights else 0.0
    imbalance = (max(weights) / avg - 1.0) if avg > 0 else 0.0
    return {"cut": cut, "imbalance": imbalance, "n_blocks": float(len(blocks))}
