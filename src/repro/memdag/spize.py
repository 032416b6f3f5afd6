"""Level-based SP-ization: a layered traversal for non-SP blocks.

Kayaaslan et al. [18] transform a general DAG into a series-parallel one
before optimizing the traversal; any SP-ization adds synchronization, so the
resulting peak is an upper bound realized by an actual topological order of
the *original* graph. The cheapest useful SP-ization is the layered one:
the block becomes a series of levels, each level a parallel composition of
its tasks. The corresponding traversal executes level by level; within a
level (tasks are mutually independent) the hill-valley merge orders the
tasks optimally.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

from repro.memdag.model import BlockStatics
from repro.memdag.segments import merge_independent_tasks
from repro.workflow.graph import Workflow

Node = Hashable


def layered_traversal(wf: Workflow, block: Optional[Set[Node]] = None, *,
                      statics: Optional[BlockStatics] = None) -> List[Node]:
    """Level-by-level traversal; within each level, optimal independent merge.

    Levels are longest-path depths inside the block. Tasks of a level are
    pairwise independent, so each is a one-segment sequence and the
    hill-valley merge rule gives the best intra-level order. ``statics``
    (built for the same block) skips the per-call rescan of its edges.
    """
    if statics is None:
        statics = BlockStatics(wf, block)
    children = statics.children

    # longest-path level restricted to block-internal edges, pushed
    # forward to the children; a task's level is final when it is ready,
    # and each level lists its tasks in Kahn order
    depth: Dict[Node, int] = {}
    by_level: Dict[int, List[Node]] = {}
    indeg = statics.n_parents.copy()
    ready = [u for u in statics.block if indeg[u] == 0]
    head = 0
    while head < len(ready):
        u = ready[head]
        head += 1
        lvl = depth.get(u, 0)
        by_level.setdefault(lvl, []).append(u)
        for v in children[u]:
            if depth.get(v, 0) <= lvl:
                depth[v] = lvl + 1
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if len(ready) != len(indeg):
        raise ValueError("block graph contains a cycle")

    order: List[Node] = []
    for lvl in sorted(by_level):
        order.extend(merge_independent_tasks(by_level[lvl], statics.a, statics.delta))
    return order
