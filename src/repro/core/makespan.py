"""Makespan computation via bottom weights (Section 3.3, Eqs. (1)-(2)).

The bottom weight of a quotient vertex ``nu`` is

    l_nu = w_nu / s_nu                                  if nu has no children
    l_nu = w_nu / s_nu + max_{nu' in C_nu} (c_{nu,nu'} / beta + l_nu')

where ``s_nu`` is the speed of the assigned processor, or 1 for vertices
not (yet) assigned — yielding the paper's *estimated* makespan during
Step 3. The makespan of the quotient DAG is ``max_nu l_nu``.

Both :func:`bottom_weights` and :func:`critical_path` price quotient
edges through one shared rule (:func:`link_rule`), so the path
reconstruction can never disagree with the weights it follows.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.quotient import BlockId, QuotientGraph
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.utils.errors import CyclicWorkflowError

#: instrumentation: number of full bottom-weight passes executed since
#: import (or the last manual reset). The delta evaluator
#: (:mod:`repro.core.evaluator`) avoids these on its hot path; the swap
#: ablation bench asserts the reduction.
FULL_PASSES = 0


def reset_full_pass_counter() -> int:
    """Reset :data:`FULL_PASSES` to 0; returns the previous value."""
    global FULL_PASSES
    previous = FULL_PASSES
    FULL_PASSES = 0
    return previous


def link_rule(cluster: Cluster) -> Callable[[Optional[Processor], Optional[Processor]], float]:
    """The one edge-bandwidth rule shared by weights and path reconstruction.

    With a uniform interconnect the scalar ``beta`` shortcut is used for
    every link; otherwise the per-pair model is queried (links with an
    undecided endpoint fall back to the model's default, the same
    estimation rule the paper applies to unassigned speeds).
    """
    from repro.platform.bandwidth import UniformBandwidth

    if isinstance(cluster.bandwidth_model, UniformBandwidth):
        beta = cluster.bandwidth

        def uniform_link(p: Optional[Processor], q: Optional[Processor]) -> float:
            return beta

        return uniform_link
    return cluster.link_bandwidth


def bottom_weights(q: QuotientGraph, cluster: Cluster,
                   default_speed: float = 1.0) -> Dict[BlockId, float]:
    """Bottom weight of every quotient vertex; raises on a cyclic quotient.

    With a heterogeneous interconnect model, the edge term ``c / beta``
    uses the bandwidth of the link between the two blocks' processors;
    links with an undecided endpoint use the model's default (the same
    estimation rule the paper applies to unassigned speeds).
    """
    global FULL_PASSES
    order = q.topological_order()
    if order is None:
        raise CyclicWorkflowError(
            message="makespan undefined: quotient graph is cyclic")
    link_of = link_rule(cluster)
    l: Dict[BlockId, float] = {}
    for bid in reversed(order):
        blk = q.blocks[bid]
        own = blk.work / (blk.proc.speed if blk.proc is not None
                          else default_speed)
        best_child = 0.0
        for child, c in q.succ[bid].items():
            cand = c / link_of(blk.proc, q.blocks[child].proc) + l[child]
            if cand > best_child:
                best_child = cand
        l[bid] = own + best_child
    FULL_PASSES += 1
    return l


def makespan(q: QuotientGraph, cluster: Cluster, default_speed: float = 1.0) -> float:
    """``mu(Gamma) = max_nu l_nu`` (Eq. (2)); 0 for an empty quotient."""
    if not q.blocks:
        return 0.0
    return max(bottom_weights(q, cluster, default_speed).values())


def follow_critical_path(q: QuotientGraph, cluster: Cluster,
                         l: Dict[BlockId, float],
                         start: BlockId) -> List[BlockId]:
    """Walk from ``start`` to a sink, always taking the argmax child.

    At each vertex the child maximizing ``c / beta + l_child`` — the exact
    term of Eq. (1) — is followed directly, so the walk never truncates on
    floating-point noise and always ends at a sink. Deterministic: ties go
    to the first child in adjacency order.
    """
    link_of = link_rule(cluster)
    path = [start]
    current = start
    while q.succ[current]:
        proc = q.blocks[current].proc
        nxt: Optional[BlockId] = None
        best = float("-inf")
        for child, c in q.succ[current].items():
            cand = c / link_of(proc, q.blocks[child].proc) + l[child]
            if cand > best:
                best = cand
                nxt = child
        path.append(nxt)
        current = nxt
    return path


def critical_path(q: QuotientGraph, cluster: Cluster,
                  default_speed: float = 1.0) -> List[BlockId]:
    """The path realizing the makespan, from its start vertex to a sink.

    Starts at the vertex with the maximum bottom weight and repeatedly
    follows the child attaining the max in Eq. (1), using the same edge
    costs :func:`bottom_weights` used. Deterministic: ties go to the first
    child in adjacency order.
    """
    if not q.blocks:
        return []
    l = bottom_weights(q, cluster, default_speed)
    start = max(l, key=lambda bid: (l[bid], -bid))
    return follow_critical_path(q, cluster, l, start)
