"""Step 4 of DagHetPart: local search (Algorithm 5).

Two mechanisms, both monotone in makespan:

* **swaps** — exchange the processors of two quotient vertices when both
  fit memory-wise; the best improving swap is applied, repeatedly, until
  none exists (steepest descent);
* **idle moves** — when processors remain idle (small workflows, few
  blocks), move critical-path vertices to faster idle processors that can
  hold them, recomputing the critical path after each move.

Both accept an optional :class:`~repro.core.evaluator.MakespanEvaluator`;
with one, each candidate mutation is priced by delta evaluation
(O(affected ancestors)) instead of a full bottom-weight pass over the
quotient. Without one, the original full-recompute path is used — the two
are bit-for-bit equivalent (see ``benchmarks/test_evaluator_delta.py``).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.evaluator import MakespanEvaluator
from repro.core.makespan import critical_path, makespan
from repro.core.quotient import BlockId, QBlock, QuotientGraph
from repro.memdag.requirement import RequirementCache
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor

Node = Hashable


def feasible_swap_pairs(ids: Sequence[BlockId],
                        requirement: Dict[BlockId, float],
                        blocks: Dict[BlockId, QBlock]
                        ) -> List[Tuple[BlockId, BlockId]]:
    """Step 4 candidate pairs ``(a, b)``, in nested ``i < j`` order.

    A pair is feasible when the two blocks sit on different processor
    objects and each fits the other's memory. Order matters: the
    steepest-descent search breaks makespan ties by first-seen pair.
    """
    pairs: List[Tuple[BlockId, BlockId]] = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            pa, pb = blocks[a].proc, blocks[b].proc
            if pa is pb:
                continue
            if requirement[a] > pb.memory or requirement[b] > pa.memory:
                continue
            pairs.append((a, b))
    return pairs


def improve_by_swaps(q: QuotientGraph, cluster: Cluster,
                     cache: RequirementCache, max_rounds: int = 1000,
                     evaluator: Optional[MakespanEvaluator] = None) -> int:
    """Steepest-descent processor swaps; returns the number applied.

    A swap of vertices ``(nu, nu')`` is feasible when each block fits the
    other's processor memory. Each round evaluates all feasible pairs and
    applies the single best strictly-improving one (Algorithm 5 keeps the
    best pair and stops when no improving swap exists).
    """
    applied = 0
    requirement: Dict[BlockId, float] = {}
    ev = evaluator
    current = ev.makespan() if ev is not None else makespan(q, cluster)
    for _ in range(max_rounds):
        ids = [bid for bid, blk in q.blocks.items() if blk.proc is not None]
        for bid in ids:
            # filled lazily each round: merges elsewhere may have replaced
            # block ids since the previous round (or a previous call)
            if bid not in requirement:
                requirement[bid] = cache.peak(q.blocks[bid].tasks)
        best_mu = current
        best_pair: Optional[Tuple[BlockId, BlockId]] = None
        for a, b in feasible_swap_pairs(ids, requirement, q.blocks):
            if ev is not None:
                mu = ev.eval_swap(a, b)
            else:
                pa, pb = q.blocks[a].proc, q.blocks[b].proc
                q.set_proc(a, pb)
                q.set_proc(b, pa)
                mu = makespan(q, cluster)
                q.set_proc(a, pa)
                q.set_proc(b, pb)
            if mu < best_mu - 1e-12:
                best_mu = mu
                best_pair = (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        if ev is not None:
            ev.apply_swap(a, b)
        else:
            pa, pb = q.blocks[a].proc, q.blocks[b].proc
            q.set_proc(a, pb)
            q.set_proc(b, pa)
        current = best_mu
        applied += 1
    return applied


def move_critical_to_idle(q: QuotientGraph, cluster: Cluster,
                          cache: RequirementCache,
                          evaluator: Optional[MakespanEvaluator] = None) -> int:
    """Move critical-path vertices to faster idle processors; returns #moves.

    Activated only when some processors are idle after swapping. Each
    critical-path vertex is moved at most once ("as long as there are
    tasks in the critical path that have not been moved"); moves must
    strictly improve the makespan. The idle pool is recomputed from
    :meth:`QuotientGraph.used_processors` before each pass, so a processor
    vacated by a move rejoins it exactly when no block uses it any more.
    """
    ev = evaluator
    moved: Set[BlockId] = set()
    moves = 0
    current: Optional[float] = None
    while True:
        used = q.used_processors()
        idle: List[Processor] = [p for p in cluster.by_speed_desc()
                                 if p.name not in used]
        if not idle:
            return moves
        if current is None:
            current = ev.makespan() if ev is not None else makespan(q, cluster)
        path = ev.critical_path() if ev is not None else critical_path(q, cluster)
        progressed = False
        for nu in path:
            if nu in moved or nu not in q.blocks:
                continue
            blk = q.blocks[nu]
            if blk.proc is None:
                continue
            req = cache.peak(blk.tasks)
            for candidate in idle:
                if candidate.speed <= blk.proc.speed or req > candidate.memory:
                    continue
                old = blk.proc
                if ev is not None:
                    mu = ev.eval_move(nu, candidate)
                else:
                    q.set_proc(nu, candidate)
                    mu = makespan(q, cluster)
                    q.set_proc(nu, old)
                if mu < current - 1e-12:
                    if ev is not None:
                        ev.apply_move(nu, candidate)
                    else:
                        q.set_proc(nu, candidate)
                    current = mu
                    moved.add(nu)
                    moves += 1
                    progressed = True
                    break
            if progressed:
                break  # critical path changed; recompute
        if not progressed:
            return moves
