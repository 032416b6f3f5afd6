"""Step 3 of DagHetPart: merge unassigned blocks into assigned ones
(Algorithms 3-4).

Every quotient vertex left without a processor by Step 2 is merged into an
assigned neighbour — preferably one *off* the critical path, since merging
onto the critical path lengthens it. A merge that closes a cycle of length
2 is repaired by absorbing the third vertex (Fig. 2); longer cycles
disqualify the candidate. The merge chosen is the one minimizing the
estimated makespan among all feasible candidates (memory of the target
processor must hold the merged block).
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, List, Optional, Set, Tuple

from repro.core.evaluator import MakespanEvaluator
from repro.core.makespan import critical_path, makespan
from repro.core.quotient import BlockId, QuotientGraph
from repro.memdag.requirement import RequirementCache
from repro.platform.cluster import Cluster

Node = Hashable

#: maximum number of times a vertex is re-queued (the paper's counter: at
#: most two re-inserts, ``nu.c <= 1`` checked before incrementing)
MAX_RETRIES = 2


def find_ms_opt_merge(q: QuotientGraph, nu: BlockId, candidates: Set[BlockId],
                      cluster: Cluster, cache: RequirementCache,
                      pool: Optional[List[BlockId]] = None,
                      evaluator: Optional[MakespanEvaluator] = None,
                      ) -> Tuple[float, Optional[BlockId], Optional[BlockId]]:
    """Algorithm 3: best feasible merge of ``nu`` into one of ``candidates``.

    Returns ``(best_makespan, best_partner, optional_third_vertex)``;
    partner is ``None`` when no feasible merge exists. The graph is left
    exactly as it was (every tentative merge is undone). ``pool`` overrides
    the set of partners examined (default: ``nu``'s quotient neighbours,
    as in the paper).
    """
    best_mu = float("inf")
    best_partner: Optional[BlockId] = None
    best_third: Optional[BlockId] = None

    for partner in (pool if pool is not None else q.neighbors(nu)):
        if partner not in candidates or partner == nu:
            continue
        proc = q.blocks[partner].proc
        if proc is None:
            continue

        merged_id, token1 = q.merge(nu, partner)
        token2 = None
        third: Optional[BlockId] = None
        cycle = q.find_cycle()
        if cycle is not None:
            if len(cycle) == 2:
                other = cycle[0] if cycle[0] != merged_id else cycle[1]
                merged2_id, token2 = q.merge(merged_id, other)
                if q.find_cycle() is not None:
                    q.unmerge(token2)
                    q.unmerge(token1)
                    continue
                third = other
                merged_id = merged2_id
            else:
                q.unmerge(token1)
                continue

        requirement = cache.peak(q.blocks[merged_id].tasks)
        if requirement <= proc.memory:
            # estimated makespan with the merged vertex on partner's proc
            q.set_proc(merged_id, proc)
            if evaluator is not None:
                mu = evaluator.makespan()
            else:
                mu = makespan(q, cluster)
            q.set_proc(merged_id, None)
            if mu <= best_mu:
                best_mu = mu
                best_partner = partner
                best_third = third

        if token2 is not None:
            q.unmerge(token2)
        q.unmerge(token1)

    return best_mu, best_partner, best_third


def _execute_merge(q: QuotientGraph, nu: BlockId, partner: BlockId,
                   third: Optional[BlockId]) -> BlockId:
    """Perform the chosen merge (and the optional third-vertex absorption)."""
    proc = q.blocks[partner].proc
    merged_id, _ = q.merge(nu, partner)
    if third is not None:
        merged_id, _ = q.merge(merged_id, third)
    q.set_proc(merged_id, proc)
    return merged_id


def merge_unassigned_to_assigned(q: QuotientGraph, cluster: Cluster,
                                 cache: RequirementCache,
                                 prefer_off_critical_path: bool = True,
                                 evaluator: Optional[MakespanEvaluator] = None) -> bool:
    """Algorithm 4. Returns True iff every vertex ends up assigned.

    Mutates ``q`` in place. Deviation from the paper's pseudocode: instead
    of the per-vertex re-insertion counter (``nu.c``, at most two retries)
    we iterate in *passes* and fail only when a full pass over the
    unassigned vertices makes no progress. The counter exists to prevent
    livelock ("two vertices being constantly reinserted after each other");
    the pass criterion gives the same termination guarantee but lets a
    merge frontier propagate through arbitrarily deep clusters of
    unassigned fragments (Step 2 can produce dozens on memory-tight
    instances, where two retries are provably insufficient).
    """
    unassigned = deque(sorted(q.unassigned_ids()))
    if not unassigned:
        return True

    def _path() -> Set[BlockId]:
        if evaluator is not None:
            return set(evaluator.critical_path())
        return set(critical_path(q, cluster))

    path = _path()
    while unassigned:
        progress = False
        next_round: deque = deque()
        while unassigned:
            nu = unassigned.popleft()
            if nu not in q.blocks:
                progress = True  # absorbed as a third vertex of a merge
                continue

            assigned = q.assigned_ids()
            partner = None
            third = None
            if prefer_off_critical_path:
                _, partner, third = find_ms_opt_merge(
                    q, nu, assigned - path, cluster, cache,
                    evaluator=evaluator)
            if partner is None:
                _, partner, third = find_ms_opt_merge(
                    q, nu, assigned, cluster, cache, evaluator=evaluator)

            if partner is not None:
                _execute_merge(q, nu, partner, third)
                path = _path()
                progress = True
            else:
                q.blocks[nu].retry_count += 1
                next_round.append(nu)
        if next_round and not progress:
            # Last resorts beyond the paper's pseudocode (see DESIGN.md):
            # (1) place the fragment on a free processor that can hold it;
            # (2) merge with a *non-adjacent* assigned block — valid under
            #     all DAGP-PM constraints, it just saves no communication.
            # Without these, memory-tight instances with dense cross edges
            # (e.g. Montage) fail even though valid mappings exist.
            nu = next_round.popleft()
            if _assign_to_free_processor(q, nu, cluster, cache):
                progress = True
            else:
                assigned = q.assigned_ids()
                slack_pool = _by_memory_slack(q, assigned, cache)
                _, partner, third = find_ms_opt_merge(
                    q, nu, assigned, cluster, cache, pool=slack_pool,
                    evaluator=evaluator)
                if partner is None:
                    return False  # no solution could be found
                _execute_merge(q, nu, partner, third)
                path = _path()
                progress = True
        unassigned = deque(x for x in next_round if x in q.blocks)
    return True


#: cap on non-adjacent merge candidates examined per fragment (cost bound)
FALLBACK_POOL_SIZE = 24


def _by_memory_slack(q: QuotientGraph, assigned: Set[BlockId],
                     cache: RequirementCache) -> List[BlockId]:
    """Assigned blocks ordered by free memory on their processor, capped.

    Ranked by slack descending, ties by block id ascending; the top
    ``FALLBACK_POOL_SIZE`` are kept.
    """
    entries = sorted(((q.blocks[bid].proc.memory
                       - cache.peak(q.blocks[bid].tasks), -bid)
                      for bid in assigned), reverse=True)
    return [-neg_bid for _, neg_bid in entries[:FALLBACK_POOL_SIZE]]


def _assign_to_free_processor(q: QuotientGraph, nu: BlockId, cluster: Cluster,
                              cache: RequirementCache) -> bool:
    """Give ``nu`` its own processor if a free one can hold it."""
    used = q.used_processors()
    req = cache.peak(q.blocks[nu].tasks)
    for proc in cluster.by_memory_desc():
        if proc.name in used:
            continue
        if req <= proc.memory:
            q.set_proc(nu, proc)
            return True
        break  # sorted by memory: nothing later fits either
    return False
