"""DagHetPart — the four-step heuristic (Section 4.2).

The public scheduling surface lives in :mod:`repro.api` (registry +
request/result envelopes); ``schedule()`` below is the thin back-compat
shim over it, and :func:`dag_het_part_sweep` exposes the winning ``k'``
and per-``k'`` trace the API reports.

Step 1 partitions the workflow into ``k'`` blocks for several values of
``k'`` ("we tentatively partition the DAG into k' blocks, with
1 <= k' <= k, and compute the makespan returned by the heuristic for all
values of k'. The best result is kept."). For each ``k'`` the pipeline is:

    partition -> BiggestAssign (Step 2) -> MergeUnassignedToAssigned
    (Step 3, may fail) -> Swap + idle moves (Step 4) -> makespan.

The full sweep is quadratic-ish in ``k``; :class:`DagHetPartConfig` offers
a ``"doubling"`` strategy ({1, 2, 4, ..., k}) that the experiment harness
uses for large clusters, with the full sweep available via ``"all"``
(see the k'-sweep ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

from repro.core.assignment import biggest_assign
from repro.core.evaluator import MakespanEvaluator
from repro.core.mapping import Mapping
from repro.core.makespan import makespan
from repro.core.merging import merge_unassigned_to_assigned
from repro.core.quotient import QuotientGraph
from repro.core.swaps import improve_by_swaps, move_critical_to_idle
from repro.memdag.requirement import RequirementCache
from repro.partition.api import acyclic_partition
from repro.platform.cluster import Cluster
from repro.utils.errors import NoFeasibleMappingError, ReproError
from repro.workflow.graph import Workflow

Node = Hashable


@dataclass(frozen=True)
class DagHetPartConfig:
    """Tuning knobs of DagHetPart; defaults follow the paper.

    Attributes
    ----------
    k_prime_strategy:
        ``"all"`` sweeps every ``k'`` in ``1..k`` (the paper's setting),
        ``"doubling"`` sweeps ``{1, 2, 4, ..., k}``; ``"auto"`` (default)
        uses ``"all"`` for ``k <= 12`` and ``"doubling"`` otherwise.
    k_prime_values:
        Explicit ``k'`` values; overrides the strategy when set.
    weight:
        Balancing weight of the partitioner (see
        :func:`repro.partition.api.acyclic_partition`).
    enable_swaps / enable_idle_moves:
        Toggle the two halves of Step 4 (ablation benches).
    use_evaluator:
        Price candidate merges/swaps/moves with the incremental
        :class:`~repro.core.evaluator.MakespanEvaluator` (delta
        evaluation) instead of full bottom-weight passes. Bit-for-bit
        equivalent; off only for the equivalence/ablation benches.
    prefer_off_critical_path:
        Toggle Step 3's merge preference (ablation bench).
    traversal_methods:
        Engines for block memory requirements (ablation bench).
    """

    k_prime_strategy: str = "auto"
    k_prime_values: Optional[Tuple[int, ...]] = None
    weight: str = "requirement"
    eps: float = 0.10
    enable_swaps: bool = True
    enable_idle_moves: bool = True
    use_evaluator: bool = True
    prefer_off_critical_path: bool = True
    traversal_methods: Tuple[str, ...] = ("best_first", "layered", "sp")


def _k_prime_candidates(k: int, config: DagHetPartConfig) -> List[int]:
    if config.k_prime_values is not None:
        values = sorted({kp for kp in config.k_prime_values if 1 <= kp <= k})
        if not values:
            raise ValueError("k_prime_values contains no value in 1..k")
        return values
    strategy = config.k_prime_strategy
    if strategy == "auto":
        strategy = "all" if k <= 12 else "doubling"
    if strategy == "all":
        return list(range(1, k + 1))
    if strategy == "doubling":
        values = []
        kp = 1
        while kp < k:
            values.append(kp)
            kp *= 2
        values.append(k)
        return values
    raise ValueError(f"unknown k' strategy {strategy!r}")


@dataclass(frozen=True)
class SweepPoint:
    """One ``k'`` evaluated during Step 1's sweep.

    ``makespan`` is the pipeline's result for that ``k'`` (``None`` unless
    ``status == "ok"``); ``status`` is ``"ok"``, ``"infeasible"`` (no valid
    assignment / cyclic quotient for this ``k'``) or ``"error"`` (the
    pipeline raised a :class:`ReproError`).
    """

    k_prime: int
    makespan: Optional[float]
    status: str


@dataclass(frozen=True)
class SweepOutcome:
    """Full outcome of a DagHetPart run: the winning ``k'`` and the trace.

    ``k_prime`` is ``None`` only for empty workflows (no sweep runs).
    """

    mapping: Mapping
    k_prime: Optional[int]
    sweep: Tuple[SweepPoint, ...]


def _run_pipeline(wf: Workflow, cluster: Cluster, k_prime: int,
                  config: DagHetPartConfig, cache: RequirementCache,
                  ) -> Optional[Tuple[float, QuotientGraph]]:
    """One full Step-1..4 pipeline for a fixed ``k'``; None if infeasible."""
    partition = acyclic_partition(wf, k_prime, weight=config.weight, eps=config.eps)

    state = biggest_assign(wf, cluster, partition, cache=cache, weight=config.weight)
    blocks = [state.blocks[bid] for bid in state.blocks]
    procs = [state.assigned.get(bid) for bid in state.blocks]
    q = QuotientGraph.from_partition(wf, blocks, procs)

    if not q.is_acyclic():
        # repartitioning inside FitBlock can, in rare fan-in shapes,
        # produce blocks whose quotient is cyclic; such a k' is skipped
        return None

    evaluator = MakespanEvaluator(q, cluster) if config.use_evaluator else None

    ok = merge_unassigned_to_assigned(
        q, cluster, cache, prefer_off_critical_path=config.prefer_off_critical_path,
        evaluator=evaluator)
    if not ok:
        return None

    # every block must actually fit its processor (assigned blocks fit by
    # construction; re-check after merges for safety)
    for blk in q.blocks.values():
        if blk.proc is None or cache.peak(blk.tasks) > blk.proc.memory + 1e-9:
            return None

    if config.enable_swaps:
        improve_by_swaps(q, cluster, cache, evaluator=evaluator)
    if config.enable_idle_moves:
        move_critical_to_idle(q, cluster, cache, evaluator=evaluator)
    if evaluator is not None:
        return evaluator.makespan(), q
    return makespan(q, cluster), q


def dag_het_part_sweep(wf: Workflow, cluster: Cluster,
                       config: Optional[DagHetPartConfig] = None,
                       cache: Optional[RequirementCache] = None) -> SweepOutcome:
    """Run DagHetPart and keep the full ``k'`` sweep trace.

    Returns a :class:`SweepOutcome` with the best mapping, the winning
    ``k'`` and one :class:`SweepPoint` per candidate, so ablation benches
    and the API's result envelopes can report the sweep without re-running.

    Raises :class:`NoFeasibleMappingError` when no ``k'`` admits a valid
    assignment; the exception carries the trace as its ``sweep`` attribute.
    """
    config = config or DagHetPartConfig()
    if wf.n_tasks == 0:
        return SweepOutcome(Mapping(wf, cluster, [], algorithm="DagHetPart"),
                            k_prime=None, sweep=())
    cache = cache or RequirementCache(wf, methods=config.traversal_methods)

    best: Optional[Tuple[float, QuotientGraph]] = None
    best_k_prime: Optional[int] = None
    trace: List[SweepPoint] = []
    for k_prime in _k_prime_candidates(cluster.k, config):
        try:
            result = _run_pipeline(wf, cluster, k_prime, config, cache)
        except ReproError:
            trace.append(SweepPoint(k_prime, None, "error"))
            continue
        if result is None:
            trace.append(SweepPoint(k_prime, None, "infeasible"))
            continue
        trace.append(SweepPoint(k_prime, result[0], "ok"))
        if best is None or result[0] < best[0]:
            best = result
            best_k_prime = k_prime

    if best is None:
        exc = NoFeasibleMappingError(
            f"DagHetPart: no feasible mapping of {wf.name!r} "
            f"({wf.n_tasks} tasks) onto {cluster.name!r} ({cluster.k} procs)",
            unplaced_tasks=wf.n_tasks)
        exc.sweep = tuple(trace)
        raise exc

    mapping = Mapping.from_quotient(best[1], cluster, cache, algorithm="DagHetPart")
    return SweepOutcome(mapping, k_prime=best_k_prime, sweep=tuple(trace))


def dag_het_part(wf: Workflow, cluster: Cluster,
                 config: Optional[DagHetPartConfig] = None,
                 cache: Optional[RequirementCache] = None) -> Mapping:
    """Run DagHetPart; returns the best valid Mapping over the ``k'`` sweep.

    Raises :class:`NoFeasibleMappingError` when no ``k'`` admits a valid
    assignment (the platform lacks resources for the workflow). Use
    :func:`dag_het_part_sweep` (or ``repro.api.solve``) when the winning
    ``k'`` / sweep trace is needed as well.
    """
    return dag_het_part_sweep(wf, cluster, config=config, cache=cache).mapping


def schedule(wf: Workflow, cluster: Cluster, algorithm: str = "daghetpart",
             config: Optional[DagHetPartConfig] = None) -> Mapping:
    """Back-compat front-end: run one registered algorithm by name.

    Resolves ``algorithm`` through the :mod:`repro.api` registry (so names
    like ``"DagHetPart"`` / ``"dag-het-mem"`` and any plugin-registered
    algorithm work) and returns the bare :class:`Mapping`. New code should
    prefer ``repro.api.solve``, which also reports runtime, the ``k'``
    sweep, and structured failures.
    """
    from repro.api.registry import get_algorithm

    return get_algorithm(algorithm).scheduler.run(wf, cluster, config).mapping
