"""Correctness checks, the result digest, and summary statistics."""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api import ScheduleResult
from repro.core.makespan import makespan as quotient_makespan

#: the only structured failure a valid run may return: the platform is too
#: small for the workflow (the paper's infeasible outcome)
INFEASIBLE = "NoFeasibleMappingError"

#: relative tolerance for the incremental evaluator's makespan: the sweep
#: prices a quotient whose merged block works were summed in merge order,
#: the from-scratch pass re-sums them, so the two may differ in the last
#: bits (sweep_inexact in the report counts how often)
SWEEP_REL_TOL = 1e-9

#: tail percentiles tried from the highest down
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: samples a tail percentile needs beyond it
TAIL_BEYOND = 10


def check_result(result: ScheduleResult) -> Optional[str]:
    """Why a ``solve()`` result is wrong, or ``None`` when it is right.

    A memory-aware mapping must pass ``Mapping.validate()`` (disjoint
    cover, distinct processors, blocks within memory, acyclic quotient);
    its makespan must equal a from-scratch recomputation; and DagHetPart's
    winning sweep point (priced by the incremental evaluator) must agree
    with that makespan.
    """
    if result.failure is not None:
        if result.failure.kind == INFEASIBLE:
            return None
        return f"unexpected failure {result.failure}"
    mapping = result.mapping
    if mapping is None:
        return "successful result without a mapping"
    try:
        mapping.validate()
        scratch = quotient_makespan(mapping.to_quotient(), mapping.cluster)
    except Exception as exc:  # noqa: BLE001 — any violation is a failure
        return f"invalid mapping: {type(exc).__name__}: {exc}"
    if scratch != result.makespan:
        return (f"makespan {result.makespan!r} differs from the from-scratch "
                f"recomputation {scratch!r}")
    if result.k_prime is not None:
        winner = winning_point(result)
        if winner is None or not math.isclose(
                winner.makespan, result.makespan, rel_tol=SWEEP_REL_TOL):
            return (f"winning sweep point {winner} disagrees with makespan "
                    f"{result.makespan!r}")
    return None


def winning_point(result: ScheduleResult):
    """The sweep point of the winning k' (None if it is missing)."""
    winner = [p for p in result.sweep
              if p.k_prime == result.k_prime and p.status == "ok"]
    return winner[0] if len(winner) == 1 else None


def outcome(record: Dict[str, Any]) -> Dict[str, Any]:
    """A result record without its measured runtime and caller tags."""
    return {k: v for k, v in record.items() if k not in ("runtime", "tags")}


def digest(entries: Iterable[Tuple[str, float, Any, int]]) -> str:
    """Order-insensitive digest of (fingerprint, makespan, k', blocks)."""
    lines = sorted({f"{fp} {makespan!r} {k_prime} {blocks}"
                    for fp, makespan, k_prime, blocks in entries})
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: Sequence[float], guaranteed: int) -> Tuple[str, float]:
    """(what, value): the highest ladder percentile that has at least ten
    samples beyond it in the ``guaranteed`` samples every run of the
    workload takes, over all of ``values``. Choosing it by the sample
    count of the run itself would make a faster host report a higher
    percentile. A workload with too few for any (solve_large's 14
    requests) reports the mean of the slower half instead: a single order
    statistic of so few samples is mostly noise."""
    for p in TAIL_LADDER:
        if guaranteed * (1 - p / 100.0) >= TAIL_BEYOND:
            return f"p{p:g}", percentile(values, p)
    slower = sorted(values)[len(values) // 2:]
    return "mean of the slower half", sum(slower) / len(slower)


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quality_table(pairs: Dict[str, Dict[str, ScheduleResult]]
                  ) -> List[Dict[str, Any]]:
    """Per instance: DagHetPart / DagHetMem makespan and solve times."""
    rows = []
    for name, by_alg in pairs.items():
        part, mem = by_alg.get("DagHetPart"), by_alg.get("DagHetMem")
        if part is None or mem is None or not (part.success and mem.success):
            continue
        rows.append({"instance": name, "tasks": part.n_tasks,
                     "ratio": part.makespan / mem.makespan,
                     "daghetpart_s": part.runtime,
                     "daghetmem_s": mem.runtime})
    return rows


def makespan_rel(rows: List[Dict[str, Any]]) -> float:
    """The paper's relative makespan: geometric mean of the ratios."""
    return geomean([row["ratio"] for row in rows]) if rows else math.nan
