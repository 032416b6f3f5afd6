"""The two offline workloads: serial ``repro.api.solve()`` streams.

A run solves whole rounds of seeded instances until the summed ``solve()``
wall time reaches ``--seconds`` (at least the prefix rounds). Round
generation and the correctness checks run between solves and are not
timed. The prefix rounds are the same in every run of a seed, whatever
the machine's speed, so the digest, the relative makespan and the quality
table are computed over them. Between solves the host's speed is sampled
(``measure.Speedometer``), and every solve time is reported at the
reference speed.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.api as api
from repro.api import request_fingerprint

from perfbench import checks, inputs, measure
from perfbench.tracing import Tracer, layer_metrics


@dataclass(frozen=True)
class Spec:
    """What an offline workload solves and how it groups latencies."""

    name: str
    make_round: Callable[..., List[inputs.Instance]]
    algorithms: Tuple[str, ...]
    #: rounds every run completes (digest, makespan_rel, quality table)
    prefix_rounds: int
    #: instances per round
    per_round: int
    #: True: one request is an instance under every algorithm (its latency
    #: is the sum of its solves); False: one request is one solve
    per_instance: bool


#: prefix rounds per workload: a solve_large round is ~20 s on a 2-core
#: x86 VM and two of them average out the per-instance spread; eight
#: solve_small rounds give the quality table ~56 instances
PREFIX_ROUNDS = {"solve_large": 2, "solve_small": 8}


def specs(root: str) -> Dict[str, Spec]:
    return {
        "solve_large": Spec(
            "solve_large",
            lambda seed, r, tracer=None: inputs.large_round(seed, r, tracer),
            inputs.PAPER_ALGORITHMS, PREFIX_ROUNDS["solve_large"],
            per_round=len(inputs.LARGE_FAMILIES) + 1, per_instance=True),
        "solve_small": Spec(
            "solve_small",
            lambda seed, r, tracer=None: inputs.small_round(root, seed, r,
                                                            tracer),
            inputs.SMALL_ALGORITHMS, PREFIX_ROUNDS["solve_small"],
            per_round=inputs.PER_ROUND, per_instance=False),
    }


@dataclass
class Tally:
    """Everything one pass over the rounds observed."""

    #: per request: (start, end) of each of its solves
    requests: List[List[Tuple[float, float]]] = field(default_factory=list)
    busy_s: float = 0.0
    solves: int = 0
    tasks: int = 0
    failed: int = 0
    infeasible: int = 0
    problems: List[str] = field(default_factory=list)
    #: per prefix round: (fingerprint, makespan, k', blocks) of each solve
    fingerprints: List[List[Tuple[str, float, Any, int]]] = field(
        default_factory=list)
    pairs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    sweep_points: int = 0
    sweep_ok: int = 0
    sweep_inexact: int = 0
    #: per round: (first request, end request, tasks mapped)
    rounds: List[Tuple[int, int, int]] = field(default_factory=list)


#: wall seconds between two host-speed samples
SAMPLE_EVERY_S = 0.1


def solve_rounds(spec: Spec, seed: int, seconds: float, *,
                 max_rounds: Optional[int] = None,
                 tracer: Optional[Tracer] = None,
                 meter: Optional[measure.Speedometer] = None) -> Tally:
    """Solve rounds until ``seconds`` of solve time (>= prefix rounds)."""
    tally = Tally()
    with (meter.periodic(SAMPLE_EVERY_S) if meter is not None
          else contextlib.nullcontext()):
        _solve_rounds(spec, seed, seconds, max_rounds, tracer, tally)
    return tally


def _solve_rounds(spec: Spec, seed: int, seconds: float,
                  max_rounds: Optional[int], tracer: Optional[Tracer],
                  tally: Tally) -> None:
    r = 0
    while r < spec.prefix_rounds or (max_rounds is None
                                     and tally.busy_s < seconds):
        if max_rounds is not None and r >= max_rounds:
            break
        prefix = r < spec.prefix_rounds
        if prefix:
            tally.fingerprints.append([])
        before = (len(tally.requests), tally.tasks)
        for i, instance in enumerate(spec.make_round(seed, r, tracer)):
            key = f"r{r}.{i}:{instance.name}"
            if spec.per_instance:
                tally.requests.append([])
            for algorithm in spec.algorithms:
                request = inputs.request(instance, algorithm)
                if tracer is not None:
                    tracer.request_id = f"{key}:{algorithm}"
                started = time.perf_counter()
                try:
                    result = api.solve(request)
                except Exception as exc:  # noqa: BLE001 — counted, reported
                    result, problem = None, f"solve raised {exc!r}"
                ended = time.perf_counter()
                if not spec.per_instance:
                    tally.requests.append([])
                tally.requests[-1].append((started, ended))
                tally.busy_s += ended - started
                tally.solves += 1
                if result is not None:
                    problem = checks.check_result(result)
                if problem is not None:
                    tally.failed += 1
                    tally.problems.append(f"{key}:{algorithm}: {problem}")
                    continue
                if result.failure is not None:
                    tally.infeasible += 1
                else:
                    tally.tasks += result.n_tasks
                if result.k_prime is not None:
                    tally.sweep_inexact += checks.winning_point(
                        result).makespan != result.makespan
                    tally.sweep_points += len(result.sweep)
                    tally.sweep_ok += sum(p.status == "ok"
                                          for p in result.sweep)
                if prefix:
                    tally.fingerprints[-1].append((
                        request_fingerprint(request), result.makespan,
                        result.k_prime, result.n_blocks))
                    tally.pairs.setdefault(key, {})[result.algorithm] = \
                        result.without_mapping()
        tally.rounds.append((before[0], len(tally.requests),
                             tally.tasks - before[1]))
        r += 1


def timings(tally: Tally, meter: Optional[measure.Speedometer] = None,
            scaled: bool = True
            ) -> Tuple[List[float], List[Tuple[int, int, float]]]:
    """(request latencies, per round (requests, tasks, solve seconds)).

    When a ``meter`` sampled the pass its sampling is left out, and with
    ``scaled`` the times are at the reference speed."""
    def seconds(solves: List[Tuple[float, float]]) -> float:
        if meter is None:
            return sum(end - start for start, end in solves)
        return sum((end - start - meter.sampling_s(start, end))
                   * (meter.speed(start, end) if scaled else 1.0)
                   for start, end in solves)

    latencies = [seconds(solves) for solves in tally.requests]
    rounds = [(end - first, tasks, sum(latencies[first:end]))
              for first, end, tasks in tally.rounds]
    return latencies, rounds


def run(workload: str, root: str, seed: int, seconds: float,
        trace: bool) -> Dict[str, Any]:
    spec = specs(root)[workload]

    def setup() -> float:
        imported = measure.import_seconds(root)
        started = time.perf_counter()
        spec.make_round(seed, 0)
        return imported + time.perf_counter() - started

    if not trace:
        meter = measure.Speedometer()
        setup_s = measure.median_setup(setup, meter)
        tally = solve_rounds(spec, seed, seconds, meter=meter)
        rss = measure.vm_hwm_mb()
        report = summarize(spec, tally)
        report["metrics"] = dict(
            end_to_end(spec, *timings(tally, meter), rss,
                       report["makespan_rel"]), setup_s=setup_s)
        report["unscaled"] = end_to_end(spec, *timings(tally, meter, False),
                                        rss, report["makespan_rel"])
        report["host_speed"] = meter.summary()
        return report

    # the untraced baseline covers the first half of the prefix: enough
    # for the overhead ratio and the digest comparison, and it keeps a
    # traced solve_large run well inside its time limit
    baseline = max(1, spec.prefix_rounds // 2)
    untraced = solve_rounds(spec, seed, seconds, max_rounds=baseline)
    tracer = Tracer().install()
    try:
        tally = solve_rounds(spec, seed, seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    report = summarize(spec, tally)
    report["attempted"] += untraced.solves
    report["failed"] += untraced.failed
    report["problems"] += untraced.problems
    report["baseline"] = {"rounds": baseline,
                          "untraced_digest": digest(untraced, baseline),
                          "traced_digest": digest(tally, baseline)}
    if digest(untraced, baseline) != digest(tally, baseline):
        report["problems"].append("traced and untraced digests differ")
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (
        sum(busy for _, _, busy in timings(tally)[1][:baseline])
        / sum(busy for _, _, busy in timings(untraced)[1][:baseline]))
    metrics["core.sweep.points"] = tally.sweep_points
    metrics["core.sweep.ok_ratio"] = (tally.sweep_ok / tally.sweep_points
                                      if tally.sweep_points else 0.0)
    report["metrics"] = metrics
    report["spans"] = tracer
    return report


def digest(tally: Tally, rounds: int) -> str:
    """Digest of the first ``rounds`` rounds' results."""
    return checks.digest(entry for entries in tally.fingerprints[:rounds]
                         for entry in entries)


def summarize(spec: Spec, tally: Tally) -> Dict[str, Any]:
    rows = checks.quality_table(tally.pairs)
    tail_p, _ = checks.tail(timings(tally)[0], prefix_requests(spec))
    return {
        "workload": spec.name,
        "attempted": tally.solves,
        "failed": tally.failed,
        "problems": tally.problems,
        "infeasible_frac": tally.infeasible / tally.solves,
        "failed_frac": tally.failed / tally.solves,
        "sweep_inexact": tally.sweep_inexact,
        "digest": digest(tally, spec.prefix_rounds),
        "samples": len(tally.requests),
        "tail": tail_p,
        "quality": rows,
        "losses": [row for row in rows if row["ratio"] > 1.0],
        "makespan_rel": checks.makespan_rel(rows),
        "rounds": tally.rounds,
    }


def prefix_requests(spec: Spec) -> int:
    """Requests in the prefix rounds, which every run solves."""
    return spec.prefix_rounds * spec.per_round * (
        1 if spec.per_instance else len(spec.algorithms))


def end_to_end(spec: Spec, latencies: List[float],
               rounds: List[Tuple[int, int, float]], rss_mb: float,
               makespan_rel: float) -> Dict[str, float]:
    """Rates are totals over the whole pass: requests (or tasks) over the
    summed solve time."""
    _, tail_value = checks.tail(latencies, prefix_requests(spec))
    busy = sum(seconds for _, _, seconds in rounds)
    return {
        "throughput_rps": sum(requests for requests, _, _ in rounds) / busy,
        "tasks_per_s": sum(tasks for _, tasks, _ in rounds) / busy,
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail_value,
        "makespan_rel": makespan_rel,
        "peak_rss_mb": rss_mb,
    }
