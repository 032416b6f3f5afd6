"""The service load test behind ``repro serve --loadtest``.

Boots a real :class:`~repro.service.app.ServiceApp` on an ephemeral
port and replays a synthetic scenario corpus against it over real HTTP,
then writes the throughput/latency report that ``BENCH_service.json``
commits and CI gates (the ``BENCH_sim.json`` pattern).

The test is a **gated burst**, which makes "N concurrent submissions"
an exact, reproducible number instead of a race between the submitters
and the drain: the dispatcher's worker gate is held while every job is
submitted (accepted jobs pile up durably in the queue — the measured
submission throughput includes validation, the job-store append, and
the HTTP round-trip), so at the moment the last acceptance lands the
service provably holds ``n_jobs`` concurrent jobs. Releasing the gate
starts the drain, whose completion latencies come from the job store's
own ``finished_at`` timestamps.

Submissions travel over a fixed pool of keep-alive connections (64 by
default) rather than one socket per job — thousands of simultaneous
sockets would measure the machine's file-descriptor limit, not the
service.

Absolute throughput is machine-dependent, so the regression gate is a
*ratio*: the same request corpus (a sample of it) is also run through
:func:`~repro.api.batch.iter_solve_batch` directly — no HTTP, no job
store, no dispatcher — in the same process, and the gate compares the
service's drain rate against that offline rate (``efficiency``). The
hard, machine-independent checks: zero dropped submissions, zero
failed/crashed jobs, and a peak concurrency floor of
``min(1000, n_jobs)``.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: benchmark defaults — the acceptance scale of the issue
DEFAULT_JOBS = 1024
DEFAULT_WORKERS = 4
DEFAULT_CONNECTIONS = 64
DEFAULT_N_TASKS = 16
DEFAULT_SAMPLE = 192
DEFAULT_TOLERANCE = 0.5

#: families cycled through the corpus (distinct seeds per job keep every
#: request a genuine solve — no two jobs share a cache fingerprint)
FAMILY_CYCLE = ("blast", "bwa", "genome", "soykb")


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _build_corpus(n_jobs: int, n_tasks: int, algorithm: str,
                  seed: int) -> List[bytes]:
    """Pre-serialized POST bodies, one distinct request per job."""
    from repro.api.envelopes import ScheduleRequest
    from repro.core.heuristic import DagHetPartConfig
    from repro.generators.families import generate_workflow
    from repro.platform.presets import cluster_by_name

    cluster = cluster_by_name("default")
    config = DagHetPartConfig(k_prime_strategy="doubling") \
        if algorithm == "daghetpart" else None
    bodies: List[bytes] = []
    for i in range(n_jobs):
        family = FAMILY_CYCLE[i % len(FAMILY_CYCLE)]
        request = ScheduleRequest(
            workflow=generate_workflow(family, n_tasks, seed=seed + i),
            cluster=cluster, algorithm=algorithm, config=config,
            scale_memory=True, want_mapping=False,
            tags={"loadtest": i})
        bodies.append(request.to_json().encode("utf-8"))
    return bodies


async def _submit_over_connection(host: str, port: int,
                                  jobs: List[Tuple[int, bytes]],
                                  latencies: Dict[int, float],
                                  accepted: List[str],
                                  errors: List[str]) -> None:
    """One pooled keep-alive connection submitting its slice in order."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for index, body in jobs:
            head = (f"POST /v1/schedule HTTP/1.1\r\n"
                    f"Host: {host}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
            t0 = time.perf_counter()
            writer.write(head + body)
            await writer.drain()
            status_head = await reader.readuntil(b"\r\n\r\n")
            lines = status_head.decode("latin-1").split("\r\n")
            code = int(lines[0].split(" ")[1])
            length = 0
            for line in lines[1:]:
                if line.lower().startswith("content-length:"):
                    length = int(line.split(":", 1)[1])
            payload = await reader.readexactly(length)
            latencies[index] = time.perf_counter() - t0
            if code == 202:
                accepted.append(json.loads(payload)["id"])
            else:
                errors.append(f"job {index}: HTTP {code} "
                              f"{payload[:200].decode('utf-8', 'replace')}")
    finally:
        writer.close()


async def _run_loadtest(n_jobs: int, workers: int, connections: int,
                        n_tasks: int, algorithm: str, seed: int,
                        sample: int, store_dir: str,
                        progress: Optional[Callable[[str], None]]
                        ) -> Dict[str, Any]:
    from repro.service.app import ServiceApp

    def say(message: str) -> None:
        if progress:
            progress(message)

    say(f"building corpus: {n_jobs} requests "
        f"({'/'.join(FAMILY_CYCLE)} x n={n_tasks}, {algorithm})")
    bodies = _build_corpus(n_jobs, n_tasks, algorithm, seed)

    app = ServiceApp(store_dir, cache=None, backend=None,
                     workers=workers, parallel=0)
    await app.start(host="127.0.0.1", port=0)
    app.dispatcher.hold()  # the gated burst: accept everything first
    try:
        pool = min(connections, n_jobs)
        slices: List[List[Tuple[int, bytes]]] = [[] for _ in range(pool)]
        for index, body in enumerate(bodies):
            slices[index % pool].append((index, body))
        latencies: Dict[int, float] = {}
        accepted: List[str] = []
        errors: List[str] = []

        say(f"bursting {n_jobs} submissions over {pool} connections")
        burst_t0 = time.perf_counter()
        await asyncio.gather(*(
            _submit_over_connection("127.0.0.1", app.port, chunk,
                                    latencies, accepted, errors)
            for chunk in slices if chunk))
        submit_total = time.perf_counter() - burst_t0

        stats_at_peak = app.dispatcher.stats()
        say(f"accepted {len(accepted)}/{n_jobs} "
            f"in {submit_total:.2f}s "
            f"(peak active: {stats_at_peak['peak_active']})")

        say("releasing the worker gate; draining")
        release_ts = time.time()
        drain_t0 = time.perf_counter()
        app.dispatcher.release()
        while True:
            live = app.dispatcher.stats()
            if live["active"] == 0:
                break
            await asyncio.sleep(0.05)
        drain_total = time.perf_counter() - drain_t0

        counts = app.store.counts()
        completion: List[float] = []
        for job_id in app.store.jobs():
            status = app.store.status(job_id)
            if status is not None and status.finished_at is not None:
                completion.append(max(0.0, status.finished_at - release_ts))
        final_stats = app.dispatcher.stats()
    finally:
        await app.shutdown()

    say(f"offline reference: {min(sample, n_jobs)} of the same requests "
        f"through iter_solve_batch")
    offline = _offline_reference(bodies[:min(sample, n_jobs)], workers)

    submit_ms = [v * 1000.0 for v in latencies.values()]
    drain_rate = (n_jobs / drain_total) if drain_total > 0 else 0.0
    report: Dict[str, Any] = {
        "n_jobs": n_jobs,
        "workers": workers,
        "connections": pool,
        "n_tasks": n_tasks,
        "algorithm": algorithm,
        "seed": seed,
        "family_cycle": list(FAMILY_CYCLE),
        "accepted": len(accepted),
        "dropped": n_jobs - len(accepted),
        "submit_errors": errors[:10],
        "peak_active": final_stats["peak_active"],
        "jobs": counts,
        "failed_jobs": counts.get("failed", 0),
        "crashed_jobs": counts.get("crashed", 0),
        "submit": {
            "total_s": round(submit_total, 6),
            "rate_per_s": round(len(accepted) / submit_total, 3)
            if submit_total > 0 else None,
            "p50_ms": round(_percentile(submit_ms, 0.50), 3),
            "p90_ms": round(_percentile(submit_ms, 0.90), 3),
            "p99_ms": round(_percentile(submit_ms, 0.99), 3),
            "max_ms": round(max(submit_ms), 3) if submit_ms else None,
        },
        "drain": {
            "total_s": round(drain_total, 6),
            "rate_per_s": round(drain_rate, 3),
            "p50_s": round(_percentile(completion, 0.50), 4),
            "p90_s": round(_percentile(completion, 0.90), 4),
            "p99_s": round(_percentile(completion, 0.99), 4),
        },
        "offline": offline,
        "efficiency": round(drain_rate / offline["rate_per_s"], 4)
        if offline["rate_per_s"] else None,
    }
    return report


def _offline_reference(bodies: List[bytes], workers: int) -> Dict[str, Any]:
    """The same requests, solved directly — the machine-speed yardstick.

    Uses the thread backend at the service's worker count, matching the
    dispatcher's concurrency model (each service job runs serially on
    one of ``workers`` threads), so the efficiency ratio isolates the
    service overhead: HTTP, validation, the job store, and event fanout.
    """
    from repro.api.batch import iter_solve_batch
    from repro.api.envelopes import ScheduleRequest

    requests = [ScheduleRequest.from_json(body.decode("utf-8"))
                for body in bodies]
    t0 = time.perf_counter()
    results = list(iter_solve_batch(requests, parallel=workers,
                                    backend="thread"))
    total = time.perf_counter() - t0
    n_failed = sum(1 for r in results if r.failure is not None)
    return {
        "sample": len(requests),
        "total_s": round(total, 6),
        "rate_per_s": round(len(requests) / total, 3) if total > 0 else None,
        "failed": n_failed,
    }


def run_service_loadtest(n_jobs: int = DEFAULT_JOBS,
                         workers: int = DEFAULT_WORKERS,
                         connections: int = DEFAULT_CONNECTIONS,
                         n_tasks: int = DEFAULT_N_TASKS,
                         algorithm: str = "daghetpart",
                         seed: int = 0,
                         sample: int = DEFAULT_SAMPLE,
                         store_dir: Optional[str] = None,
                         progress: Optional[Callable[[str], None]] = None,
                         ) -> Dict[str, Any]:
    """Run the full load test; returns the report dict."""
    import tempfile

    if store_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-loadtest-") as tmp:
            return asyncio.run(_run_loadtest(
                n_jobs, workers, connections, n_tasks, algorithm, seed,
                sample, tmp, progress))
    return asyncio.run(_run_loadtest(
        n_jobs, workers, connections, n_tasks, algorithm, seed, sample,
        store_dir, progress))


def compare_service_to_baseline(report: Dict[str, Any],
                                baseline: Dict[str, Any],
                                tolerance: float = DEFAULT_TOLERANCE
                                ) -> List[str]:
    """Regression check against a committed report; empty list = pass.

    Hard invariants first (machine-independent): every submission
    accepted, every job completes (``done``), and peak concurrency at
    least ``min(1000, n_jobs)`` — the issue's acceptance floor. Then the
    ratio gate: the service's efficiency (drain rate vs the same-process
    offline rate) must stay above ``tolerance`` x the committed
    baseline's efficiency.
    """
    problems: List[str] = []
    if report.get("dropped", 0) != 0:
        problems.append(
            f"{report['dropped']} submission(s) dropped "
            f"(errors: {report.get('submit_errors')})")
    if report.get("failed_jobs", 0) or report.get("crashed_jobs", 0):
        problems.append(
            f"{report.get('failed_jobs', 0)} failed / "
            f"{report.get('crashed_jobs', 0)} crashed job(s); "
            f"the load-test corpus must complete cleanly")
    floor = min(1000, report.get("n_jobs", 0))
    if report.get("peak_active", 0) < floor:
        problems.append(
            f"peak concurrency {report.get('peak_active')} fell below the "
            f"{floor}-job floor")
    done = report.get("jobs", {}).get("done", 0)
    if done != report.get("n_jobs"):
        problems.append(
            f"only {done}/{report.get('n_jobs')} jobs reached 'done'")
    efficiency = report.get("efficiency") or 0.0
    baseline_eff = baseline.get("efficiency") or 0.0
    if efficiency <= 0:
        problems.append("no measurable drain throughput")
    elif efficiency < baseline_eff * tolerance:
        problems.append(
            f"service efficiency {efficiency:.3f} fell below "
            f"{baseline_eff * tolerance:.3f} "
            f"({tolerance:g} x the committed {baseline_eff:.3f})")
    return problems


def write_service_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_service_report(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
