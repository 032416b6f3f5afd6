"""service_mixed: a ``repro serve`` subprocess driven closed-loop over HTTP.

The server runs with a ``sqlite://`` result cache and one worker. Two
callers in this process, each on its own keep-alive connection, submit
positions of one seeded sequence: POST ``/v1/schedule``, wait on
``/v1/jobs/{id}/events`` for the end event, then GET the job. From
position FIRST_REPEAT on, every odd position repeats an earlier request
(a cache read); the others are fresh (solve, cache write, job-store
append). Submissions stop once ``--seconds`` have passed, but the first
PREFIX positions are always submitted, so the digest and the relative
makespan cover the same requests in every run of a seed. The untraced run
goes in bursts with the host's speed sampled between them (see ``drive``),
and its times are reported at the reference speed. After the timed phase
every service result is compared with an offline ``solve()`` of the same
request.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import repro.api as api
from repro.api import ScheduleRequest, ScheduleResult, request_fingerprint

from perfbench import checks, inputs, measure
from perfbench.tracing import Tracer, layer_metrics

#: closed-loop callers (keep-alive connections) in the client process
CALLERS = 2
#: positions every run submits, whatever the machine's speed
PREFIX = 480
#: per-HTTP-call timeout
HTTP_TIMEOUT_S = 60.0
#: how long a server may take to boot or to drain and exit
BOOT_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


class Server:
    """One ``repro serve`` subprocess with its own store and cache."""

    def __init__(self, root: str, workdir: str, traced: bool):
        self.store = os.path.join(workdir, "store")
        self.snapshot = os.path.join(workdir, "trace.json") if traced else None
        args = ["serve", "--port", "0", "--store", self.store,
                "--cache", "sqlite://" + os.path.join(workdir, "cache.db"),
                "--workers", "1"]
        if traced:
            command = [sys.executable,
                       os.path.join(root, "perfbench", "serve_traced.py"),
                       self.snapshot] + args
        else:
            command = [sys.executable, "-m", "repro"] + args
        environ = measure.env(root)
        environ["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        self._log = open(os.path.join(workdir, "server.log"), "w",
                         encoding="utf-8")
        self.proc = subprocess.Popen(command, cwd=root, env=environ,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        try:
            self.host, self.port = self._await_listening()
            self._await_healthy(started + BOOT_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.boot_s = time.perf_counter() - started

    def _await_listening(self) -> Tuple[str, int]:
        for line in self.proc.stdout:
            match = _LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("server exited before listening; see "
                           + self._log.name)

    def _await_healthy(self, deadline: float) -> None:
        while True:
            try:
                status, _ = self.call_once("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=HTTP_TIMEOUT_S)

    def call_once(self, method: str, path: str) -> Tuple[int, Any]:
        """One request on a connection of its own."""
        conn = self.connect()
        try:
            return call(conn, method, path)
        finally:
            conn.close()

    def stop(self) -> None:
        """Graceful drain through the API, then wait for the exit."""
        try:
            self.call_once("POST", "/v1/shutdown")
            self.proc.wait(timeout=BOOT_TIMEOUT_S)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def call(conn: http.client.HTTPConnection, method: str, path: str,
         body: Optional[bytes] = None) -> Tuple[int, Any]:
    """One request on a (keep-alive) connection; (status, decoded JSON)."""
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"null")


def await_end(server: Server, job_id: str) -> float:
    """Follow the job's event stream to its end event; its wall time."""
    conn = server.connect()
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events")
        response = conn.getresponse()
        if response.status != 200:
            raise RuntimeError(f"events stream answered {response.status}")
        for line in response:
            if line.strip() and json.loads(line).get("event") == "end":
                return time.time()
        raise RuntimeError("event stream ended without an end event")
    finally:
        conn.close()


class Sequence:
    """The seeded submission sequence; bodies are generated on demand."""

    def __init__(self, root: str, seed: int, tracer: Optional[Tracer]):
        self.root, self.seed, self.tracer = root, seed, tracer
        self._bodies: Dict[int, Tuple[bytes, int]] = {}
        self._lock = threading.Lock()

    def body(self, position: int) -> Tuple[int, bytes, int]:
        """(fresh request index, JSON body, task count) of a position."""
        k = inputs.fresh_request_index(self.seed, position)
        with self._lock:
            cached = self._bodies.get(k)
        if cached is None:
            instance, algorithm = inputs.fresh_request(
                self.root, self.seed, k, self.tracer)
            request = inputs.request(instance, algorithm, want_mapping=False)
            cached = (json.dumps(request.to_dict()).encode(),
                      instance.workflow.n_tasks)
            with self._lock:
                self._bodies[k] = cached
        return (k,) + cached

    def request(self, k: int) -> ScheduleRequest:
        return ScheduleRequest.from_dict(json.loads(self._bodies[k][0]))


@dataclasses.dataclass
class Job:
    """What one submission observed."""

    position: int
    fresh: int
    tasks: int
    #: index of the burst it ran in (see drive)
    burst: int = -1
    latency_s: float = 0.0
    accept_s: float = 0.0
    end_wall: float = 0.0
    done_at: float = 0.0
    view: Optional[Dict[str, Any]] = None
    problem: Optional[str] = None


#: seconds of closed-loop traffic between two host-speed samples; a
#: sample is taken when both callers are idle, so it runs alone on the CPU
BURST_S = 0.2


@dataclasses.dataclass
class Burst:
    """A stretch of closed-loop traffic between two host-speed samples."""

    start: float
    end: float
    #: positions submitted by its end
    submitted: int
    #: the server's peak resident set at its end (VmHWM, MiB)
    rss_mb: float


def drive(server: Server, sequence: Sequence, seconds: Optional[float],
          meter: Optional[measure.Speedometer] = None
          ) -> Tuple[List[Job], float, List[Burst]]:
    """Run the closed loop; ``seconds=None`` submits the prefix only.

    With a ``meter`` the traffic runs in bursts of BURST_S: when a burst
    is over, each caller finishes its job and waits for the other, and
    the host's speed is sampled before the next burst starts; submissions
    stop at the first burst end past ``seconds`` (and the prefix).
    Returns the jobs in position order, the start of the timed phase and
    the bursts.
    """
    jobs: List[Job] = []
    bursts: List[Burst] = []
    lock = threading.Lock()
    cursor = [0]
    errors: List[BaseException] = []
    if meter is not None:
        meter.sample()
    state = {"stop": False}
    started = state["start"] = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def past_end(now: float) -> bool:
        return cursor[0] >= PREFIX and (deadline is None or now >= deadline)

    def end_burst() -> None:
        # run by the last caller to reach the barrier: nothing is in flight
        now = time.perf_counter()
        meter.sample()
        bursts.append(Burst(state["start"], now, cursor[0],
                            measure.vm_hwm_mb(str(server.proc.pid))))
        state["stop"] = past_end(now)
        state["start"] = time.perf_counter()

    barrier = (threading.Barrier(CALLERS, action=end_burst)
               if meter is not None else None)

    def take() -> Optional[Tuple[int, int]]:
        """(position, burst) to submit; (-1, -1) when the burst is over;
        None when the run is over."""
        with lock:
            now = time.perf_counter()
            if barrier is not None:
                if now - state["start"] >= BURST_S:
                    return -1, -1
            elif past_end(now):
                return None
            cursor[0] += 1
            return cursor[0] - 1, len(bursts)

    def caller() -> None:
        conn = server.connect()
        try:
            while True:
                taken = take()
                if taken is None:
                    return
                position, burst = taken
                if position < 0:
                    barrier.wait(timeout=2 * HTTP_TIMEOUT_S)
                    if state["stop"]:
                        return
                    continue
                k, body, tasks = sequence.body(position)
                job = Job(position, k, tasks, burst=burst)
                submit(server, conn, body, job)
                with lock:
                    jobs.append(job)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
            if barrier is not None:
                barrier.abort()
        finally:
            conn.close()

    threads = [threading.Thread(target=caller) for _ in range(CALLERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    jobs.sort(key=lambda job: job.position)
    return jobs, started, bursts


def submit(server: Server, conn: http.client.HTTPConnection, body: bytes,
           job: Job) -> None:
    """POST, wait for the end event, GET the job; fills ``job``."""
    started = time.perf_counter()
    status, accepted = call(conn, "POST", "/v1/schedule", body)
    job.accept_s = time.perf_counter() - started
    if status // 100 != 2:
        job.problem = f"POST answered {status}: {accepted}"
        job.done_at = time.perf_counter()
        return
    job.end_wall = await_end(server, accepted["id"])
    status, view = call(conn, "GET", f"/v1/jobs/{accepted['id']}")
    job.done_at = time.perf_counter()
    job.latency_s = job.done_at - started
    if status // 100 != 2:
        job.problem = f"GET answered {status}: {view}"
        return
    job.view = view
    state = view["status"]["state"]
    if state != "done" or not view["result"] \
            or len(view["result"]["results"]) != 1:
        job.problem = f"job ended {state!r}: {view['status'].get('error')}"


def verify(sequence: Sequence, jobs: List[Job]) -> List[str]:
    """Compare each service result with an offline solve() of its request."""
    problems = [f"position {job.position}: {job.problem}"
                for job in jobs if job.problem]
    offline: Dict[int, Tuple[Dict[str, Any], Optional[str]]] = {}
    for job in jobs:
        if job.problem:
            continue
        if job.fresh not in offline:
            request = dataclasses.replace(sequence.request(job.fresh),
                                          want_mapping=True)
            try:
                result = api.solve(request)
                offline[job.fresh] = (checks.outcome(result.to_dict()),
                                      checks.check_result(result))
            except Exception as exc:  # noqa: BLE001 — counted, reported
                offline[job.fresh] = ({}, f"offline solve raised {exc!r}")
        expected, problem = offline[job.fresh]
        record = job.view["result"]["results"][0]
        if problem is None and checks.outcome(record) != expected:
            problem = "service result differs from the offline solve()"
        if problem is not None:
            job.problem = problem
            problems.append(f"position {job.position}: {problem}")
    return problems


def prefix_summary(sequence: Sequence, jobs: List[Job]
                   ) -> Tuple[str, float, List[Dict[str, Any]]]:
    """Digest, relative makespan and quality table of the prefix."""
    entries = []
    pairs: Dict[str, Dict[str, ScheduleResult]] = {}
    for job in jobs:
        if job.position >= PREFIX or job.problem:
            continue
        result = ScheduleResult.from_dict(job.view["result"]["results"][0])
        entries.append((request_fingerprint(sequence.request(job.fresh)),
                        result.makespan, result.k_prime, result.n_blocks))
        instance = job.fresh // len(inputs.SMALL_ALGORITHMS)
        pairs.setdefault(f"i{instance}:{result.workflow}", {})[
            result.algorithm] = result
    rows = checks.quality_table(pairs)
    return checks.digest(entries), checks.makespan_rel(rows), rows


def run(root: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    out = os.path.join(root, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="service-", dir=out)
    servers: List[Server] = []
    try:
        return _run(root, workdir, servers, seed, seconds, trace)
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(root: str, workdir: str, servers: List[Server], seed: int,
         seconds: float, trace: bool) -> Dict[str, Any]:
    def setup() -> float:
        if servers:
            servers[-1].stop()
        boot_dir = tempfile.mkdtemp(prefix="boot-", dir=workdir)
        servers.append(Server(root, boot_dir, traced=False))
        started = time.perf_counter()
        fresh = Sequence(root, seed, None)
        for position in range(PREFIX):
            fresh.body(position)
        return servers[-1].boot_s + time.perf_counter() - started

    meter = None if trace else measure.Speedometer()
    if trace:
        setup()
    else:
        setup_s = measure.median_setup(setup, meter)
    report: Dict[str, Any] = {"workload": "service_mixed", "problems": []}
    tracer = Tracer() if trace else None
    if trace:
        baseline = Sequence(root, seed, None)
        base_jobs, base_start, _ = drive(servers[-1], baseline, None)
        servers[-1].stop()
        report["problems"] += verify(baseline, base_jobs)
        untraced_digest = prefix_summary(baseline, base_jobs)[0]
        servers.append(Server(root, tempfile.mkdtemp(prefix="traced-",
                                                     dir=workdir),
                              traced=True))
    server = servers[-1]
    sequence = Sequence(root, seed, tracer)
    jobs, started, bursts = drive(server, sequence, seconds, meter)
    _, stats = server.call_once("GET", "/v1/stats")
    # the server keeps every job it ran, so its memory grows with the jobs
    # a run manages in its time, which follows the host's speed; the peak
    # after the prefix's jobs compares runs of a seed
    rss = next((b.rss_mb for b in bursts if b.submitted >= PREFIX), math.nan)
    server.stop()
    store_bytes = sum(os.path.getsize(os.path.join(server.store, name))
                      for name in os.listdir(server.store))

    report["problems"] += verify(sequence, jobs)
    failed = [job for job in jobs if job.problem]
    ok = [job for job in jobs if not job.problem]
    report["digest"], report["makespan_rel"], rows = prefix_summary(
        sequence, jobs)
    latencies = [job.latency_s for job in ok]
    tail_p, _ = checks.tail(latencies, PREFIX)
    results = [job.view["result"]["results"][0] for job in ok]
    infeasible = sum(1 for r in results if r["failure"] is not None)
    report.update({
        "attempted": len(jobs), "failed": len(failed),
        "samples": len(latencies), "tail": tail_p,
        "failed_frac": len(failed) / len(jobs),
        "infeasible_frac": infeasible / len(jobs),
        "quality": rows,
        "losses": [row for row in rows if row["ratio"] > 1.0],
    })
    if trace:
        report["attempted"] += len(base_jobs)
        report["failed"] += sum(1 for job in base_jobs if job.problem)
        report["baseline"] = {"positions": PREFIX,
                              "untraced_digest": untraced_digest,
                              "traced_digest": report["digest"]}
        if untraced_digest != report["digest"]:
            report["problems"].append("traced and untraced digests differ")
        with open(server.snapshot, encoding="utf-8") as fh:
            tracer.merge(json.load(fh))
        server_spans = os.path.join(
            root, ".perfbench_out",
            f"service_mixed-seed{seed}-trace1.server.spans.jsonl.gz")
        shutil.move(server.snapshot + ".spans.jsonl.gz", server_spans)
        report["server_spans_file"] = os.path.relpath(server_spans, root)
        report["spans"] = tracer
        metrics = layer_metrics(tracer)
        prefix_end = max(job.done_at for job in jobs if job.position < PREFIX)
        base_end = max(job.done_at for job in base_jobs)
        metrics["trace.overhead_ratio"] = \
            (prefix_end - started) / (base_end - base_start)
        metrics.update(sweep_metrics(results))
        metrics.update(service_metrics(ok, stats, store_bytes, len(jobs)))
        report["metrics"] = metrics
        return report

    def end_to_end(speeds: List[float]) -> Dict[str, float]:
        """The metrics with each burst's times multiplied by its speed."""
        wall = sum((b.end - b.start) * speed
                   for b, speed in zip(bursts, speeds))
        scaled = [job.latency_s * speeds[job.burst] for job in ok]
        return {
            "throughput_rps": len(ok) / wall,
            "tasks_per_s": sum(job.tasks for job, r in zip(ok, results)
                               if r["failure"] is None) / wall,
            "latency_p50_ms": 1000.0 * statistics.median(scaled),
            "latency_tail_ms": 1000.0 * checks.tail(scaled, PREFIX)[1],
            "makespan_rel": report["makespan_rel"],
            "peak_rss_mb": rss,
        }

    report["metrics"] = dict(end_to_end([meter.speed(b.start, b.end)
                                         for b in bursts]), setup_s=setup_s)
    report["unscaled"] = end_to_end([1.0] * len(bursts))
    report["host_speed"] = meter.summary()
    report["bursts"] = len(bursts)
    return report


def sweep_metrics(results: List[Dict[str, Any]]) -> Dict[str, float]:
    points = [p for r in results if r["k_prime"] is not None
              for p in r["sweep"]]
    ok = sum(1 for p in points if p["status"] == "ok")
    return {"core.sweep.points": len(points),
            "core.sweep.ok_ratio": ok / len(points) if points else 0.0}


def service_metrics(jobs: List[Job], stats: Dict[str, Any],
                    store_bytes: int, submitted: int) -> Dict[str, float]:
    """Per-job means of the accept -> queue -> solve -> store -> notify
    breakdown, from the job's own timestamps."""
    rows = []
    for job in jobs:
        status, result = job.view["status"], job.view["result"]
        solve = (sum(r["runtime"] for r in result["results"])
                 if result["cache_misses"] else 0.0)
        rows.append((job.accept_s,
                     status["started_at"] - status["submitted_at"],
                     solve,
                     status["finished_at"] - status["started_at"] - solve,
                     job.end_wall - status["finished_at"]))
    means = [1000.0 * statistics.fmean(column) for column in zip(*rows)]
    cache = stats.get("cache") or {}
    return {
        "service.accept_ms": means[0],
        "service.queue_wait_ms": means[1],
        "service.solve_ms": means[2],
        "service.store_ms": means[3],
        "service.notify_ms": means[4],
        "service.store.bytes_per_job": store_bytes / submitted,
        "service.cache.hit_ratio": cache.get("hit_rate") or 0.0,
    }
