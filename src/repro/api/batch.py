"""``solve`` / ``solve_batch`` — thin façades over pluggable execution backends.

:func:`solve` executes one :class:`ScheduleRequest` end to end: registry
lookup, optional memory scaling, timed algorithm run, failure capture into
a :class:`FailureInfo`, optional validation, envelope assembly.

:func:`iter_solve_batch` streams results back in request order while
keeping only a bounded window of requests in flight, so arbitrarily large
sweeps (scenario cross-products, million-request corpora) never
materialise all requests or results at once. *Where* the requests run is
delegated to an :class:`~repro.api.exec.backends.ExecutionBackend`
(``serial`` / ``thread`` / ``process``, or a registered plugin), chosen
per batch by :func:`~repro.api.exec.routing.route` — explicit
``backend=`` override, then ``REPRO_BACKEND``, then algorithm metadata.
Per-request :class:`~repro.api.exec.policy.ExecutionPolicy` (timeout,
retries) is enforced by the backend, so a timed-out request yields a
structured ``FailureInfo(kind="timeout")`` instead of hanging the sweep.

The façade optionally consults a :class:`~repro.api.cache.CacheBackend`
so repeated sweeps are served from disk instead of recomputed; when no
cache is attached, no fingerprint is ever computed (fingerprinting hashes
the whole workflow — pure overhead on cache-less runs; see
``benchmarks/test_batch_overhead.py`` for the guard).

:func:`solve_batch` is the list-returning façade over the same iterator;
results come back merged deterministically into the input order, so apart
from the measured ``runtime`` fields a parallel batch is identical to a
serial one — and identical *across backends*.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from itertools import chain
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.api.envelopes import FailureInfo, ScheduleRequest, ScheduleResult
from repro.api.registry import get_algorithm
from repro.utils.errors import ReproError

#: environment default for ``solve_batch(parallel=None)``; 0 = serial
PARALLEL_ENV = "REPRO_PARALLEL"

#: called after each request completes: (index, request, result)
ProgressHook = Callable[[int, ScheduleRequest, ScheduleResult], None]


def solve(request: ScheduleRequest) -> ScheduleResult:
    """Run one request; failures come back structured, never raised.

    Only algorithm failures (:class:`ReproError` subclasses — the paper's
    "platform too small" outcomes) and, with ``request.validate``, an
    invalid mapping are captured into ``ScheduleResult.failure`` (the
    mapping is then dropped); programming errors (unknown algorithm
    name, wrong config type) raise immediately. The request's
    ``ExecutionPolicy`` is *not* enforced here — that is the backend's
    job (:func:`repro.api.exec.backends.solve_with_policy`).
    """
    info = get_algorithm(request.algorithm)  # raises on unknown names

    cluster = request.cluster
    if request.scale_memory:
        # lazy: repro.experiments imports repro.api at package load
        from repro.experiments.instances import scaled_cluster_for
        cluster = scaled_cluster_for(request.workflow, cluster)

    failure: Optional[FailureInfo] = None
    output = None
    sweep: Tuple = ()
    start = time.perf_counter()
    try:
        output = info.scheduler.run(request.workflow, cluster, request.config)
    except ReproError as exc:
        failure = FailureInfo.from_exception(exc)
        sweep = tuple(getattr(exc, "sweep", ()))
    runtime = time.perf_counter() - start

    mapping = output.mapping if output is not None else None
    if mapping is not None and request.validate:
        try:
            mapping.validate()
        except ReproError as exc:
            # an invalid mapping (e.g. a memory-oblivious one overflowing
            # a processor) is reported like an algorithm failure
            failure = FailureInfo.from_exception(exc)
            sweep = tuple(output.sweep)
            output = mapping = None

    return ScheduleResult(
        algorithm=info.display_name,
        workflow=request.workflow.name,
        n_tasks=request.workflow.n_tasks,
        cluster=cluster.name,
        bandwidth=cluster.bandwidth,
        makespan=mapping.makespan() if mapping is not None else float("inf"),
        runtime=runtime,
        n_blocks=mapping.n_blocks if mapping is not None else 0,
        k_prime=output.k_prime if output is not None else None,
        sweep=tuple(output.sweep) if output is not None else sweep,
        failure=failure,
        tags=dict(request.tags),
        extra=dict(output.extra) if output is not None else {},
        mapping=mapping if request.want_mapping else None,
    )


def resolve_parallel(parallel: Optional[int]) -> int:
    """Normalize the ``parallel`` knob to a worker count (0/1 = serial).

    ``None`` reads :data:`PARALLEL_ENV`; negative values mean "all
    available CPUs".
    """
    if parallel is None:
        raw = os.environ.get(PARALLEL_ENV, "0")
        try:
            parallel = int(raw)
        except ValueError:
            warnings.warn(
                f"ignoring unparsable {PARALLEL_ENV}={raw!r} (expected an "
                f"integer worker count); running serially",
                RuntimeWarning, stacklevel=2)
            parallel = 0
    if parallel < 0:
        parallel = os.cpu_count() or 1
    return parallel


def _fingerprint(cache, request: ScheduleRequest) -> Optional[str]:
    """The request's cache fingerprint, or ``None`` when not cacheable.

    The ``cache is None`` fast path must stay first: fingerprinting hashes
    the entire workflow and cluster, and a cache-less run must never pay
    for it. Requests that want the live mapping back are never served from
    cache either — the mapping does not survive serialization, so a hit
    would silently downgrade the result.
    """
    if cache is None or request.want_mapping:
        return None
    return cache.fingerprint(request)


def _cacheable(result: ScheduleResult) -> bool:
    """Timeouts are execution artifacts (machine/load-dependent), not
    outcomes of the computation — caching one would poison every later
    sweep with a failure that might not reproduce."""
    return result.failure is None or result.failure.kind != "timeout"


def iter_solve_batch(requests: Iterable[ScheduleRequest],
                     parallel: Optional[int] = None,
                     progress: Optional[ProgressHook] = None,
                     cache=None,
                     window: Optional[int] = None,
                     backend: Optional[str] = None) -> Iterator[ScheduleResult]:
    """Stream results back in request order, never holding the whole batch.

    ``requests`` may be any iterable — including a lazy generator over a
    scenario cross-product; it is consumed incrementally, with at most
    ``window`` requests (default ``4 x workers``) in flight at a time, so
    million-request sweeps stay at constant memory. ``parallel`` behaves
    as in :func:`solve_batch`. ``progress`` is called in the parent, in
    request order, as each result is yielded.

    ``backend`` overrides the execution backend (a registered name:
    ``serial``, ``thread``, ``process``, ...); by default
    :func:`~repro.api.exec.routing.route` picks one from the worker count,
    ``REPRO_BACKEND``, and the *first* request's algorithm capabilities —
    a lazy stream cannot be scanned ahead of time (:func:`solve_batch`,
    holding the whole list, routes on every algorithm in it). On the
    ``serial`` backend the semantics are bit-for-bit the classic loop:
    one request pulled, solved, cached, yielded at a time.

    ``cache`` is an optional :class:`repro.api.cache.CacheBackend`:
    requests whose fingerprint is already stored are served from disk
    without a ``solve`` call (their ``tags`` are taken from the incoming
    request, not the stored result), and every freshly computed result is
    appended to the cache before being yielded — a crashed sweep resumes
    where it stopped. Identical requests *within* a run dedupe on every
    backend: a request whose fingerprint is already in flight waits for
    the first submission's result instead of solving again (on serial the
    earlier result is already cached by the time the duplicate is
    submitted, so parallel backends now honour the same contract).
    Requests with ``want_mapping=True`` bypass the cache, because the
    live mapping cannot be rehydrated from disk; timed-out results are
    never cached.
    """
    from repro.api.exec.backends import create_backend, solve_with_policy
    from repro.api.exec.routing import route

    it = iter(requests)
    try:
        first = next(it)
    except StopIteration:
        return
    workers = resolve_parallel(parallel)
    engine = create_backend(route((first.algorithm,), backend=backend,
                                  workers=workers))
    if engine.name == "serial":
        window = 1
    else:
        workers = max(workers, 1)
        window = max(int(window or 4 * workers), workers)
    if cache is not None and hasattr(engine, "set_cache"):
        # backends whose workers live in other processes (the queue
        # engine) can share the batch's cache so workers serve repeats
        # themselves; the parent-side lookup/put below stays authoritative
        engine.set_cache(cache)

    # entries are (index, request, fingerprint, ready result | None,
    # submission | None, deferred); cached hits carry a ready result,
    # submitted requests a backend handle, and a *deferred* entry is a
    # duplicate of an in-flight fingerprint — it waits for the earlier
    # identical submission instead of re-running the solve
    pending: deque = deque()
    inflight = 0
    #: fingerprints with a live submission (within-run dedupe on
    #: parallel backends: later identical requests defer to the first)
    inflight_fps: set = set()

    def drain_head() -> ScheduleResult:
        nonlocal inflight
        index, request, fingerprint, result, submission, deferred = \
            pending.popleft()
        if submission is not None:
            result = submission.result()
            inflight -= 1
            if fingerprint is not None:
                if _cacheable(result):
                    cache.put(fingerprint, result)
                inflight_fps.discard(fingerprint)
        elif deferred:
            # the primary sat ahead of this entry in the in-order queue,
            # so it has drained (and been cached) by now — this is the
            # same lookup-then-hit a serial run performs, counters and
            # retagging included
            result = cache.get(fingerprint, request)
            if result is None:
                # the primary's outcome was uncacheable (a timeout);
                # solve inline, exactly as a serial run would re-run it
                result = solve_with_policy(request)
        if progress is not None:
            progress(index, request, result)
        return result

    engine.open(max(workers, 1))
    try:
        for index, request in enumerate(chain((first,), it)):
            fingerprint = _fingerprint(cache, request)
            hit = None
            deferred = fingerprint is not None and fingerprint in inflight_fps
            if fingerprint is not None and not deferred:
                hit = cache.get(fingerprint, request)
            if hit is not None:
                pending.append((index, request, fingerprint, hit, None,
                                False))
            elif deferred:
                pending.append((index, request, fingerprint, None, None,
                                True))
            else:
                pending.append((index, request, fingerprint, None,
                                engine.submit(request), False))
                inflight += 1
                if fingerprint is not None:
                    inflight_fps.add(fingerprint)
            # drain: ready heads (cache hits, deferred duplicates,
            # completed submissions) stream immediately; an unfinished
            # head is only waited on once the in-flight window (or the
            # pending queue, when cache hits pile up behind a slow miss)
            # is full
            while pending and (pending[0][4] is None or pending[0][4].done()
                               or inflight >= window
                               or len(pending) >= 4 * window):
                yield drain_head()
        while pending:
            yield drain_head()
    finally:
        engine.close()


def solve_batch(requests: Iterable[ScheduleRequest],
                parallel: Optional[int] = None,
                progress: Optional[ProgressHook] = None,
                cache=None,
                backend: Optional[str] = None) -> List[ScheduleResult]:
    """Run every request; results are returned in the input order.

    ``parallel`` > 1 distributes requests over that many workers of the
    routed backend (``None`` consults the ``REPRO_PARALLEL`` environment
    variable, ``-1`` uses every CPU); ``backend`` forces a specific
    execution backend regardless of worker count. On the ``process``
    backend the fork start method shares the already-built requests — and
    any custom algorithms registered before the call — with the workers;
    where fork is unavailable the default start method is used, which
    requires registrations to happen at import time. ``progress`` is
    called in the parent, in request order, once per request. ``cache``
    is forwarded to :func:`iter_solve_batch`.
    """
    from repro.api.exec.routing import route

    requests = list(requests)
    workers = min(resolve_parallel(parallel), len(requests))
    if requests:
        # unlike the lazily-streamed iterator, the whole list is in hand:
        # route on every algorithm (a mixed batch with one io-bound
        # request must not end up GIL-serialized on the thread backend)
        backend = route(sorted({r.algorithm for r in requests}),
                        backend=backend, workers=workers)
    return list(iter_solve_batch(requests, parallel=workers,
                                 progress=progress, cache=cache,
                                 backend=backend))
