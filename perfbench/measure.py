"""Process-level measurements shared by the workloads."""

from __future__ import annotations

import bisect
import contextlib
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5

#: what a fresh interpreter imports before it can generate and solve
IMPORTS = ("import repro.api, repro.generators.families, repro.ingest, "
           "repro.platform.presets")


def env(root: str) -> Dict[str, str]:
    """The environment every child process of the benchmark runs with."""
    out = dict(os.environ)
    src = os.path.join(root, "src")
    out["PYTHONPATH"] = src + (os.pathsep + out["PYTHONPATH"]
                               if out.get("PYTHONPATH") else "")
    return out


def import_seconds(root: str) -> float:
    """Wall time of a fresh interpreter importing the solve stack.

    The wait blocks in waitpid: a wait with a timeout polls, in steps of
    up to 50 ms, which would round the time up to the next poll. A timer
    kills a probe that hangs.
    """
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", IMPORTS], env=env(root),
                            cwd=root)
    watchdog = threading.Timer(120.0, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"importing the solve stack exited with {code}")
    return elapsed


def median_setup(setup: Callable[[], float],
                 meter: Optional["Speedometer"] = None) -> float:
    """Median over SETUP_REPEATS calls of a set-up returning its seconds,
    each at the reference speed when a ``meter`` is given."""
    if meter is None:
        return statistics.median(setup() for _ in range(SETUP_REPEATS))
    times: List[float] = []
    meter.sample()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        seconds = setup()
        ended = time.perf_counter()
        meter.sample()
        times.append(seconds * meter.speed(started, ended))
    return statistics.median(times)


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: the reference kernel: longest path through a fixed 400-vertex DAG in
#: flat lists (no container allocations, so it never triggers a garbage
#: collection of the program's heap)
_rng = random.Random(20240101)
_PRED = [sorted(_rng.sample(range(v), min(v, 3))) for v in range(400)]
_OFF = [0]
for _p in _PRED:
    _OFF.append(_OFF[-1] + len(_p))
_SRC = [u for p in _PRED for u in p]
_COST = [_rng.uniform(0.5, 5.0) for _ in _SRC]
_WORK = [_rng.uniform(1.0, 10.0) for _ in _PRED]
_FINISH = [0.0] * len(_PRED)
del _rng, _p, _PRED

#: kernel calls per sample (about 5 ms)
KERNEL_CALLS = 25
#: seconds one sample takes at the reference speed
REFERENCE_S = 0.005


def _kernel() -> float:
    finish, work, cost, src, off = _FINISH, _WORK, _COST, _SRC, _OFF
    for v in range(len(work)):
        start = 0.0
        for k in range(off[v], off[v + 1]):
            t = finish[src[k]] + cost[k]
            if t > start:
                start = t
        finish[v] = start + work[v]
    return finish[-1]


class Speedometer:
    """The host's speed, sampled while the work runs.

    The CPUs of a shared host run the same code up to twice as slow or
    fast for seconds to minutes at a time. A sample times a fixed
    pure-Python kernel that does not touch the program, so a change to the
    program does not move it; its speed is REFERENCE_S / the sample's
    seconds. A time measured over an interval is reported at the
    reference speed: its seconds, less any sampling inside it, times the
    mean speed of the samples inside it and of the nearest one on either
    side.
    """

    def __init__(self) -> None:
        #: (start, end, speed) of each sample, in time order
        self.samples: List[Tuple[float, float, float]] = []
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:  # a timer signal during a sample
            return
        self._sampling = True
        started = time.perf_counter()
        for _ in range(KERNEL_CALLS):
            _kernel()
        ended = time.perf_counter()
        self.samples.append((started, ended,
                             REFERENCE_S / (ended - started)))
        self._sampling = False

    @contextlib.contextmanager
    def periodic(self, every_s: float) -> Iterator[None]:
        """Also sample every ``every_s`` seconds of wall time, from a
        SIGALRM handler, so in the middle of a long solve too."""
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def _inside(self, start: float, end: float) -> Tuple[int, int]:
        """Index range of the samples that start inside the interval."""
        starts = [s for s, _, _ in self.samples]
        return (bisect.bisect_left(starts, start),
                bisect.bisect_left(starts, end))

    def speed(self, start: float, end: float) -> float:
        """Mean speed over the interval; a sample must follow it."""
        first, stop = self._inside(start, end)
        window = self.samples[max(first - 1, 0):stop + 1]
        return statistics.fmean(speed for _, _, speed in window)

    def sampling_s(self, start: float, end: float) -> float:
        """Seconds spent sampling inside the interval."""
        first, stop = self._inside(start, end)
        return sum(e - s for s, e, _ in self.samples[first:stop])

    def summary(self) -> Dict[str, float]:
        speeds = [speed for _, _, speed in self.samples]
        return {"samples": len(speeds),
                "median_speed": statistics.median(speeds),
                "min_speed": min(speeds),
                "max_speed": max(speeds),
                "sampling_s": sum(e - s for s, e, _ in self.samples)}
