"""Smoke tests of the benchmark itself, at a size that runs in seconds.

Every workload runs untraced and traced on shrunken inputs; the
correctness check must reject a corrupted result; the traced and
untraced digests must agree; and a checkout without the program's
sources must fail without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import checks, inputs, offline, run, service  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from repro.api import solve  # noqa: E402
from repro.platform.processor import Processor  # noqa: E402


@pytest.fixture
def smoke(monkeypatch):
    """Shrink every workload to a few seconds."""
    monkeypatch.setattr(inputs, "LARGE_TASKS", 60)
    monkeypatch.setattr(inputs, "MONTAGE_TASKS", (20, 30))
    monkeypatch.setattr(offline, "PREFIX_ROUNDS",
                        {"solve_large": 1, "solve_small": 1})
    monkeypatch.setattr(service, "PREFIX", 12)


def bench(capsys, workload: str, trace: int, seed: int = 3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.5", "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    path = os.path.join(ROOT, run.OUT_DIR,
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return code, json.loads(last), report


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_completes_and_digests_agree(smoke, capsys, workload):
    code, result, report = bench(capsys, workload, trace=0)
    assert code == 0 and result["correct"], report["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.declared(0))
    assert all(m["value"] > 0 for m in result["metrics"].values())

    code, traced, report_t = bench(capsys, workload, trace=1)
    assert code == 0 and traced["correct"], report_t["problems"]
    assert set(traced["metrics"]) == set(run.declared(1))
    baseline = report_t["baseline"]
    assert baseline["untraced_digest"] == baseline["traced_digest"]
    assert report_t["digest"] == report["digest"]
    assert traced["metrics"]["memdag.traversal.calls"]["value"] > 0


def _solved(algorithm: str = "daghetpart"):
    instance = inputs.small_instance(ROOT, 5, 0)
    result = solve(inputs.request(instance, algorithm))
    assert checks.check_result(result) is None
    return result


def test_check_rejects_block_over_memory():
    result = _solved("daghetmem")
    mapping = result.mapping
    block = mapping.assignments[0]
    small = Processor(block.processor.name, block.processor.speed,
                      block.requirement / 2)
    mapping.assignments[0] = dataclasses.replace(block, processor=small)
    assert "exceeds memory" in checks.check_result(result)


def test_check_rejects_tampered_makespans():
    result = _solved()
    tampered = dataclasses.replace(result, makespan=result.makespan * 1.01)
    assert "from-scratch" in checks.check_result(tampered)

    point = checks.winning_point(result)
    sweep = tuple(dataclasses.replace(p, makespan=p.makespan * 1.01)
                  if p == point else p for p in result.sweep)
    assert "sweep point" in checks.check_result(
        dataclasses.replace(result, sweep=sweep))


def test_service_comparison_ignores_only_runtime_and_tags():
    record = _solved().to_dict()
    same = dict(record, runtime=record["runtime"] + 1, tags={"x": 1})
    assert checks.outcome(same) == checks.outcome(record)
    moved = dict(record, n_blocks=record["n_blocks"] + 1)
    assert checks.outcome(moved) != checks.outcome(record)


def test_failed_check_fails_the_run(smoke, capsys, monkeypatch):
    monkeypatch.setattr(checks, "check_result",
                        lambda result: "corrupted on purpose")
    code, result, _ = bench(capsys, "solve_small", trace=0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(100000))
        sum(range(100000))
    outer, inner = tracer.totals["outer"], tracer.totals["inner"]
    assert outer[2] == pytest.approx(outer[1] - inner[1])
    assert tracer.spans[1][3] == 0  # inner's parent is outer


def test_tracer_restores_every_binding():
    import repro.api
    import repro.memdag.requirement as requirement

    before = (repro.api.solve, requirement.memdag_traversal)
    tracer = Tracer().install()
    assert repro.api.solve is not before[0]
    tracer.uninstall()
    assert (repro.api.solve, requirement.memdag_traversal) == before


def test_service_sequence_repeats_only_finished_requests():
    seen = set()
    for position in range(200):
        k = inputs.fresh_request_index(7, position)
        if inputs.is_repeat(position):
            assert k in seen
            assert k < inputs.fresh_before(position - inputs.REPEAT_LAG + 1)
        else:
            assert k == len(seen)
            seen.add(k)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""



def test_speedometer_scales_by_the_samples_around_an_interval():
    from perfbench import measure
    meter = measure.Speedometer()
    meter.samples = [(0.0, 0.1, 1.0), (1.0, 1.1, 2.0), (2.0, 2.1, 4.0),
                     (3.0, 3.1, 8.0)]
    # one sample inside, one on either side
    assert meter.speed(0.5, 1.5) == pytest.approx((1.0 + 2.0 + 4.0) / 3)
    assert meter.sampling_s(0.5, 1.5) == pytest.approx(0.1)
    # none inside: the nearest on either side
    assert meter.speed(2.2, 2.9) == pytest.approx((4.0 + 8.0) / 2)
    assert meter.sampling_s(2.2, 2.9) == 0.0


def test_periodic_sampling_restores_the_signal_handler():
    import signal
    from perfbench import measure
    before = signal.getsignal(signal.SIGALRM)
    meter = measure.Speedometer()
    with meter.periodic(0.01):
        sum(i * i for i in range(300000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    starts = [start for start, _, _ in meter.samples]
    assert len(starts) >= 2 and starts == sorted(starts)
    assert all(speed > 0 for _, _, speed in meter.samples)


def test_tail_percentile_follows_the_guaranteed_sample_count():
    values = [float(i) for i in range(1000)]
    assert checks.tail(values, 200)[0] == "p95"
    assert checks.tail(values, 192)[0] == "p90"
    assert checks.tail(values[:14], 14)[0] == "mean of the slower half"
