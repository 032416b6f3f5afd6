"""End-to-end benchmark of the mapping pipeline: solve() and the service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve_large --seed 1 --seconds 20 \\
        --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``solve_large`` — DagHetPart and DagHetMem on 2000-task instances of six
  families plus a few-hundred-task montage, on the paper's 36-processor
  default cluster with its memory scaling;
* ``solve_small`` — a serial stream of 16-48-task instances of all seven
  families and the bundled ``examples/traces`` samples, each solved by
  ``daghetpart``, ``daghetmem`` and ``cpack``;
* ``service_mixed`` — a ``repro serve`` subprocess with a sqlite result
  cache and one worker, driven closed-loop by two keep-alive callers;
  half the submissions repeat an earlier request.

``--trace 0`` reports the end-to-end metrics, their times at a reference
speed of the host (``measure.Speedometer``), ``--trace 1`` the per-layer
metrics of a separately traced run (spans around each layer's public
functions) together with the tracing overhead. Human-readable report
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Every result
is checked; a failed check makes ``correct`` false and the exit code 1.
The full report (quality table, digests, spans of a traced run) is
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("solve_large", "solve_small", "service_mixed")
OUT_DIR = ".perfbench_out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    """Run one workload; returns its report (``metrics`` included)."""
    if args.workload == "service_mixed":
        from perfbench import service
        return service.run(ROOT, args.seed, args.seconds, bool(args.trace))
    from perfbench import offline
    return offline.run(args.workload, ROOT, args.seed, args.seconds,
                       bool(args.trace))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    units = declared(args.trace)
    report = run(args)
    metrics = report["metrics"]
    missing = sorted(set(units) - set(metrics))
    if args.trace:
        # a layer this workload never enters did no work: it reads 0
        report["not_exercised"] = missing
        metrics.update({name: 0 for name in missing})
    elif missing:
        report["problems"].append(f"metrics not measured: {missing}")
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        report["problems"].append(f"undeclared metrics: {undeclared}")
    out_dir = os.path.join(ROOT, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = report.pop("spans", None)
    if tracer is not None:
        path = os.path.join(out_dir, f"{stem}.spans.jsonl.gz")
        report["spans_written"] = tracer.dump(path)
        report["spans_file"] = os.path.relpath(path, ROOT)
    with open(os.path.join(out_dir, f"{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)

    correct = not report["problems"]
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: digest {report['digest']}")
    print(f"samples {report['samples']} (tail: {report['tail']}), "
          f"failed_frac {report['failed_frac']:.6f}, "
          f"infeasible_frac {report['infeasible_frac']:.6f}, "
          f"makespan_rel {report['makespan_rel']:.6f}")
    for row in report["losses"]:
        print(f"DagHetPart loses on {row['instance']}: "
              f"{row['ratio']:.3f}x DagHetMem's makespan, solve "
              f"{row['daghetpart_s']:.3f}s vs {row['daghetmem_s']:.3f}s")
    if "host_speed" in report:
        speed = report["host_speed"]
        print(f"host speed (reference kernel) median "
              f"{speed['median_speed']:.3f}, range {speed['min_speed']:.3f}"
              f"..{speed['max_speed']:.3f} over {speed['samples']} samples; "
              "unscaled: " + ", ".join(
                  f"{name} {value:.6g}"
                  for name, value in report["unscaled"].items()))
    for problem in report["problems"][:20]:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


def declared(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for a mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def pin_hash_seed() -> None:
    """Re-run this process under a PYTHONHASHSEED derived from --seed.

    Set iteration order of string task ids follows the hash seed, and at
    this commit some results depend on it: two traversal engines can reach
    the same peak summed in different orders, and which one wins changes
    DagHetMem's mapping. Every process of a run (this one, the import
    probes, the server) inherits the pinned value, so the service and its
    offline reference agree, and a seed always reproduces its digest.
    """
    want = str(parse_args().seed % 2 ** 32)
    if os.environ.get("PYTHONHASHSEED") != want:
        os.environ["PYTHONHASHSEED"] = want
        os.execv(sys.executable, [sys.executable] + sys.argv)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The CPUs of a shared host change speed independently of each other,
    so the reference kernel that measures the host's speed (see
    ``measure.Speedometer``) must run where the work runs.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


if __name__ == "__main__":
    pin_hash_seed()
    pin_to_one_cpu()
    raise SystemExit(main())
