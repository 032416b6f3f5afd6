"""Run ``repro serve`` with the benchmark's tracer installed.

Usage: ``python3 perfbench/serve_traced.py SNAPSHOT.json serve-args...``

The service runs in this process exactly as ``python -m repro serve``
would run it; when it has drained and stopped, the per-layer aggregates
are written to ``SNAPSHOT.json`` and every span next to it.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.tracing import Tracer
    from repro.cli import main as repro_main

    snapshot, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        code = repro_main(args)
    finally:
        tracer.uninstall()
        tracer.dump(snapshot + ".spans.jsonl.gz")
        with open(snapshot, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
