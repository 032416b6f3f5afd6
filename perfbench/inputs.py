"""Seeded inputs of the three workloads.

Every input is a pure function of ``(seed, index)``, so a run can generate
them lazily, the same seed always gives the same inputs, and a traced and
an untraced run see identical requests.
"""

from __future__ import annotations

import json
import os
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Tuple

from repro.api import ScheduleRequest
from repro.generators.families import WORKFLOW_FAMILIES, generate_workflow
from repro.ingest import NormalizeOptions, ingest_path
from repro.platform.presets import default_cluster
from repro.workflow.graph import Workflow

#: the paper's memory-aware algorithms; solve_large compares the two
PAPER_ALGORITHMS = ("daghetpart", "daghetmem")
#: service-sized requests add the critical-path packer
SMALL_ALGORITHMS = ("daghetpart", "daghetmem", "cpack")

#: solve_large: the paper's regime (2000 tasks) for six families, plus
#: montage at a few hundred tasks, where Step 3 merging dominates
LARGE_FAMILIES = ("genome", "epigenomics", "blast", "bwa", "seismology",
                  "soykb")
LARGE_TASKS = 2000
MONTAGE_TASKS = (250, 350)

#: service-sized instances: every family cycles through these sizes in a
#: seeded order, one size per round, so that every seed solves the same
#: mix of sizes and a run's cost depends on the seed through structure
#: and weights only
SMALL_TASKS = tuple(range(16, 49, 4))

#: one instance per family plus one trace
PER_ROUND = len(WORKFLOW_FAMILIES) + 1

#: bundled real-workflow samples (path under examples/traces, template data)
TRACES = (("cyclesweep.csv", None),
          ("epigenomics.wfformat.json", None),
          ("montage.dax", None),
          ("rnaseq.dot", None),
          ("variant_calling.tpl", "variant_calling.data.json"))


@dataclass(frozen=True)
class Instance:
    name: str
    workflow: Workflow


def _rng(seed: int, *key) -> random.Random:
    return random.Random(":".join(str(k) for k in (seed,) + key))


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def generate(tracer, family: str, n_tasks: int, seed: int) -> Workflow:
    with _span(tracer, "generators.generate"):
        return generate_workflow(family, n_tasks, seed=seed)


def large_round(seed: int, index: int, tracer=None) -> List[Instance]:
    """Round ``index`` of solve_large: one fresh instance per family."""
    rng = _rng(seed, "large", index)
    out = [Instance(f"{family}-{LARGE_TASKS}",
                    generate(tracer, family, LARGE_TASKS,
                             rng.randrange(2 ** 31)))
           for family in LARGE_FAMILIES]
    montage = rng.randint(*MONTAGE_TASKS)
    out.append(Instance(f"montage-{montage}",
                        generate(tracer, "montage", montage,
                                 rng.randrange(2 ** 31))))
    return out


def small_instance(root: str, seed: int, index: int, tracer=None) -> Instance:
    """Instance ``index`` of the service-sized stream.

    Seven of every eight are family instances of 16-48 tasks (each family
    in turn, its size from a seeded permutation of SMALL_TASKS per cycle
    of rounds); the eighth is a bundled trace ingested through
    ``repro.ingest`` with seeded work/cost scaling.
    """
    rng = _rng(seed, "small", index)
    round_index, slot = divmod(index, PER_ROUND)
    if slot < len(WORKFLOW_FAMILIES):
        family = WORKFLOW_FAMILIES[slot]
        cycle, turn = divmod(round_index, len(SMALL_TASKS))
        sizes = list(SMALL_TASKS)
        _rng(seed, "sizes", family, cycle).shuffle(sizes)
        n_tasks = sizes[turn]
        return Instance(f"{family}-{n_tasks}",
                        generate(tracer, family, n_tasks,
                                 rng.randrange(2 ** 31)))
    path, data_path = TRACES[round_index % len(TRACES)]
    options = NormalizeOptions(work_scale=rng.uniform(0.5, 2.0),
                               cost_scale=rng.uniform(0.5, 2.0))
    traces = os.path.join(root, "examples", "traces")
    with _span(tracer, "ingest.load"):
        data = None
        if data_path is not None:
            with open(os.path.join(traces, data_path), encoding="utf-8") as fh:
                data = json.load(fh)
        wf = ingest_path(os.path.join(traces, path), data=data,
                         options=options)
    return Instance(f"trace:{path}", wf)


def small_round(root: str, seed: int, index: int,
                tracer=None) -> List[Instance]:
    """Round ``index`` of solve_small: instances 8*index .. 8*index+7."""
    return [small_instance(root, seed, index * PER_ROUND + k, tracer)
            for k in range(PER_ROUND)]


#: the paper's 36-processor default cluster (Table 2)
CLUSTER = default_cluster()


def request(instance: Instance, algorithm: str,
            want_mapping: bool = True) -> ScheduleRequest:
    """A request on CLUSTER with the paper's memory scaling."""
    return ScheduleRequest(workflow=instance.workflow,
                           cluster=CLUSTER, algorithm=algorithm,
                           scale_memory=True, want_mapping=want_mapping,
                           tags={"instance": instance.name})


# ----------------------------------------------------------------------
# the service_mixed submission sequence
# ----------------------------------------------------------------------
#: the first positions are always fresh, so a repeat has earlier
#: completed requests to choose from
FIRST_REPEAT = 5
#: a repeat targets a fresh request at least this many positions back;
#: with two closed-loop callers and one FIFO worker it has finished
REPEAT_LAG = 4


def is_repeat(position: int) -> bool:
    """Odd positions from FIRST_REPEAT on repeat an earlier request."""
    return position >= FIRST_REPEAT and position % 2 == 1


def fresh_before(position: int) -> int:
    """How many fresh positions precede ``position``."""
    if position <= FIRST_REPEAT:
        return position
    return FIRST_REPEAT + (position - FIRST_REPEAT) // 2


def fresh_request_index(seed: int, position: int) -> int:
    """The fresh request a position submits (a repeat's original)."""
    if not is_repeat(position):
        return fresh_before(position)
    rng = _rng(seed, "repeat", position)
    return rng.randrange(fresh_before(position - REPEAT_LAG + 1))


def fresh_request(root: str, seed: int, k: int,
                  tracer=None) -> Tuple[Instance, str]:
    """Fresh request ``k``: instance k // 3 under algorithm k % 3."""
    instance = small_instance(root, seed, k // len(SMALL_ALGORITHMS), tracer)
    return instance, SMALL_ALGORITHMS[k % len(SMALL_ALGORITHMS)]
