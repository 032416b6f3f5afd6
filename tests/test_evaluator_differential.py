"""Differential replay: the incremental evaluator vs from-scratch passes.

The simulated-annealing refiner trusts ``MakespanEvaluator`` for every
single price it pays, so this suite replays long seeded random
``apply_move`` / ``apply_swap`` sequences and, after *every* committed
step, checks the evaluator's makespan, full bottom-weight table, and
critical path against a from-scratch recompute of the live quotient —
bit-for-bit, as the evaluator's contract promises. A second replay mixes
in tentative ``eval_move`` / ``eval_swap`` probes to verify they leave no
residue behind.
"""

from __future__ import annotations

import pytest

from repro.core.evaluator import MakespanEvaluator
from repro.core.makespan import bottom_weights, critical_path
from repro.core.quotient import QuotientGraph
from repro.generators.families import generate_workflow
from repro.partition.api import acyclic_partition
from repro.platform.bandwidth import GroupedBandwidth
from repro.platform.presets import default_cluster
from repro.utils.rng import make_rng


def _assigned_quotient(family: str, n: int, k: int, cluster, seed: int):
    """A quotient with every block deterministically assigned a processor."""
    wf = generate_workflow(family, n, seed=seed)
    partition = acyclic_partition(wf, k)
    procs = cluster.processors
    q = QuotientGraph.from_partition(
        wf, partition, [procs[i % len(procs)] for i in range(len(partition))])
    assert q.is_acyclic()
    return q


def _check_against_full(q, cluster, ev, step):
    """The evaluator's whole view must equal a from-scratch recompute."""
    fresh = bottom_weights(q, cluster)
    mu = max(fresh.values()) if fresh else 0.0
    assert ev.makespan() == mu, f"makespan diverged at step {step}"
    assert ev.bottom_weights() == fresh, f"weights diverged at step {step}"
    assert ev.critical_path() == critical_path(q, cluster), \
        f"critical path diverged at step {step}"


@pytest.mark.parametrize("family,n,k,seed", [
    ("blast", 60, 8, 0),
    ("genome", 80, 12, 1),
    ("soykb", 70, 10, 2),
])
def test_apply_sequences_match_full_recompute(family, n, k, seed):
    """Seeded apply_move/apply_swap replay: exact agreement at every step."""
    cluster = default_cluster()
    q = _assigned_quotient(family, n, k, cluster, seed)
    ev = MakespanEvaluator(q, cluster)
    rng = make_rng(seed)
    ids = sorted(q.blocks)
    procs = cluster.processors

    for step in range(120):
        if rng.random() < 0.5:
            bid = ids[int(rng.integers(len(ids)))]
            target = procs[int(rng.integers(len(procs)))]
            ev.apply_move(bid, target)
        else:
            a = ids[int(rng.integers(len(ids)))]
            b = ids[int(rng.integers(len(ids)))]
            if a == b:
                continue
            ev.apply_swap(a, b)
        _check_against_full(q, cluster, ev, step)

    # the whole replay must have been priced incrementally
    assert ev.full_recomputes == 1  # the constructor's initial pass
    assert ev.delta_syncs > 0


def test_unassigning_and_heterogeneous_links_replay():
    """Moves to None (unassigned) and a grouped interconnect, same contract.

    ``proc=None`` exercises the default-speed/default-bandwidth fallbacks
    of Eq. (1); the grouped bandwidth model exercises the in-edge
    repricing a reassignment triggers under a heterogeneous interconnect.
    """
    base = default_cluster()
    groups = {p.name: ("east" if i % 2 else "west")
              for i, p in enumerate(base.processors)}
    cluster = base.with_bandwidth_model(GroupedBandwidth(groups, 4.0, 0.5))
    q = _assigned_quotient("bwa", 60, 9, cluster, seed=3)
    ev = MakespanEvaluator(q, cluster)
    rng = make_rng(7)
    ids = sorted(q.blocks)
    procs = cluster.processors

    for step in range(100):
        bid = ids[int(rng.integers(len(ids)))]
        if rng.random() < 0.25:
            ev.apply_move(bid, None)
        else:
            ev.apply_move(bid, procs[int(rng.integers(len(procs)))])
        _check_against_full(q, cluster, ev, step)
    assert ev.full_recomputes == 1


def test_tentative_probes_leave_no_residue():
    """eval_move/eval_swap between commits never perturb the caches."""
    cluster = default_cluster()
    q = _assigned_quotient("genome", 70, 10, cluster, seed=5)
    ev = MakespanEvaluator(q, cluster)
    rng = make_rng(11)
    ids = sorted(q.blocks)
    procs = cluster.processors

    for step in range(60):
        # a burst of tentative probes...
        for _ in range(int(rng.integers(1, 4))):
            a = ids[int(rng.integers(len(ids)))]
            b = ids[int(rng.integers(len(ids)))]
            if rng.random() < 0.5:
                ev.eval_move(a, procs[int(rng.integers(len(procs)))])
            elif a != b:
                ev.eval_swap(a, b)
        # ...then one committed mutation, checked from scratch
        bid = ids[int(rng.integers(len(ids)))]
        ev.apply_move(bid, procs[int(rng.integers(len(procs)))])
        _check_against_full(q, cluster, ev, step)
    assert ev.full_recomputes == 1


@pytest.mark.parametrize("family,n,k,seed", [
    ("blast", 60, 8, 0),
    ("genome", 80, 12, 4),
])
def test_processor_failure_replay_matches_full_recompute(family, n, k, seed):
    """Evacuating a dead processor via ``set_proc`` keeps deltas consistent.

    The dynamic simulator reacts to a processor failure by reassigning
    every block off the victim; this replays exactly that — each victim in
    turn, all of its blocks moved to survivors (round-robin), with a
    from-scratch recompute checked after every single reassignment and
    after each complete evacuation.
    """
    cluster = default_cluster()
    q = _assigned_quotient(family, n, k, cluster, seed)
    ev = MakespanEvaluator(q, cluster)
    step = 0
    for victim in cluster.processors[:4]:
        survivors = [p for p in cluster.processors if p.name != victim.name]
        doomed = sorted(bid for bid, blk in q.blocks.items()
                        if blk.proc is not None and blk.proc.name == victim.name)
        for i, bid in enumerate(doomed):
            # the failure first orphans the block (proc=None: the paper's
            # default-speed estimate), then the repair re-places it
            ev.apply_move(bid, None)
            _check_against_full(q, cluster, ev, step)
            ev.apply_move(bid, survivors[i % len(survivors)])
            step += 1
            _check_against_full(q, cluster, ev, step)
        assert victim.name not in q.used_processors()
    # every failure was priced incrementally — zero extra full passes
    assert ev.full_recomputes == 1
    assert ev.delta_syncs > 0


def test_incremental_growth_ops_match_full_recompute():
    """add_block / add_quotient_edge / set_work fold in without full passes.

    This is the arrival/inflation path of the dynamic simulator: new jobs
    join the live quotient as fresh blocks, get wired to existing blocks,
    and running blocks see their work revised — all priced by delta sync.
    """
    cluster = default_cluster()
    q = _assigned_quotient("soykb", 60, 8, cluster, seed=6)
    ev = MakespanEvaluator(q, cluster)
    assert ev.full_recomputes == 1
    rng = make_rng(13)
    procs = cluster.processors
    next_task = 10_000  # far above any generated task id
    for step in range(40):
        roll = rng.random()
        ids = sorted(q.blocks)
        if roll < 0.4:
            # a small arriving job: fresh tasks, one new block
            size = int(rng.integers(1, 4))
            tasks = []
            for _ in range(size):
                q.wf.add_task(next_task, work=float(rng.uniform(0.5, 3.0)),
                              memory=float(rng.uniform(0.1, 1.0)))
                tasks.append(next_task)
                next_task += 1
            bid = q.add_block(tasks, procs[int(rng.integers(len(procs)))])
            assert q.blocks[bid].work > 0
        elif roll < 0.7:
            # wire an existing block to another (low id -> high id keeps
            # the quotient acyclic, mirroring the test DAG convention)
            a = ids[int(rng.integers(len(ids)))]
            b = ids[int(rng.integers(len(ids)))]
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            q.add_quotient_edge(a, b, float(rng.uniform(0.1, 2.0)))
        else:
            # runtime inflation: a block's work estimate is revised up
            bid = ids[int(rng.integers(len(ids)))]
            q.set_work(bid, q.blocks[bid].work * float(rng.uniform(1.0, 1.5)))
        ev.makespan()
        _check_against_full(q, cluster, ev, step)
    assert ev.full_recomputes == 1
    assert ev.delta_syncs > 0
