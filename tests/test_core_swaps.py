"""Tests of Step 4 (swaps and idle-processor moves)."""

import pytest

from repro.core.makespan import makespan
from repro.core.quotient import QBlock, QuotientGraph
from repro.core.swaps import (
    feasible_swap_pairs,
    improve_by_swaps,
    move_critical_to_idle,
)
from repro.memdag.requirement import RequirementCache
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.workflow.graph import Workflow


def _two_block_wf():
    """heavy -> light chain; swapping fast/slow processors matters."""
    wf = Workflow()
    wf.add_task("h1", work=50.0, memory=1.0)
    wf.add_task("h2", work=50.0, memory=1.0)
    wf.add_task("l1", work=1.0, memory=1.0)
    wf.add_edge("h1", "h2", 1.0)
    wf.add_edge("h2", "l1", 1.0)
    return wf


class TestSwaps:
    def test_swap_fixes_inverted_speeds(self):
        wf = _two_block_wf()
        slow = Processor("slow", 1.0, 100.0)
        fast = Processor("fast", 10.0, 100.0)
        cluster = Cluster([slow, fast])
        q = QuotientGraph.from_partition(
            wf, [{"h1", "h2"}, {"l1"}], [slow, fast])  # heavy on slow: bad
        cache = RequirementCache(wf)
        before = makespan(q, cluster)
        n = improve_by_swaps(q, cluster, cache)
        after = makespan(q, cluster)
        assert n == 1
        assert after < before
        assert q.blocks[q.block_of("h1")].proc.name == "fast"

    def test_swap_respects_memory(self):
        wf = _two_block_wf()
        slow = Processor("slow", 1.0, 100.0)
        fast = Processor("fast", 10.0, 1.5)  # too small for the heavy block
        cluster = Cluster([slow, fast])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [slow, fast])
        cache = RequirementCache(wf)
        assert improve_by_swaps(q, cluster, cache) == 0

    def test_no_improving_swap_is_noop(self):
        wf = _two_block_wf()
        fast = Processor("fast", 10.0, 100.0)
        slow = Processor("slow", 1.0, 100.0)
        cluster = Cluster([fast, slow])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [fast, slow])
        cache = RequirementCache(wf)
        before = makespan(q, cluster)
        assert improve_by_swaps(q, cluster, cache) == 0
        assert makespan(q, cluster) == before

    def test_swaps_monotonically_improve(self):
        from repro.generators.families import generate_workflow
        from repro.experiments.instances import scaled_cluster_for
        from repro.partition.api import acyclic_partition
        from repro.platform.presets import default_cluster
        from repro.core.assignment import biggest_assign
        wf = generate_workflow("bwa", 80, seed=1)
        cluster = scaled_cluster_for(wf, default_cluster())
        cache = RequirementCache(wf)
        partition = acyclic_partition(wf, 8)
        state = biggest_assign(wf, cluster, partition, cache=cache)
        q = QuotientGraph.from_partition(
            wf, [state.blocks[b] for b in state.blocks],
            [state.assigned.get(b) for b in state.blocks])
        from repro.core.merging import merge_unassigned_to_assigned
        assert merge_unassigned_to_assigned(q, cluster, cache)
        before = makespan(q, cluster)
        improve_by_swaps(q, cluster, cache)
        assert makespan(q, cluster) <= before + 1e-9


class TestIdleMoves:
    def test_moves_critical_block_to_faster_idle(self):
        wf = _two_block_wf()
        slow = Processor("slow", 1.0, 100.0)
        slower = Processor("slower", 0.5, 100.0)
        fast_idle = Processor("fast", 10.0, 100.0)
        cluster = Cluster([slow, slower, fast_idle])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [slow, slower])
        cache = RequirementCache(wf)
        before = makespan(q, cluster)
        n = move_critical_to_idle(q, cluster, cache)
        assert n >= 1
        assert makespan(q, cluster) < before
        assert "fast" in q.used_processors()

    def test_no_idle_processors_is_noop(self):
        wf = _two_block_wf()
        p0 = Processor("p0", 1.0, 100.0)
        p1 = Processor("p1", 2.0, 100.0)
        cluster = Cluster([p0, p1])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [p0, p1])
        cache = RequirementCache(wf)
        assert move_critical_to_idle(q, cluster, cache) == 0

    def test_memory_blocks_idle_move(self):
        wf = _two_block_wf()
        slow = Processor("slow", 1.0, 100.0)
        other = Processor("o", 1.0, 100.0)
        fast_small = Processor("fast", 10.0, 1.0)  # cannot hold anything
        cluster = Cluster([slow, other, fast_small])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [slow, other])
        cache = RequirementCache(wf)
        assert move_critical_to_idle(q, cluster, cache) == 0

    def test_each_block_moved_at_most_once(self):
        """The paper moves each critical-path task once."""
        wf = _two_block_wf()
        s1 = Processor("s1", 1.0, 100.0)
        s2 = Processor("s2", 1.1, 100.0)
        f1 = Processor("f1", 5.0, 100.0)
        f2 = Processor("f2", 10.0, 100.0)
        cluster = Cluster([s1, s2, f1, f2])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [s1, s2])
        cache = RequirementCache(wf)
        moves = move_critical_to_idle(q, cluster, cache)
        # both blocks can move once each, at most
        assert moves <= 2

    def test_freed_processor_is_reused(self):
        """A processor vacated by a move must rejoin the idle pool.

        Chain h->m->l: h starts on a mid-speed processor and jumps to the
        fast idle one; the vacated mid processor must then be available
        for the slower critical block.
        """
        wf = Workflow()
        wf.add_task("h", work=100.0, memory=1.0)
        wf.add_task("m", work=100.0, memory=1.0)
        wf.add_task("l", work=1.0, memory=1.0)
        wf.add_edge("h", "m", 0.01)
        wf.add_edge("m", "l", 0.01)
        slow = Processor("slow", 1.0, 100.0)
        mid = Processor("mid", 2.0, 100.0)
        tiny = Processor("tiny", 1.5, 100.0)
        fast = Processor("fast", 10.0, 100.0)
        cluster = Cluster([slow, mid, tiny, fast])
        q = QuotientGraph.from_partition(
            wf, [{"h"}, {"m"}, {"l"}], [mid, slow, tiny])
        cache = RequirementCache(wf)
        moves = move_critical_to_idle(q, cluster, cache)
        used = q.used_processors()
        assert moves >= 2
        assert "fast" in used
        # "m" (was on slow, speed 1) picked up the vacated mid (speed 2)
        assert q.blocks[q.block_of("m")].proc.name == "mid"

    def test_idle_moves_with_evaluator_match_full_recompute(self):
        from repro.core.evaluator import MakespanEvaluator
        wf = _two_block_wf()
        slow = Processor("slow", 1.0, 100.0)
        slower = Processor("slower", 0.5, 100.0)
        fast_idle = Processor("fast", 10.0, 100.0)
        cluster = Cluster([slow, slower, fast_idle])

        def build():
            return QuotientGraph.from_partition(
                wf, [{"h1", "h2"}, {"l1"}], [slow, slower])

        cache = RequirementCache(wf)
        q1, q2 = build(), build()
        n1 = move_critical_to_idle(q1, cluster, cache)
        n2 = move_critical_to_idle(q2, cluster, cache,
                                   evaluator=MakespanEvaluator(q2, cluster))
        assert n1 == n2
        assert makespan(q1, cluster) == makespan(q2, cluster)
        assert {b.proc.name for b in q1.blocks.values()} == \
               {b.proc.name for b in q2.blocks.values()}


class TestSwapIdentity:
    def test_same_processor_object_is_skipped(self):
        """Two blocks on the *same* processor are never swap partners."""
        wf = _two_block_wf()
        p = Processor("p", 1.0, 100.0)
        cluster = Cluster([p])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [p, p])
        cache = RequirementCache(wf)
        assert improve_by_swaps(q, cluster, cache) == 0

    def test_distinct_objects_with_equal_names_still_swap(self):
        """Identity, not name equality, decides whether a swap is a no-op.

        Blocks can carry processor objects from different cluster
        generations (e.g. before/after memory rescaling) whose names
        collide; an improving swap between them must not be skipped.
        """
        wf = _two_block_wf()
        slow = Processor("p", 1.0, 100.0)
        fast = Processor("p", 10.0, 100.0)  # same name, different machine
        cluster = Cluster([Processor("q0", 1.0, 100.0)])  # only for beta
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [slow, fast])
        cache = RequirementCache(wf)
        before = makespan(q, cluster)
        assert improve_by_swaps(q, cluster, cache) == 1
        assert makespan(q, cluster) < before
        assert q.blocks[q.block_of("h1")].proc is fast

    def test_requirement_cache_tolerates_new_block_ids(self):
        """Requirements are (re)computed lazily per round, so ids created
        after the first call (merges between searches) are priced too."""
        wf = Workflow()
        for name in "abcd":
            wf.add_task(name, work=10.0 if name in "ab" else 1.0, memory=1.0)
        wf.add_edge("a", "b", 1.0)
        wf.add_edge("b", "c", 1.0)
        wf.add_edge("c", "d", 1.0)
        slow = Processor("slow", 1.0, 100.0)
        fast = Processor("fast", 10.0, 100.0)
        p3 = Processor("p3", 1.0, 100.0)
        cluster = Cluster([slow, fast, p3])
        q = QuotientGraph.from_partition(
            wf, [{"a"}, {"b"}, {"c"}, {"d"}], [slow, None, fast, p3])
        cache = RequirementCache(wf)
        merged, _ = q.merge(q.block_of("a"), q.block_of("b"))
        q.set_proc(merged, slow)  # heavy merged block on the slow proc
        assert improve_by_swaps(q, cluster, cache) >= 1
        assert q.blocks[q.block_of("a")].proc.name == "fast"


class TestFeasibleSwapPairs:
    """Step 4's candidate order: ties in makespan go to the first pair."""

    @staticmethod
    def _blocks(procs):
        return {bid: QBlock(tasks=set(), work=1.0, proc=p)
                for bid, p in procs.items()}

    def test_nested_order_follows_ids(self):
        p = [Processor(f"p{i}", 1.0, 10.0) for i in range(3)]
        blocks = self._blocks({7: p[0], 5: p[1], 2: p[2]})
        requirement = {7: 1.0, 5: 1.0, 2: 1.0}
        assert feasible_swap_pairs([7, 5, 2], requirement, blocks) == \
            [(7, 5), (7, 2), (5, 2)]

    def test_same_processor_pairs_skipped(self):
        shared = Processor("p", 1.0, 10.0)
        other = Processor("q", 1.0, 10.0)
        blocks = self._blocks({0: shared, 1: shared, 2: other})
        requirement = {0: 1.0, 1: 1.0, 2: 1.0}
        assert feasible_swap_pairs([0, 1, 2], requirement, blocks) == \
            [(0, 2), (1, 2)]

    def test_both_memory_directions_checked(self):
        small = Processor("small", 1.0, 5.0)
        big = Processor("big", 1.0, 50.0)
        big2 = Processor("big2", 1.0, 50.0)
        blocks = self._blocks({0: small, 1: big, 2: big2})
        # block 1 does not fit small's memory; block 0 fits anywhere
        requirement = {0: 4.0, 1: 20.0, 2: 5.0}
        assert feasible_swap_pairs([0, 1, 2], requirement, blocks) == \
            [(0, 2), (1, 2)]
        # and the mirrored order: the oversized block comes second
        assert feasible_swap_pairs([1, 0], requirement, blocks) == []
        assert feasible_swap_pairs([0, 1], requirement, blocks) == []
