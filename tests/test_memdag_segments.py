"""Tests of hill-valley segment decomposition and merging."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.memdag.segments import (
    Segment,
    decompose_profile,
    merge_independent_tasks,
    merge_segment_sequences,
    normalize_segments,
    peak_of_segments,
    profile_of_traversal,
)


class TestProfiles:
    def test_profile_computation(self):
        a = {"u": 5.0, "v": 2.0}
        delta = {"u": -3.0, "v": 1.0}
        tops, residuals = profile_of_traversal(["u", "v"], a, delta)
        assert tops == [5.0, -1.0]
        assert residuals == [-3.0, -2.0]

    def test_decompose_cuts_at_minima(self):
        # u releases memory (new minimum), v producing
        a = {"u": 5.0, "v": 2.0, "w": 1.0}
        delta = {"u": -3.0, "v": 2.0, "w": 1.0}
        segs = decompose_profile(["u", "v", "w"], a, delta)
        assert len(segs) == 2
        assert segs[0].tasks == ("u",)
        assert segs[0].v == pytest.approx(-3.0)
        assert segs[1].tasks == ("v", "w")
        assert segs[1].v == pytest.approx(3.0)

    def test_single_producing_segment(self):
        a = {"x": 4.0}
        delta = {"x": 4.0}
        segs = decompose_profile(["x"], a, delta)
        assert len(segs) == 1
        assert segs[0].h == 4.0 and segs[0].v == 4.0


class TestSegmentAlgebra:
    def test_fuse(self):
        s1 = Segment(("a",), h=5.0, v=-2.0)
        s2 = Segment(("b",), h=4.0, v=1.0)
        fused = s1.fuse(s2)
        assert fused.tasks == ("a", "b")
        assert fused.h == pytest.approx(max(5.0, -2.0 + 4.0))
        assert fused.v == pytest.approx(-1.0)

    def test_key_orders_releasers_first(self):
        releaser = Segment(("r",), h=10.0, v=-1.0)
        producer = Segment(("p",), h=1.0, v=1.0)
        assert releaser.key() < producer.key()

    def test_normalize_fuses_out_of_order(self):
        # producer followed by releaser within one sequence must fuse
        segs = [Segment(("p",), h=2.0, v=2.0), Segment(("r",), h=1.0, v=-3.0)]
        normalized = normalize_segments(segs)
        assert len(normalized) == 1
        assert normalized[0].tasks == ("p", "r")

    def test_normalize_keeps_sorted(self):
        segs = [Segment(("a",), 1.0, -1.0), Segment(("b",), 2.0, -1.0),
                Segment(("c",), 3.0, 3.0)]
        assert normalize_segments(segs) == segs


class TestMerging:
    def _brute_force_peak(self, sequences):
        """Minimum peak over all interleavings preserving sequence order."""
        best = float("inf")
        flat = [(si, i) for si, seq in enumerate(sequences) for i in range(len(seq))]

        def rec(positions, live, peak):
            nonlocal best
            if peak >= best:
                return
            if all(positions[si] == len(sequences[si]) for si in range(len(sequences))):
                best = peak
                return
            for si in range(len(sequences)):
                if positions[si] < len(sequences[si]):
                    seg = sequences[si][positions[si]]
                    positions[si] += 1
                    rec(positions, live + seg.v, max(peak, live + seg.h))
                    positions[si] -= 1

        rec([0] * len(sequences), 0.0, 0.0)
        return best

    def test_merge_is_optimal_on_random_instances(self):
        import numpy as np
        rng = np.random.default_rng(3)
        for trial in range(60):
            sequences = []
            label = itertools.count()
            for _ in range(int(rng.integers(2, 4))):
                raw = []
                for _ in range(int(rng.integers(1, 4))):
                    v = float(rng.integers(-5, 6))
                    h = v + float(rng.integers(0, 6))
                    raw.append(Segment((next(label),), h=max(h, 0.0), v=v))
                sequences.append(raw)
            order, peak = merge_segment_sequences([list(s) for s in sequences])
            brute = self._brute_force_peak(sequences)
            assert peak == pytest.approx(brute), f"trial {trial}"

    def test_merge_preserves_sequence_order(self):
        seq_a = [Segment(("a1",), 3, -1), Segment(("a2",), 5, 2)]
        seq_b = [Segment(("b1",), 1, 1)]
        order, _ = merge_segment_sequences([seq_a, seq_b])
        assert order.index("a1") < order.index("a2")
        assert set(order) == {"a1", "a2", "b1"}

    def test_merge_empty(self):
        order, peak = merge_segment_sequences([])
        assert order == [] and peak == 0.0

    def test_peak_of_segments(self):
        segs = [Segment(("a",), 5, -2), Segment(("b",), 4, 1)]
        assert peak_of_segments(segs) == pytest.approx(max(5.0, -2 + 4))


class TestMergeIndependentTasks:
    # a few repeated values so that equal merge keys occur
    @given(terms=st.lists(
        st.tuples(st.sampled_from((1.0, 3.0)) | st.floats(0.0, 50.0),
                  st.sampled_from((-1.0, 0.0, 1.0)) | st.floats(-30.0, 30.0)),
        min_size=1, max_size=12))
    @settings(deadline=None, max_examples=200)
    def test_equals_merge_of_one_task_sequences(self, terms):
        """Sorting by merge key is the head merge of one-task sequences,
        ties (equal keys) included."""
        tasks = list(range(len(terms)))
        a = {u: h for u, (h, _) in enumerate(terms)}
        delta = {u: min(v, h) for u, (h, v) in enumerate(terms)}
        merged, _ = merge_segment_sequences(
            [[Segment((u,), a[u], delta[u])] for u in tasks])
        assert merge_independent_tasks(tasks, a, delta) == merged

    def test_equal_keys_keep_input_order(self):
        a = {"x": 1.0, "y": 1.0, "z": 1.0}
        delta = {"x": 0.0, "y": 0.0, "z": 0.0}
        assert merge_independent_tasks(["z", "x", "y"], a, delta) == ["z", "x", "y"]
