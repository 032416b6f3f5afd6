"""Tests for utilities: priority queue, RNG plumbing, errors."""

import numpy as np
import pytest

from repro.utils.errors import (
    CyclicWorkflowError,
    NoFeasibleMappingError,
    ReproError,
)
from repro.utils.pqueue import AddressableMaxPQ
from repro.utils.rng import make_rng, spawn_rngs, stable_hash


class TestAddressableMaxPQ:
    def test_extract_max_order(self):
        pq = AddressableMaxPQ([("a", 3), ("b", 7), ("c", 5)])
        assert [pq.extract_max()[0] for _ in range(3)] == ["b", "c", "a"]

    def test_ties_broken_by_insertion_order(self):
        pq = AddressableMaxPQ([("first", 5), ("second", 5)])
        assert pq.extract_max()[0] == "first"

    def test_push_updates_priority(self):
        pq = AddressableMaxPQ([("a", 1), ("b", 2)])
        pq.push("a", 10)
        assert pq.extract_max() == ("a", 10.0)

    def test_remove(self):
        pq = AddressableMaxPQ([("a", 1), ("b", 2)])
        pq.remove("b")
        assert "b" not in pq
        assert len(pq) == 1
        assert pq.extract_max()[0] == "a"

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            AddressableMaxPQ().remove("ghost")

    def test_peek_does_not_remove(self):
        pq = AddressableMaxPQ([("a", 1)])
        assert pq.peek() == ("a", 1.0)
        assert len(pq) == 1

    def test_empty_operations_raise(self):
        pq = AddressableMaxPQ()
        with pytest.raises(IndexError):
            pq.peek()
        with pytest.raises(IndexError):
            pq.extract_max()

    def test_priority_lookup(self):
        pq = AddressableMaxPQ([("a", 4.5)])
        assert pq.priority("a") == 4.5

    def test_bool_and_len(self):
        pq = AddressableMaxPQ()
        assert not pq
        pq.push("x", 1)
        assert pq and len(pq) == 1

    def test_stress_against_sorted(self):
        rng = np.random.default_rng(7)
        pq = AddressableMaxPQ()
        reference = {}
        for i in range(500):
            key = int(rng.integers(0, 100))
            prio = float(rng.random())
            pq.push(key, prio)
            reference[key] = prio
        drained = [pq.extract_max() for _ in range(len(pq))]
        assert len(drained) == len(reference)
        assert {k for k, _ in drained} == set(reference)
        priorities = [p for _, p in drained]
        assert priorities == sorted(priorities, reverse=True)


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.allclose(a, b)

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(0, 3)
        seqs = [c.random(4).tolist() for c in children]
        assert seqs[0] != seqs[1] != seqs[2]

    def test_spawn_deterministic(self):
        a = [g.random() for g in spawn_rngs(5, 2)]
        b = [g.random() for g in spawn_rngs(5, 2)]
        assert a == b

    def test_stable_hash_deterministic(self):
        assert stable_hash("blast:200") == stable_hash("blast:200")
        assert stable_hash("a") != stable_hash("b")
        assert 0 <= stable_hash("anything") < 2 ** 63


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(CyclicWorkflowError, ReproError)
        assert issubclass(NoFeasibleMappingError, ReproError)

    def test_cycle_message_includes_nodes(self):
        err = CyclicWorkflowError(["a", "b"])
        assert "a" in str(err)
        assert err.cycle == ["a", "b"]

    def test_no_feasible_mapping_records_unplaced(self):
        err = NoFeasibleMappingError("nope", unplaced_tasks=7)
        assert err.unplaced_tasks == 7
