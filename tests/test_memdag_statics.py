"""Differential tests of the shared per-block statics (``BlockStatics``).

``memdag_traversal`` builds one :class:`BlockStatics` per block and hands
it to every engine and to every peak evaluation. These tests pin that this
changes no result, bit for bit:

* the flat statics peak equals ``max(evaluate_traversal(...))`` — the
  independent :class:`TraversalState` oracle — under ``==``;
* both evaluations reject the same malformed orders;
* every engine returns the same order with and without shared statics, and
  sharing leaves the statics untouched;
* on every block of DagHetPart mappings of all seven families and of the
  bundled traces, ``memdag_traversal`` equals the engines run standalone
  and priced by the oracle.

Engine orders follow set iteration order, so CI runs this module under two
``PYTHONHASHSEED`` values.
"""

import copy
import json
import pickle
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.api import ScheduleRequest, solve
from repro.generators.families import WORKFLOW_FAMILIES, generate_workflow
from repro.ingest import ingest_path
from repro.memdag import BlockStatics
from repro.memdag.model import (
    TraversalState,
    evaluate_traversal,
    peak_of_traversal,
)
from repro.memdag.spize import layered_traversal
from repro.memdag.traversal import (
    SP_SIZE_LIMIT,
    best_first_traversal,
    brute_force_min_peak,
    memdag_traversal,
    sp_traversal,
)
from repro.platform.presets import default_cluster
from repro.workflow.graph import Workflow

SETTINGS = dict(deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.too_slow])

TRACES = Path(__file__).resolve().parent.parent / "examples" / "traces"

#: every bundled, well-formed trace sample (template data rides along)
TRACE_SAMPLES = (("cyclesweep.csv", None),
                 ("epigenomics.wfformat.json", None),
                 ("montage.dax", None),
                 ("rnaseq.dot", None),
                 ("variant_calling.tpl", "variant_calling.data.json"))

ENGINES = (best_first_traversal, layered_traversal, sp_traversal)


@st.composite
def dags_with_block(draw, max_tasks=16):
    """A random DAG (edges low -> high index, costs that round when summed),
    a non-empty block of it, and a random topological order of the block."""
    n = draw(st.integers(1, max_tasks))
    wf = Workflow("statics")
    for i in range(n):
        wf.add_task(i, work=1.0, memory=draw(st.floats(0.0, 50.0)))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 2)) == 0:
                wf.add_edge(i, j, draw(st.floats(0.0, 20.0)))
    members = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    block = {i for i in range(n) if members[i]} or {0}
    rng = draw(st.randoms(use_true_random=False))
    pending = {u: sum(1 for p in wf.parents(u) if p in block) for u in block}
    ready = sorted(u for u in block if pending[u] == 0)
    order = []
    while ready:
        u = ready.pop(rng.randrange(len(ready)))
        order.append(u)
        for v in wf.children(u):
            if v in block:
                pending[v] -= 1
                if pending[v] == 0:
                    ready.append(v)
    return wf, block, order


def _snapshot(statics):
    return copy.deepcopy({name: getattr(statics, name)
                          for name in BlockStatics.__slots__})


def _both_reject(wf, order, block):
    with pytest.raises(ValueError):
        peak_of_traversal(wf, order, block)
    with pytest.raises(ValueError):
        peak_of_traversal(wf, order, block, statics=BlockStatics(wf, block))


class TestStaticsPeak:
    @given(case=dags_with_block())
    @settings(**SETTINGS)
    def test_equals_oracle_bit_for_bit(self, case):
        wf, block, order = case
        oracle = max(evaluate_traversal(wf, order, block))
        fast = peak_of_traversal(wf, order, block,
                                 statics=BlockStatics(wf, block))
        assert fast == oracle
        assert fast.hex() == oracle.hex()

    @given(case=dags_with_block())
    @settings(**SETTINGS)
    def test_rejects_missing_task(self, case):
        wf, block, order = case
        _both_reject(wf, order[:-1], block)

    @given(case=dags_with_block())
    @settings(**SETTINGS)
    def test_rejects_duplicate_task(self, case):
        wf, block, order = case
        _both_reject(wf, order + order[:1], block)
        assume(len(order) >= 2)
        _both_reject(wf, order[:-1] + order[:1], block)

    @given(case=dags_with_block())
    @settings(**SETTINGS)
    def test_rejects_child_before_parent(self, case):
        wf, block, order = case
        pos = {u: i for i, u in enumerate(order)}
        pairs = [(p, v) for v in order for p in wf.parents(v) if p in block]
        assume(pairs)
        p, v = pairs[0]
        bad = list(order)
        bad[pos[p]], bad[pos[v]] = v, p
        _both_reject(wf, bad, block)

    def test_rejects_foreign_task(self, fig1_workflow):
        block = {6, 7, 8}
        order = best_first_traversal(fig1_workflow, block)
        _both_reject(fig1_workflow, order[:-1] + [1], block)

    def test_empty_block(self):
        wf = Workflow()
        assert peak_of_traversal(wf, [], set(),
                                 statics=BlockStatics(wf, set())) == 0.0


class TestSharedStatics:
    @given(case=dags_with_block())
    @settings(**SETTINGS)
    def test_engines_identical_with_and_without(self, case):
        wf, block, _ = case
        statics = BlockStatics(wf, block)
        before = _snapshot(statics)
        for engine in ENGINES:
            assert engine(wf, block, statics=statics) == engine(wf, block)
        assert _snapshot(statics) == before

    @given(case=dags_with_block(max_tasks=8))
    @settings(**SETTINGS)
    def test_brute_force_identical_with_and_without(self, case):
        wf, block, _ = case
        shared = brute_force_min_peak(wf, block, statics=BlockStatics(wf, block))
        assert shared == brute_force_min_peak(wf, block)

    def test_statics_of_fig1(self, fig1_workflow):
        """``a`` and ``delta`` agree with the oracle's per-task terms."""
        block = {1, 2, 3, 4}
        statics = BlockStatics(fig1_workflow, block)
        state = TraversalState(fig1_workflow, block)
        for u in block:
            assert statics.a[u] == state.usage_if_executed(u)
            assert statics.delta[u] == state.delta_if_executed(u)
            assert statics.n_parents[u] == sum(
                1 for p in fig1_workflow.parents(u) if p in block)
            assert statics.children[u] == [
                v for v in fig1_workflow.children(u) if v in block]


def _standalone(wf, block):
    """memdag_traversal's contract, rebuilt from standalone engines priced
    by the TraversalState oracle."""
    candidates = []
    for method, engine in (("best_first", best_first_traversal),
                           ("layered", layered_traversal),
                           ("sp", sp_traversal)):
        if method == "sp" and len(block) > SP_SIZE_LIMIT:
            continue
        order = engine(wf, block)
        if order is not None:
            candidates.append((max(evaluate_traversal(wf, order, block)),
                               method, order))
    peak, method, order = min(candidates, key=lambda t: t[0])
    return tuple(order), peak, method


def _assert_mapping_blocks_identical(wf):
    result = solve(ScheduleRequest(workflow=wf, cluster=default_cluster(),
                                   algorithm="daghetpart", scale_memory=True))
    assert result.success, result.failure
    blocks = [set(a.tasks) for a in result.mapping.assignments]
    blocks.append(set(wf.tasks()))  # DagHetMem's whole-workflow traversal
    for block in blocks:
        got = memdag_traversal(wf, block)
        want = _standalone(wf, block)
        assert (got.order, got.peak, got.method) == want
        assert got.peak.hex() == want[1].hex()


class TestFrontEndOnRealBlocks:
    @pytest.mark.parametrize("family", WORKFLOW_FAMILIES)
    @pytest.mark.parametrize("n_tasks", (16, 40, 64))
    def test_families(self, family, n_tasks):
        _assert_mapping_blocks_identical(
            generate_workflow(family, n_tasks, seed=n_tasks))

    @pytest.mark.parametrize("sample,data", TRACE_SAMPLES)
    def test_bundled_traces(self, sample, data):
        payload = None
        if data is not None:
            payload = json.loads((TRACES / data).read_text(encoding="utf-8"))
        _assert_mapping_blocks_identical(
            ingest_path(str(TRACES / sample), data=payload))


class TestTaskIndex:
    def test_matches_task_order(self, fig1_workflow):
        index = fig1_workflow.task_index()
        assert index == {u: i for i, u in enumerate(fig1_workflow.tasks())}
        assert fig1_workflow.task_index() is index  # memoized

    def test_dropped_on_mutation(self, fig1_workflow):
        index = fig1_workflow.task_index()
        fig1_workflow.add_task("new")
        assert fig1_workflow.task_index() is not index
        assert fig1_workflow.task_index()["new"] == fig1_workflow.n_tasks - 1

    def test_not_pickled(self, fig1_workflow):
        fig1_workflow.task_index()
        clone = pickle.loads(pickle.dumps(fig1_workflow))
        assert clone._task_index is None
        assert clone.task_index() == fig1_workflow.task_index()
