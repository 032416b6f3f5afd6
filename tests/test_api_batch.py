"""Tests of solve()/solve_batch(): the one code path, serial or parallel."""

import pytest

from repro.api import ScheduleRequest, iter_solve_batch, solve, solve_batch
from repro.core.heuristic import DagHetPartConfig
from repro.experiments.instances import synthetic_instances
from repro.platform.presets import default_cluster

FAST_CFG = DagHetPartConfig(k_prime_values=(1, 4, 12))


def _requests(n_instances=2):
    instances = synthetic_instances(sizes={"small": (24, 32)[:n_instances]},
                                    families=("blast", "bwa"))
    return [
        ScheduleRequest(workflow=inst.workflow, cluster=default_cluster(),
                        algorithm=algorithm, config=FAST_CFG,
                        scale_memory=True, want_mapping=False,
                        tags={"instance": inst.name})
        for inst in instances
        for algorithm in ("DagHetMem", "DagHetPart")
    ]


class TestSolve:
    def test_unknown_algorithm_raises_eagerly(self):
        req = _requests()[0]
        import dataclasses
        with pytest.raises(ValueError, match="unknown algorithm"):
            solve(dataclasses.replace(req, algorithm="nope"))

    def test_wrong_config_type_raises(self):
        req = _requests()[1]
        import dataclasses
        with pytest.raises(TypeError, match="DagHetPartConfig"):
            solve(dataclasses.replace(req, algorithm="daghetpart",
                                      config=object()))

    def test_want_mapping_false_drops_mapping_keeps_scalars(self):
        result = solve(_requests()[3])
        assert result.success
        assert result.mapping is None
        assert result.makespan > 0 and result.n_blocks >= 1

    def test_invalid_mapping_comes_back_as_failure(self):
        """validate=True on a memory-oblivious mapping that overflows a
        tight cluster returns the InvalidPartitionError, never raises."""
        from repro.platform.cluster import Cluster
        from repro.platform.processor import Processor
        inst = synthetic_instances(sizes={"small": (24,)},
                                   families=("genome",))[0]
        tight = Cluster([Processor(f"p{i}", 1.0, 1.0) for i in range(4)])
        result = solve(ScheduleRequest(workflow=inst.workflow, cluster=tight,
                                       algorithm="heftlist", validate=True))
        assert not result.success
        assert result.failure.kind == "InvalidPartitionError"
        assert "exceeds memory" in result.failure.message
        assert result.mapping is None
        assert result.makespan == float("inf") and result.n_blocks == 0

    def test_scale_memory_reflected_in_result_cluster(self):
        # blast tasks outgrow the unscaled cluster memory at this size
        req = _requests()[1]
        result = solve(req)
        assert result.success
        assert result.cluster  # name of the cluster actually used


class TestSolveBatch:
    def test_results_in_request_order(self):
        requests = _requests()
        results = solve_batch(requests)
        assert [r.tags["instance"] for r in results] == \
            [req.tags["instance"] for req in requests]
        assert [r.algorithm for r in results] == \
            ["DagHetMem", "DagHetPart"] * (len(requests) // 2)

    def test_parallel_matches_serial(self):
        requests = _requests()
        serial = solve_batch(requests)
        parallel = solve_batch(requests, parallel=2)
        # bit-for-bit identical apart from the measured runtime
        strip = lambda r: {k: v for k, v in r.to_dict().items()
                           if k != "runtime"}
        assert [strip(r) for r in parallel] == [strip(r) for r in serial]

    def test_progress_hook_called_per_request(self):
        requests = _requests()
        seen = []
        solve_batch(requests, progress=lambda i, req, res: seen.append(i))
        assert sorted(seen) == list(range(len(requests)))

    def test_parallel_progress_hook(self):
        requests = _requests()
        seen = []
        results = solve_batch(requests, parallel=2,
                              progress=lambda i, req, res: seen.append(i))
        assert sorted(seen) == list(range(len(requests)))
        assert len(results) == len(requests)

    def test_empty_batch(self):
        assert solve_batch([]) == []

    def test_single_request_stays_serial(self):
        results = solve_batch(_requests()[:1], parallel=8)
        assert len(results) == 1 and results[0].success


class TestProgressOrdering:
    """The hook fires in request order with matching (index, request, result),
    serial and parallel alike."""

    def _run(self, parallel):
        requests = _requests()
        seen = []
        results = solve_batch(requests, parallel=parallel,
                              progress=lambda i, req, res:
                              seen.append((i, req, res)))
        return requests, results, seen

    @pytest.mark.parametrize("parallel", [None, 3])
    def test_hooks_fire_in_request_order(self, parallel):
        requests, results, seen = self._run(parallel)
        assert [i for i, _, _ in seen] == list(range(len(requests)))

    @pytest.mark.parametrize("parallel", [None, 3])
    def test_hook_triples_are_consistent(self, parallel):
        requests, results, seen = self._run(parallel)
        for i, req, res in seen:
            assert req is requests[i]
            assert res is results[i]
            assert res.workflow == req.workflow.name


class TestIterSolveBatch:
    def test_streams_in_request_order(self):
        requests = _requests()
        results = list(iter_solve_batch(requests))
        assert [r.tags["instance"] for r in results] == \
            [req.tags["instance"] for req in requests]

    def test_accepts_a_lazy_generator(self):
        requests = _requests()
        consumed = []

        def generator():
            for req in requests:
                consumed.append(req)
                yield req

        it = iter_solve_batch(generator())
        first = next(it)
        # serial path pulls one request at a time
        assert len(consumed) == 1 and first.success
        rest = list(it)
        assert len(rest) == len(requests) - 1

    def test_parallel_stream_matches_serial(self):
        requests = _requests()
        strip = lambda r: {k: v for k, v in r.to_dict().items()
                           if k != "runtime"}
        serial = [strip(r) for r in iter_solve_batch(iter(requests))]
        parallel = [strip(r) for r in
                    iter_solve_batch(iter(requests), parallel=2, window=2)]
        assert parallel == serial


class TestResolveParallelEnv:
    def test_unparsable_env_value_warns_and_runs_serial(self, monkeypatch):
        from repro.api import resolve_parallel
        monkeypatch.setenv("REPRO_PARALLEL", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_PARALLEL='lots'"):
            assert resolve_parallel(None) == 0

    def test_valid_env_value_does_not_warn(self, monkeypatch):
        import warnings
        from repro.api import resolve_parallel
        monkeypatch.setenv("REPRO_PARALLEL", "3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_parallel(None) == 3


class TestRunnerAdapter:
    """The corpus runner is now a thin adapter over the API."""

    def test_records_carry_failure_reason(self):
        from repro.experiments.runner import run_instance
        from repro.platform.cluster import Cluster
        from repro.platform.processor import Processor
        inst = synthetic_instances(sizes={"small": (24,)},
                                   families=("blast",))[0]
        tiny = Cluster([Processor("p", 1.0, 0.001)])
        records = run_instance(inst, tiny, config=FAST_CFG,
                               scale_memory=False)
        assert all(not r.success for r in records)
        assert all(r.failure_reason.startswith("NoFeasibleMappingError:")
                   for r in records)

    def test_records_carry_winning_k_prime(self):
        from repro.experiments.runner import run_instance
        inst = synthetic_instances(sizes={"small": (24,)},
                                   families=("blast",))[0]
        records = run_instance(inst, default_cluster(), config=FAST_CFG)
        by_alg = {r.algorithm: r for r in records}
        assert by_alg["DagHetPart"].k_prime in (1, 4, 12)
        assert by_alg["DagHetMem"].k_prime is None
