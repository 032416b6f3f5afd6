"""Tests of the command-line interface (direct main() invocation)."""

import json

import pytest

from repro.cli import main


class TestGenerate:
    def test_generate_json(self, tmp_path):
        out = tmp_path / "wf.json"
        rc = main(["generate", "--family", "blast", "-n", "30",
                   "--seed", "1", "-o", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data["tasks"]) >= 25

    def test_generate_dot(self, tmp_path):
        out = tmp_path / "wf.dot"
        rc = main(["generate", "--family", "bwa", "-n", "20", "-o", str(out)])
        assert rc == 0
        assert "digraph" in out.read_text()

    def test_generate_real_world(self, tmp_path):
        out = tmp_path / "real.json"
        rc = main(["generate", "--family", "airrflow", "-o", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data["tasks"]) == 11


class TestSchedule:
    def test_schedule_generated(self, capsys):
        rc = main(["schedule", "--family", "blast", "-n", "40", "--seed", "2",
                   "--k-strategy", "doubling"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "DagHetPart" in out

    def test_schedule_baseline(self, capsys):
        rc = main(["schedule", "--family", "bwa", "-n", "30",
                   "--algorithm", "daghetmem"])
        assert rc == 0
        assert "DagHetMem" in capsys.readouterr().out

    def test_schedule_heftlist_skips_memory_validation(self, capsys):
        # memory-oblivious mappings may exceed processor memories; the CLI
        # must report them, not crash on validate()
        rc = main(["schedule", "--family", "genome", "-n", "150",
                   "--algorithm", "heftlist"])
        assert rc == 0
        assert "HeftList" in capsys.readouterr().out

    def test_schedule_from_file_with_gantt(self, tmp_path, capsys):
        wf_path = tmp_path / "wf.json"
        main(["generate", "--family", "seismology", "-n", "25", "-o", str(wf_path)])
        capsys.readouterr()
        rc = main(["schedule", "--workflow", str(wf_path), "--gantt",
                   "--k-strategy", "doubling"])
        assert rc == 0
        assert "task-level makespan" in capsys.readouterr().out

    def test_schedule_json_export(self, tmp_path):
        out = tmp_path / "sched.json"
        rc = main(["schedule", "--family", "blast", "-n", "30",
                   "--k-strategy", "doubling", "--json", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["task_level_makespan"] <= data["block_level_makespan"] + 1e-9

    def test_schedule_reports_winning_k_prime(self, capsys):
        rc = main(["schedule", "--family", "blast", "-n", "40", "--seed", "2",
                   "--k-strategy", "doubling"])
        assert rc == 0
        assert "k'        :" in capsys.readouterr().out

    def test_unknown_family_lists_valid_names(self):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "--family", "frobnicate"])
        message = str(exc.value)
        assert "unknown workflow family 'frobnicate'" in message
        assert "blast" in message  # generator families listed
        assert "airrflow" in message  # real-world models listed

    def test_infeasible_returns_2(self, tmp_path, capsys):
        # a workflow too big for the unscaled default cluster
        wf_path = tmp_path / "wf.json"
        main(["generate", "--family", "seismology", "-n", "300",
              "-o", str(wf_path)])
        rc = main(["schedule", "--workflow", str(wf_path),
                   "--no-scale-memory", "--k-strategy", "doubling"])
        assert rc == 2


class TestExperimentAndInfo:
    def test_experiment_table2(self, capsys):
        rc = main(["experiment", "table2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "C2" in out and "192" in out

    def test_experiment_with_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "400")  # tiny corpus
        out = tmp_path / "rows.json"
        rc = main(["experiment", "fig3_left", "--families", "blast",
                   "--json", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert any(r["workflow_type"] == "all" for r in rows)

    def test_info(self, capsys):
        rc = main(["info"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "blast" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestScenario:
    def _write_spec(self, tmp_path):
        from repro.api import (AlgorithmSpec, FamilyGridSource, PlatformAxis,
                               ScenarioSpec, save_scenario)
        spec = ScenarioSpec(
            name="cli-tiny",
            workflows=(FamilyGridSource(families=("blast",),
                                        sizes={"small": (24,)}),),
            platforms=(PlatformAxis(preset="default"),),
            algorithms=(AlgorithmSpec("daghetmem"),
                        AlgorithmSpec("daghetpart",
                                      config={"k_prime_values": [1, 4]})),
        )
        path = str(tmp_path / "spec.json")
        save_scenario(spec, path)
        return path

    def test_scenario_run(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        rc = main(["scenario", "run", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-tiny" in out
        assert "scheduled : 2/2" in out

    def test_scenario_run_cached_twice(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        cache = str(tmp_path / "cache")
        rc = main(["scenario", "run", path, "--cache-dir", cache])
        assert rc == 0
        assert "misses=2" in capsys.readouterr().out
        rc = main(["scenario", "run", path, "--cache-dir", cache])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hits=2" in out and "misses=0" in out

    def test_scenario_run_writes_jsonl(self, tmp_path, capsys):
        from repro.api import ScheduleResult
        path = self._write_spec(tmp_path)
        out_path = tmp_path / "results.jsonl"
        rc = main(["scenario", "run", path, "--json", str(out_path)])
        assert rc == 0
        lines = [l for l in out_path.read_text().splitlines() if l]
        assert len(lines) == 2
        results = [ScheduleResult.from_json(l) for l in lines]
        assert {r.algorithm for r in results} == {"DagHetMem", "DagHetPart"}

    def test_scenario_run_missing_spec_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["scenario", "run", str(tmp_path / "nope.json")])

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_scenario_run_backend_flag(self, tmp_path, capsys, backend):
        path = self._write_spec(tmp_path)
        rc = main(["scenario", "run", path, "--backend", backend, "-j", "2"])
        assert rc == 0
        assert "scheduled : 2/2" in capsys.readouterr().out

    def test_scenario_run_sqlite_cache_uri(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        uri = f"sqlite://{tmp_path}/cache.db"
        rc = main(["scenario", "run", path, "--cache", uri])
        assert rc == 0
        assert "misses=2" in capsys.readouterr().out
        rc = main(["scenario", "run", path, "--cache", uri])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hits=2" in out and "misses=0" in out
        assert (tmp_path / "cache.db").exists()

    def test_scenario_run_timeout_flag_reports_timeouts(self, tmp_path,
                                                        capsys):
        import time as time_module

        from repro.api import register_algorithm, unregister_algorithm
        from repro.api import (AlgorithmSpec, FamilyGridSource, ScenarioSpec,
                               save_scenario)

        @register_algorithm("clislow", summary="sleeps (CLI timeout test)")
        def clislow(workflow, cluster, config=None):
            time_module.sleep(30.0)
            raise AssertionError("unreachable")

        spec = ScenarioSpec(
            name="cli-timeout",
            workflows=(FamilyGridSource(families=("blast",),
                                        sizes={"small": (24,)}),),
            algorithms=(AlgorithmSpec("clislow"),),
        )
        path = str(tmp_path / "slow.json")
        save_scenario(spec, path)
        try:
            rc = main(["scenario", "run", path, "--timeout", "0.2",
                       "--json", str(tmp_path / "out.jsonl")])
        finally:
            unregister_algorithm("clislow")
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 timed out" in out
        record = json.loads((tmp_path / "out.jsonl").read_text())
        assert record["failure"]["kind"] == "timeout"


class TestScenarioDiff:
    def _run_to_jsonl(self, tmp_path, name, mutate=None):
        from repro.api import collect_scenario
        from repro.api import (AlgorithmSpec, FamilyGridSource, ScenarioSpec)
        spec = ScenarioSpec(
            name="diff-tiny",
            workflows=(FamilyGridSource(families=("blast", "bwa"),
                                        sizes={"small": (24,)}),),
            algorithms=(AlgorithmSpec("daghetmem"),),
        )
        records = [r.to_dict() for r in collect_scenario(spec)]
        if mutate is not None:
            mutate(records)
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    def test_identical_runs_agree(self, tmp_path, capsys):
        a = self._run_to_jsonl(tmp_path, "a.jsonl")
        b = self._run_to_jsonl(tmp_path, "b.jsonl",
                               mutate=lambda rs: [r.update(runtime=1e9)
                                                  for r in rs])
        rc = main(["scenario", "diff", a, b])
        assert rc == 0  # runtime deltas are not differences
        out = capsys.readouterr().out
        assert "matched   : 2" in out
        assert "runs agree" in out

    def test_makespan_delta_detected(self, tmp_path, capsys):
        a = self._run_to_jsonl(tmp_path, "a.jsonl")

        def slower(records):
            records[0]["makespan"] *= 1.5

        b = self._run_to_jsonl(tmp_path, "b.jsonl", mutate=slower)
        rc = main(["scenario", "diff", a, b])
        assert rc == 1
        out = capsys.readouterr().out
        assert "makespan deltas (1):" in out and "+50.000%" in out

    def test_new_failure_and_missing_detected(self, tmp_path, capsys):
        a = self._run_to_jsonl(tmp_path, "a.jsonl")

        def broken(records):
            records[0]["failure"] = {"kind": "NoFeasibleMappingError",
                                     "message": "x", "unplaced_tasks": 3}
            records[0]["makespan"] = None
            del records[1]

        b = self._run_to_jsonl(tmp_path, "b.jsonl", mutate=broken)
        rc = main(["scenario", "diff", a, b])
        assert rc == 1
        out = capsys.readouterr().out
        assert "new failures" in out and "NoFeasibleMappingError" in out
        assert "only in" in out and "missing from" in out

    def test_conflicting_duplicates_are_not_agreement(self, tmp_path,
                                                      capsys):
        """Two records the identity key cannot tell apart (same algorithm,
        two configs, no distinguishing tag) with different outcomes must
        fail the gate, not silently collapse."""
        def clone_with_other_makespan(records):
            twin = dict(records[0])
            twin["makespan"] = (twin["makespan"] or 0) * 2
            records.append(twin)

        a = self._run_to_jsonl(tmp_path, "a.jsonl",
                               mutate=clone_with_other_makespan)
        b = self._run_to_jsonl(tmp_path, "b.jsonl",
                               mutate=clone_with_other_makespan)
        rc = main(["scenario", "diff", a, b])
        assert rc == 1
        out = capsys.readouterr().out
        assert "ambiguous records" in out and "distinguishing tag" in out

    def test_changed_failure_kind_detected(self, tmp_path, capsys):
        def fail(kind):
            def mutate(records):
                records[0]["failure"] = {"kind": kind, "message": "x",
                                         "unplaced_tasks": 0}
                records[0]["makespan"] = None
            return mutate

        a = self._run_to_jsonl(tmp_path, "a.jsonl",
                               mutate=fail("NoFeasibleMappingError"))
        b = self._run_to_jsonl(tmp_path, "b.jsonl", mutate=fail("timeout"))
        rc = main(["scenario", "diff", a, b])
        assert rc == 1  # infeasible -> timeout is not agreement
        out = capsys.readouterr().out
        assert "failure kind changed" in out
        assert "NoFeasibleMappingError -> timeout" in out

    def test_tolerance_flag(self, tmp_path, capsys):
        a = self._run_to_jsonl(tmp_path, "a.jsonl")

        def nudge(records):
            for r in records:
                r["makespan"] *= 1.0001

        b = self._run_to_jsonl(tmp_path, "b.jsonl", mutate=nudge)
        assert main(["scenario", "diff", a, b]) == 1
        capsys.readouterr()
        assert main(["scenario", "diff", a, b, "--tolerance", "0.01"]) == 0


class TestPolicyOverrideMerge:
    def test_retries_flag_keeps_spec_timeout(self, tmp_path, monkeypatch):
        """--retries alone must not discard the spec's hang guard."""
        from repro.api import (AlgorithmSpec, ExecutionPolicy, ExecutionSpec,
                               FamilyGridSource, ScenarioSpec, save_scenario)
        import repro.cli as cli_module

        spec = ScenarioSpec(
            name="merge-test",
            workflows=(FamilyGridSource(families=("blast",),
                                        sizes={"small": (24,)}),),
            algorithms=(AlgorithmSpec("daghetmem"),),
            execution=ExecutionSpec(policy=ExecutionPolicy(
                timeout_s=300.0, retry_backoff=0.5, on_timeout="requeue")),
        )
        path = str(tmp_path / "spec.json")
        save_scenario(spec, path)

        seen = {}
        real = cli_module.run_scenario

        def spy(spec, **kwargs):
            seen["policy"] = spec.execution.policy
            return real(spec, **kwargs)

        monkeypatch.setattr(cli_module, "run_scenario", spy)
        assert main(["scenario", "run", path, "--retries", "3"]) == 0
        assert seen["policy"] == ExecutionPolicy(
            timeout_s=300.0, retries=3, retry_backoff=0.5,
            on_timeout="requeue")
        # an explicit 0 is an override too: it switches retries off
        assert main(["scenario", "run", path, "--retries", "0"]) == 0
        assert seen["policy"].retries == 0
        assert seen["policy"].timeout_s == 300.0


class TestScheduleTimeout:
    def test_schedule_timeout_exit_code(self, capsys):
        import time as time_module

        from repro.api import register_algorithm, unregister_algorithm

        @register_algorithm("schedslow", summary="sleeps (CLI timeout test)")
        def schedslow(workflow, cluster, config=None):
            time_module.sleep(30.0)
            raise AssertionError("unreachable")

        try:
            rc = main(["schedule", "--family", "blast", "-n", "24",
                       "--algorithm", "schedslow", "--timeout", "0.2"])
        finally:
            unregister_algorithm("schedslow")
        assert rc == 3
        assert "timed out" in capsys.readouterr().err
