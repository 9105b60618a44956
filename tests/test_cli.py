"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

from repro.cli import ALGORITHMS, SCHEDULERS, TOPOLOGIES, build_parser, main
from repro.experiments.runner import execute_scenario
from repro.experiments.spec import CheckSpec, ScenarioSpec
from repro.experiments.store import ResultStore
from repro.topology.generators import build_family


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "pr"
        assert args.topology == "chain"
        assert args.scheduler == "greedy"

    def test_all_algorithms_accepted(self):
        for name in ALGORITHMS:
            args = build_parser().parse_args(["run", "--algorithm", name])
            assert args.algorithm == name

    def test_all_schedulers_accepted(self):
        for name in SCHEDULERS:
            args = build_parser().parse_args(["run", "--scheduler", name])
            assert args.scheduler == name


class TestBuildTopology:
    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_every_family_builds_a_valid_instance(self, name):
        instance = build_family(name, 12, seed=1)
        assert instance.node_count >= 2
        assert instance.is_initially_acyclic()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            build_family("moebius", 10, seed=0)


class TestCommands:
    def test_run_command(self, capsys):
        exit_code = main(["run", "--topology", "chain", "--nodes", "10"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "node steps" in output
        assert "dest oriented : True" in output

    def test_run_command_every_algorithm(self, capsys):
        for name in ALGORITHMS:
            assert main(["run", "--algorithm", name, "--nodes", "8"]) == 0
        assert "converged     : True" in capsys.readouterr().out

    def test_run_writes_dot_file(self, tmp_path, capsys):
        dot_path = tmp_path / "final.dot"
        exit_code = main(["run", "--nodes", "6", "--dot", str(dot_path)])
        assert exit_code == 0
        assert dot_path.exists()
        assert "digraph" in dot_path.read_text()

    def test_compare_command(self, capsys):
        exit_code = main(["compare", "--topology", "grid", "--nodes", "9"])
        output = capsys.readouterr().out
        assert exit_code == 0
        for name in ("PR", "NewPR", "FR"):
            assert name in output

    def test_verify_command(self, capsys):
        exit_code = main(["verify", "--max-nodes", "3"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "violations: 0" in output

    def test_worst_case_command(self, capsys):
        exit_code = main(["worst-case", "--max-bad", "6"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "FR quadratic fit" in output

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--max-nodes", "1"], "--max-nodes must be at least 2, got 1"),
        (["worst-case", "--max-bad", "0"], "--max-bad must be at least 1, got 0"),
        (["check", "--max-traced", "-1"], "max_traced must be at least 0, got -1"),
    ])
    def test_out_of_range_input_exits_2(self, argv, message, capsys):
        # each used to print a vacuous or truncated answer and exit 0
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_closed_stdout_is_not_a_traceback(self, monkeypatch, capsys):
        # `repro ... --json | head -1`: the reader is gone before the flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w") as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            assert main(["compare", "--nodes", "6", "--json"]) == 1
        assert capsys.readouterr().err == ""

    def test_run_async_command(self, capsys):
        exit_code = main(["run", "--topology", "grid", "--nodes", "9",
                          "--delay-model", "uniform"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "engine        : async" in output
        assert "dest oriented : True" in output
        assert "msgs sent     : " in output
        # no churn: the churn columns stay out of the summary
        assert "links failed" not in output

    def test_run_async_with_failures(self, capsys):
        exit_code = main(["run", "--topology", "grid", "--nodes", "16",
                          "--delay-model", "uniform", "--failures", "2"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "dest oriented : True" in output
        assert "links failed  : 2" in output
        assert "cuts skipped  : 0" in output

    def test_run_prints_the_record_of_its_scenario(self, capsys):
        # `run` is one scenario through the engine registry: apart from its
        # labels, the summary is the record a campaign stores for that spec
        argv = ["--seed", "3", "run", "--topology", "grid", "--nodes", "16",
                "--delay-model", "uniform", "--failures", "2", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        record = execute_scenario(ScenarioSpec(
            family="grid", size=16, algorithm="pr", scheduler="greedy",
            topology_seed=3, scheduler_seed=3, delay_model="uniform",
            failure_model="link-failures", failure_count=2,
        ))
        fields = set(payload) - {"algorithm", "scheduler", "topology", "seed"}
        assert {"messages_sent", "failures_applied", "node_steps"} <= fields
        assert {k: payload[k] for k in fields} == {k: record[k] for k in fields}

    def test_run_rejects_a_negative_step_bound(self, capsys):
        assert main(["run", "--max-steps", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ValueError: max_steps must be non-negative\n"

    def test_run_dot_refuses_an_async_run(self, tmp_path, capsys):
        dot_path = tmp_path / "final.dot"
        argv = ["run", "--delay-model", "fixed", "--dot", str(dot_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --dot ")
        assert not dot_path.exists()

    @pytest.mark.parametrize("delay_model", ["zero", "fixed", "uniform", "fifo"])
    def test_run_every_delay_model_goes_to_the_async_engine(self, capsys, delay_model):
        argv = ["run", "--topology", "grid", "--nodes", "9", "--algorithm", "fr",
                "--delay-model", delay_model, "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "async"
        assert payload["algorithm"] == "FR"
        assert payload["destination_oriented"] is True
        assert payload["messages_lost"] == 0
        assert "failures_applied" not in payload

    def test_run_synchronous_failures_stay_on_the_kernel(self, capsys):
        assert main(["run", "--topology", "grid", "--nodes", "16", "--failures", "2"]) == 0
        output = capsys.readouterr().out
        assert "engine        : kernel" in output
        assert "dest oriented : True" in output
        assert "links failed  : 2" in output
        # no delay model: the message columns stay out of the summary
        assert "msgs sent" not in output

    def test_run_dot_refuses_a_churn_run(self, tmp_path, capsys):
        dot_path = tmp_path / "final.dot"
        assert main(["run", "--failures", "1", "--dot", str(dot_path)]) == 2
        assert capsys.readouterr().err.startswith("error: --dot ")
        assert not dot_path.exists()

    def test_run_legacy_engine_rejects_a_delay_model(self, capsys):
        assert main(["run", "--engine", "legacy", "--delay-model", "uniform"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["check", "compare"])
    def test_single_node_topology_rejected(self, capsys, command):
        # like `run` and `sweep`: a size below two is an error, not a
        # silently clamped two-node chain
        assert main([command, "--nodes", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith("size must be at least 2\n")

    def test_seed_is_threaded_through(self, capsys):
        main(["--seed", "7", "run", "--topology", "random-dag", "--nodes", "15"])
        first = capsys.readouterr().out
        main(["--seed", "7", "run", "--topology", "random-dag", "--nodes", "15"])
        second = capsys.readouterr().out
        assert first == second

    def test_run_json_output(self, capsys):
        exit_code = main(["run", "--topology", "grid", "--nodes", "9", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["algorithm"] == "PR"
        assert payload["destination_oriented"] is True
        assert payload["nodes"] == 9

    def test_run_step_bound_truncates(self, capsys):
        assert main(["run", "--nodes", "12", "--max-steps", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["node_steps"] == 2
        assert payload["converged"] is False
        assert payload["destination_oriented"] is False

    def test_run_rejects_a_scenario_below_two_nodes(self, capsys):
        assert main(["run", "--nodes", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ValueError: size must be at least 2\n"

    @pytest.mark.parametrize("algorithm,engine", [("pr", "async"), ("bll", "dataplane")])
    def test_run_rejects_an_engine_that_cannot_run_the_scenario(
        self, capsys, algorithm, engine
    ):
        # an explicit engine is never swapped for another one behind the
        # user's back: the registry's reason is the error
        argv = ["run", "--algorithm", algorithm, "--engine", engine, "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        # the engine's own reason: a spec without a delay / traffic model
        assert f"the {engine} engine needs a" in captured.err
        assert "Traceback" not in captured.err

    def test_run_auto_rejection_names_every_engine_reason(self, capsys):
        # no engine runs OneStepPR with a delay model: the error says why,
        # engine by engine, instead of only echoing the spec
        argv = ["run", "--algorithm", "onestep-pr", "--delay-model", "uniform"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ValueError: no registered engine ")
        assert "[async] no height-based message-passing protocol for algorithm " \
            "'onestep-pr'" in captured.err
        for engine in ("kernel", "legacy", "async", "dataplane"):
            assert f"[{engine}] " in captured.err
        assert "Traceback" not in captured.err

    def test_compare_json_output(self, capsys):
        exit_code = main(["compare", "--topology", "chain", "--nodes", "8", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert set(payload["results"]) == set(ALGORITHMS)
        # the worst-case chain: FR does strictly more work than (one-step) PR
        assert payload["results"]["fr"]["node_steps"] > payload["results"]["pr"]["node_steps"]

    def test_compare_seeds_are_independent_per_algorithm(self, capsys):
        # under the seeded random scheduler every algorithm must get its own
        # derived seed; with a shared seed the schedules would be correlated.
        # The observable contract is determinism + per-algorithm derivation,
        # which we check through the derive_seed values being distinct.
        from repro.experiments.spec import derive_seed

        seeds = {name: derive_seed(7, "compare", name) for name in ALGORITHMS}
        assert len(set(seeds.values())) == len(seeds)
        # and the command itself is reproducible under the random scheduler
        main(["--seed", "7", "compare", "--topology", "random-dag", "--nodes", "12",
              "--scheduler", "random", "--json"])
        first = capsys.readouterr().out
        main(["--seed", "7", "compare", "--topology", "random-dag", "--nodes", "12",
              "--scheduler", "random", "--json"])
        assert first == capsys.readouterr().out

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_compare_reports_one_scenario_record_per_algorithm(self, capsys, scheduler):
        from repro.experiments.spec import derive_seed

        argv = ["--seed", "7", "compare", "--topology", "random-dag", "--nodes", "12",
                "--scheduler", scheduler, "--json"]
        assert main(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        for name, row in results.items():
            record = execute_scenario(ScenarioSpec(
                family="random-dag", size=12, algorithm=name, scheduler=scheduler,
                topology_seed=7, scheduler_seed=derive_seed(7, "compare", name),
            ))
            assert row["algorithm"] == ALGORITHMS[name].name
            fields = set(row) - {"algorithm", "scheduler"}
            assert {k: row[k] for k in fields} == {k: record[k] for k in fields}

    def test_compare_table_matches_its_json(self, capsys):
        argv = ["compare", "--topology", "tree", "--nodes", "10", "--scheduler", "random"]
        assert main(argv + ["--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert main(argv) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["algorithm", "steps", "reversals", "dummy", "oriented"]
        assert [row.split() for row in rows] == [
            [r["algorithm"], str(r["node_steps"]), str(r["edge_reversals"]),
             str(r["dummy_steps"]), str(r["destination_oriented"])]
            for r in (results[name] for name in ALGORITHMS)
        ]

    def test_compare_error_record_exits_2(self, capsys, monkeypatch):
        import repro.cli as cli

        def failing(spec, engine="auto"):
            return {"status": "error", "error": "RuntimeError: boom"}

        monkeypatch.setattr(cli, "execute_scenario", failing)
        assert main(["compare", "--nodes", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: RuntimeError: boom\n"


class TestCheck:
    def test_check_command(self, capsys):
        exit_code = main(["check", "--algorithm", "fr", "--topology", "grid", "--nodes", "9"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "(exhaustive)" in output
        assert "violations    : 0" in output

    def test_check_json_output(self, capsys):
        exit_code = main(["check", "--algorithm", "fr", "--topology", "grid",
                          "--nodes", "9", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["status"] == "ok"
        assert payload["states_explored"] > 1
        assert payload["violations"] == 0
        assert payload["acyclic_final"] is True
        assert payload["counterexamples"] == []
        assert payload["invariants"] == ["acyclic", "progress"]

    def test_check_acyclic_final_unset_when_not_checked(self, capsys):
        # a record must not claim acyclicity was verified when the check
        # never ran (the aggregate layer counts acyclic_final as an outcome)
        exit_code = main(["check", "--algorithm", "fr", "--topology", "grid",
                          "--nodes", "9", "--invariants", "progress", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["acyclic_final"] is None
        assert payload["invariants"] == ["progress"]

    def test_check_paper_invariants(self, capsys):
        exit_code = main(["check", "--algorithm", "onestep-pr", "--topology", "grid",
                          "--nodes", "9", "--invariants", "acyclic,progress,paper", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert "Invariant 3.1" in payload["predicates"]
        assert payload["violations"] == 0

    def test_check_store_and_resume(self, tmp_path, capsys):
        store = tmp_path / "store"
        args = ["check", "--algorithm", "fr", "--topology", "grid", "--nodes", "9",
                "--store", str(store), "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["status"] == "ok"
        # second run resumes from the stored verdict without re-exploring
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["skipped"] is True
        assert second["run_id"] == first["run_id"]
        assert second["states_explored"] == first["states_explored"]
        # --no-resume re-verifies
        assert main(args + ["--no-resume"]) == 0
        third = json.loads(capsys.readouterr().out)
        assert "skipped" not in third
        assert third["states_explored"] == first["states_explored"]

    def test_check_run_id_and_store_from_before_the_check_engine(self, tmp_path, capsys):
        # the run id hashes what it hashed before checks became specs, so a
        # check stored then (no engine stamp) resumes as a no-op
        spec = CheckSpec(family="grid", size=9, algorithm="fr")
        assert spec.run_id == "2860f52a1ccd669f"
        record = execute_scenario(spec)
        assert record["engine"] == "check"
        old = {key: value for key, value in record.items() if key != "engine"}
        with ResultStore(tmp_path / "store") as store:
            store.append([old])
        args = ["check", "--algorithm", "fr", "--topology", "grid", "--nodes", "9",
                "--store", str(tmp_path / "store"), "--json"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out) == {**old, "skipped": True}
        assert main(["fsck", str(tmp_path / "store")]) == 0
        assert "store is clean" in capsys.readouterr().out
        assert len(ResultStore(tmp_path / "store").records()) == 1

    def test_check_store_report_names_the_engine(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["check", "--algorithm", "fr", "--topology", "grid", "--nodes", "9",
                     "--store", store]) == 0
        capsys.readouterr()
        assert main(["report", "--store", store]) == 0
        assert "engines  : {'check': 1}" in capsys.readouterr().out

    def test_check_truncated_verdict_is_a_completed_run(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["check", "--algorithm", "fr", "--topology", "grid", "--nodes", "9",
                     "--max-states", "3", "--store", str(store), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "truncated"
        report = json.loads((store / "report.json").read_text())
        assert (report["executed"], report["ok"], report["errors"]) == (1, 1, 0)

    def test_check_store_report_counts_destination_oriented(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        for invariants in ("acyclic,progress", "acyclic"):
            assert main(["check", "--algorithm", "pr", "--topology", "grid", "--nodes", "9",
                         "--invariants", invariants, "--store", store, "--json"]) == 0
            record = json.loads(capsys.readouterr().out)
            assert record["destination_oriented"] is (
                True if "progress" in invariants else None
            )
        assert main(["report", "--store", store]) == 0
        assert ("invariants: 2 ok runs, 2 acyclic, 1 destination oriented, 0 violations"
                in capsys.readouterr().out)

    def test_check_resume_after_interrupt_reuses_partial_store(self, tmp_path, capsys):
        # an interrupted campaign leaves some runs stored; re-running the
        # same set of checks skips those and executes only the missing ones
        store = tmp_path / "store"
        base = ["check", "--topology", "chain", "--store", str(store), "--json"]
        assert main(base + ["--nodes", "5"]) == 0
        capsys.readouterr()
        # "interrupt": the --nodes 6 check never ran.  Re-running the sweep:
        assert main(base + ["--nodes", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["skipped"] is True
        assert main(base + ["--nodes", "6"]) == 0
        assert "skipped" not in json.loads(capsys.readouterr().out)
        from repro.experiments.store import ResultStore

        assert len(ResultStore(str(store)).records()) == 2

    def test_check_symmetry_on_star(self, capsys):
        args = ["check", "--algorithm", "fr", "--topology", "star", "--nodes", "7", "--json"]
        assert main(args) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(args + ["--symmetry"]) == 0
        reduced = json.loads(capsys.readouterr().out)
        assert reduced["symmetry_reduced"] is True
        assert reduced["states_explored"] < plain["states_explored"]
        assert reduced["status"] == "ok"

    def test_check_symmetry_on_wide_signatures(self, capsys):
        # NewPR on a 7-leaf star needs 7 + 16·8 bits: a three-word signature
        args = ["check", "--algorithm", "new-pr", "--topology", "star", "--nodes", "8",
                "--json"]
        assert main(args) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(args + ["--symmetry"]) == 0
        reduced = json.loads(capsys.readouterr().out)
        assert plain["vectorized"] and reduced["vectorized"]
        assert reduced["symmetry_reduced"] and reduced["status"] == "ok"
        assert reduced["states_explored"] < plain["states_explored"]

    def test_check_spill(self, tmp_path, capsys):
        exit_code = main(["check", "--algorithm", "fr", "--topology", "grid", "--nodes", "9",
                          "--spill", "--spill-threshold", "5",
                          "--spill-dir", str(tmp_path / "spill"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["spilled"] is True

    def test_check_truncated_status(self, capsys):
        exit_code = main(["check", "--algorithm", "fr", "--topology", "grid", "--nodes", "9",
                          "--max-states", "3", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["status"] == "truncated"
        assert payload["truncated"] is True

    def test_check_unknown_invariants_rejected(self, capsys):
        exit_code = main(["check", "--invariants", "acyclic,frobnicate"])
        assert exit_code == 2
        assert "unknown invariant" in capsys.readouterr().err

    @pytest.mark.parametrize("switch", [["--workers", "2"], ["--vectorized", "never"]])
    def test_check_has_one_engine(self, switch, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["check", "--algorithm", "fr", "--nodes", "5"] + switch)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("max_states", ["0", "-5"])
    def test_check_max_states_below_one_rejected(self, max_states, capsys):
        exit_code = main(["check", "--algorithm", "fr", "--topology", "tree",
                          "--nodes", "8", "--max-states", max_states])
        assert exit_code == 2
        assert "max_states must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--spill", "--symmetry"])
    def test_check_refused_without_kernel_stores_nothing(self, option, tmp_path, capsys):
        # BLL compiles up to 64 nodes; above that it runs on the reference
        # loop.  The refusal comes before the store opens: a stored refusal
        # would answer for the check without --spill, whose run_id it shares
        store = tmp_path / "store"
        args = ["check", "--algorithm", "bll", "--topology", "chain", "--nodes", "70",
                "--store", str(store)]
        assert main(args + [option]) == 2
        assert "compiled signature kernel" in capsys.readouterr().err
        assert not store.exists()
        assert main(args) == 0
        assert "(exhaustive)" in capsys.readouterr().out

    def test_check_paper_warning_for_fr(self, capsys):
        exit_code = main(["check", "--algorithm", "fr", "--nodes", "5",
                          "--invariants", "paper", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "no paper invariant bundle" in captured.err


class TestSweepAndReport:
    def _sweep(self, store, extra=()):
        return main([
            "sweep", "--families", "chain,random-dag", "--algorithms", "pr,fr",
            "--sizes", "4,6,8,10", "--replicates", "1", "--store", str(store),
            "--quiet", *extra,
        ])

    def test_sweep_then_report(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._sweep(store, ["--json"]) == 0
        sweep_payload = json.loads(capsys.readouterr().out)
        assert sweep_payload["executed"] == 16
        assert sweep_payload["ok"] == 16

        assert main(["report", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert "ordering holds: True" in output
        assert "chain/fr" in output

    def test_sweep_resume_skips(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._sweep(store)
        capsys.readouterr()
        assert self._sweep(store, ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["skipped"] == 16
        assert payload["executed"] == 0

    def test_sweep_with_workers(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._sweep(store, ["--workers", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] == 16
        assert payload["workers"] == 2

    def test_report_json(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._sweep(store)
        capsys.readouterr()
        assert main(["report", "--store", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pr_vs_fr"]["ordering_holds"] is True
        assert payload["invariants"]["violations"] == 0

    def test_sweep_zero_run_cross_product_fails(self, tmp_path, capsys):
        # mobility × non-geometric families expands to nothing: error, not
        # a silently "successful" empty campaign
        exit_code = main([
            "sweep", "--families", "chain", "--failure-model", "mobility",
            "--failure-count", "3", "--store", str(tmp_path / "s"), "--quiet",
        ])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "zero runs" in err
        assert "dropping chain" in err

    @pytest.mark.parametrize("flags", [
        ["--sizes", "0"],
        ["--sizes", "x"],
        ["--families", "nosuch"],
        ["--algorithms", "nosuch"],
        ["--schedulers", "nosuch"],
        ["--node-faults", "-1"],
        ["--chunk-size", "0"],
        ["--chunk-size", "-3"],
        ["--watchdog", "0", "--workers", "2"],
        ["--watchdog", "-1", "--workers", "2"],
        ["--max-retries", "-1", "--workers", "2"],
        ["--replicates", "-1"],
        ["--sizes", "5", "--max-steps", "-1"],
    ])
    def test_sweep_rejects_bad_axis_values_before_opening_a_store(
        self, tmp_path, capsys, flags,
    ):
        store = tmp_path / "store"
        exit_code = main(["sweep", "--store", str(store), "--quiet", *flags])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not store.exists()

    @pytest.mark.parametrize("command", ["sweep", "run"])
    def test_engine_batch_is_gone(self, tmp_path, capsys, command):
        # the kernel engine runs a chunk's runs of one shape in lockstep
        # itself; there is no separate engine name for it
        store = tmp_path / "store"
        extra = ["--store", str(store), "--quiet"] if command == "sweep" else []
        with pytest.raises(SystemExit) as exited:
            main([command, "--engine", "batch", *extra])
        assert exited.value.code == 2
        assert "invalid choice: 'batch'" in capsys.readouterr().err
        assert not store.exists()

    def test_report_empty_store_fails(self, tmp_path, capsys):
        ResultStore(tmp_path / "empty")
        assert main(["report", "--store", str(tmp_path / "empty")]) == 2
        assert "no stored runs" in capsys.readouterr().err

    def test_report_counts_a_copied_shard(self, tmp_path, capsys):
        # the shards are the store: a shard copied in from another store is
        # counted, resumed over and clean at once
        source, target = tmp_path / "a", tmp_path / "b"
        assert self._sweep(source) == 0
        assert self._sweep(target, ["--sizes", "12"]) == 0
        shutil.copy(source / "shards" / "shard-00001.jsonl",
                    target / "shards" / "shard-00101.jsonl")
        capsys.readouterr()
        assert main(["report", "--store", str(target), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status_counts"] == {"ok": 20}
        assert payload["invariants"]["runs"] == 20
        assert self._sweep(target, ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["executed"] == 0
        assert main(["fsck", str(target)]) == 0
        assert "store is clean" in capsys.readouterr().out


class TestReadOnlyStoreCommands:
    """``report``, ``trace`` and ``fsck`` never create a store."""

    COMMANDS = {
        "report": lambda path: ["report", "--store", path],
        "trace": lambda path: ["trace", path],
        "fsck": lambda path: ["fsck", path],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("kind", ["missing", "file", "directory"])
    def test_no_store_is_an_error(self, tmp_path, capsys, command, kind):
        path = tmp_path / "typo"
        if kind == "file":
            path.write_text("not a store")
        elif kind == "directory":
            path.mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main(self.COMMANDS[command](str(path))) == 2
        assert capsys.readouterr().err == f"error: no result store at {path}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_fsck_accepts_an_empty_store(self, tmp_path, capsys):
        ResultStore(tmp_path / "store")
        assert main(["fsck", str(tmp_path / "store")]) == 0
        assert "store is clean" in capsys.readouterr().out
