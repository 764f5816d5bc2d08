"""Tests for the command-line interface and its exit codes."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from gramscope.batch import BatchSpec, trial_seed
from gramscope.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from gramscope.estimator import (
    MAX_D,
    GramEstimate,
    Metrics,
    SolveConfig,
    TrialConfig,
    estimate,
)
from gramscope.solver import SolverReport
from gramscope.synth import from_json


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


SYNTH_CFG = {"d": 2, "n_states": 3, "n_measurements": 2, "seed": 0}
EST_CFG = {
    "d": 1,
    "n_states": 2,
    "n_measurements": 2,
    "max_augmentations": 0,
    "solver": {"max_iters": 10000},
}


class TestSynth:
    def test_writes_outputs(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", SYNTH_CFG)
        out = tmp_path / "out"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["ensemble.json", "table.json"]

    def test_config_seed_sets_the_draw(self, tmp_path):
        # the same config gives the same bytes; only its seed changes the draw
        first = write_json(tmp_path / "a.json", SYNTH_CFG)
        other = write_json(tmp_path / "b.json", {**SYNTH_CFG, "seed": 1})
        for cfg, name in ((first, "a"), (other, "b"), (first, "c")):
            assert main(["synth", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        a, b, c = ((tmp_path / name / "table.json").read_bytes() for name in "abc")
        assert a == c
        assert a != b

    def test_config_shots_reach_the_table(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {**SYNTH_CFG, "shots": 10})
        out = tmp_path / "out"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == EXIT_OK
        table = json.loads((out / "table.json").read_text())
        assert table["shots"] == 10
        assert np.array_equal(np.round(np.array(table["values"]) * 10) / 10, table["values"])

    def test_k_mismatch_is_config_error(self, tmp_path):
        # K is d, or the length of degeneracies, so n_outcomes is no trial key
        cfg = write_json(tmp_path / "cfg.json", {**SYNTH_CFG, "n_outcomes": 3})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        # a misspelt mixed_states must not fall back to pure states
        cfg = write_json(tmp_path / "cfg.json", {**SYNTH_CFG, "mixed_state": True})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "mixed_state" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mistyped_value_is_config_error(self, tmp_path, capsys):
        # a float dimension must not be truncated to a d=2 ensemble, and a
        # string flag must not be taken as true
        for obj, key in (
            ({**SYNTH_CFG, "d": 2.5}, "d"),
            ({**SYNTH_CFG, "mixed_states": "no"}, "mixed_states"),
            ({**SYNTH_CFG, "seed": True}, "seed"),
            ({**SYNTH_CFG, "shots": 10.5}, "shots"),
            ({**SYNTH_CFG, "degeneracies": [True, True]}, "degeneracies"),
            ({**SYNTH_CFG, "degeneracies": {"a": 1}}, "degeneracies"),
        ):
            cfg = write_json(tmp_path / "cfg.json", obj)
            assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
            assert key in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_table_is_the_first_table_of_the_trial(self, tmp_path):
        # one trial config drives both commands: synth writes the table the
        # trial starts from, byte for byte
        cfg = write_json(tmp_path / "cfg.json", {**EST_CFG, "d": 2, "shots": 100})
        synth, est = tmp_path / "synth", tmp_path / "est"
        assert main(["synth", "--config", cfg, "--out", str(synth)]) == EXIT_OK
        assert main(["estimate", "--config", cfg, "--out", str(est)]) == EXIT_OK
        assert (synth / "table.json").read_bytes() == (est / "table.json").read_bytes()

    def test_malformed_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_config_is_io_error(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["synth", "--config", missing, "--out", str(tmp_path / "o")]) == EXIT_IO


class TestEstimate:
    def test_trial_roundtrip(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", EST_CFG)
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        result = json.loads((out / "estimate.json").read_text())
        assert result["certified"]
        assert result["target_rank"] == 1
        assert result["success"]
        assert result["solves"] == result["augmentations"] + 1
        assert result["total_iterations"] >= result["iterations"]

    def test_dump_writes_artifacts(self, tmp_path):
        # every trial writes its estimate, ground truth and table; there is
        # no flag to ask for them
        cfg = write_json(tmp_path / "cfg.json", EST_CFG)
        out = tmp_path / "out"
        with pytest.raises(SystemExit):
            main(["estimate", "--config", cfg, "--out", str(out), "--dump"])
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for name in ("g_hat.json", "ground_truth.json", "table.json"):
            assert (out / name).exists()
        assert json.loads((out / "table.json").read_text())["shots"] is None

        # a finite-shot trial dumps the frequencies it solved, not the
        # Born probabilities of the ground truth
        shots_cfg = {**EST_CFG, "d": 2, "shots": 100, "solver": {"max_iters": 200}}
        cfg = write_json(tmp_path / "shots.json", shots_cfg)
        out = tmp_path / "shots"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        table = json.loads((out / "table.json").read_text())
        assert table["shots"] == 100
        est, _ = estimate(from_json(TrialConfig, shots_cfg))
        assert np.array_equal(np.array(table["values"]), est.table.values)
        assert np.array_equal(np.round(est.table.values * 100) / 100, est.table.values)

    def test_from_recorded_data(self, tmp_path):
        synth_cfg = write_json(tmp_path / "s.json", {**SYNTH_CFG, "n_states": 10, "n_measurements": 10})
        data = tmp_path / "data"
        assert main(["synth", "--config", synth_cfg, "--out", str(data)]) == EXIT_OK
        est_cfg = write_json(
            tmp_path / "e.json",
            {"d": 2, "data": str(data), "solver": {"max_iters": 20000}},
        )
        out = tmp_path / "out"
        assert main(["estimate", "--config", est_cfg, "--out", str(out)]) == EXIT_OK
        result = json.loads((out / "estimate.json").read_text())
        assert result["target_rank"] == 4
        assert result["solves"] == 1
        assert result["total_iterations"] == result["iterations"]
        assert (out / "g_hat.json").exists() and not (out / "ground_truth.json").exists()
        assert (out / "table.json").read_bytes() == (data / "table.json").read_bytes()
        # a table has no ground truth, but the tail that decided its
        # certificate is recorded (this converged solve is not certified)
        assert result["augmentations"] == 0 and result["success"] is None
        assert isinstance(result["rank_tail"], float) and result["converged"]
        assert result["certified"] == (result["rank_tail"] <= SolveConfig(d=2).tau)

    def test_recorded_certificate_carries_its_tail(self, tmp_path):
        synth_cfg = write_json(tmp_path / "s.json", {**SYNTH_CFG, "n_states": 16, "n_measurements": 16})
        data = tmp_path / "data"
        assert main(["synth", "--config", synth_cfg, "--out", str(data)]) == EXIT_OK
        est_cfg = write_json(tmp_path / "e.json", {"d": 2, "data": str(data)})
        assert main(["estimate", "--config", est_cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        result = json.loads((tmp_path / "out" / "estimate.json").read_text())
        assert result["certified"] is True and result["target_rank"] == 4
        assert isinstance(result["rank_tail"], float)
        assert result["rank_tail"] <= SolveConfig(d=2).tau

    def test_recorded_states_are_declared_pure_by_default(self, tmp_path):
        # the d=2 (5,5) seed-7 table: its trace minimum meets every pin, but
        # its state diagonal is off 1 by about 0.28, so the default purity
        # declaration refuses the certificate the rank tail alone would give
        synth_cfg = write_json(
            tmp_path / "s.json", {"d": 2, "n_states": 5, "n_measurements": 5, "seed": 7}
        )
        data = tmp_path / "data"
        assert main(["synth", "--config", synth_cfg, "--out", str(data)]) == EXIT_OK
        results = {}
        for key, extra in (("default", {}), ("undeclared", {"pure_states": False})):
            est_cfg = write_json(tmp_path / "e.json", {"d": 2, "data": str(data), **extra})
            out = tmp_path / key
            assert main(["estimate", "--config", est_cfg, "--out", str(out)]) == EXIT_OK
            results[key] = json.loads((out / "estimate.json").read_text())
        assert results["default"]["certified"] is False
        assert results["default"]["purity_residual"] > 0.2
        assert results["undeclared"]["certified"] is True
        assert results["undeclared"]["purity_residual"] is None

    def test_record_is_the_scalar_fields(self, tmp_path):
        # estimate.json is flat: the scalar fields of the estimate, of its
        # last solve's report but the wall time, and of its metrics; with
        # no wall time in it, one config writes the same bytes every run
        cfg = write_json(tmp_path / "t.json", EST_CFG)
        for name in ("a", "b"):
            assert main(["estimate", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        trial = (tmp_path / "a" / "estimate.json").read_bytes()
        assert trial == (tmp_path / "b" / "estimate.json").read_bytes()

        recorded = {"d": 2, "data": str(self._recorded(tmp_path))}
        cfg = write_json(tmp_path / "e.json", recorded)
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "c")]) == EXIT_OK
        table = json.loads((tmp_path / "c" / "estimate.json").read_text())
        assert set(table) == set(json.loads(trial))

        kinds = ("bool", "int", "float", "str")
        scalars = {kind + none for kind in kinds for none in ("", " | None")}
        expected = {f.name for f in fields(GramEstimate) if f.type in scalars}
        expected |= {f.name for f in fields(SolverReport) if f.name != "seconds"}
        expected |= {f.name for f in fields(Metrics)}
        assert set(table) == expected

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        # a misspelt key must not fall back to a default, on either path;
        # K is d, or the length of degeneracies, so n_outcomes is no trial key,
        # and the ADMM step has no over-relaxation, so alpha is no solver key
        trial = {**EST_CFG, "bogus": 1}
        outcomes = {**EST_CFG, "n_outcomes": 3}
        alpha = {**EST_CFG, "solver": {"alpha": 1.5}}
        recorded = {"d": 2, "data": str(self._recorded(tmp_path)), "epsilom": 0.05}
        for obj, key in (
            (trial, "bogus"),
            (outcomes, "n_outcomes"),
            (alpha, "alpha"),
            (recorded, "epsilom"),
        ):
            cfg = write_json(tmp_path / "cfg.json", obj)
            assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
            assert key in capsys.readouterr().err

    def test_mistyped_value_is_config_error(self, tmp_path, capsys):
        # a float count must not reach numpy, and a string flag must not
        # be taken as true
        for obj, key in (
            ({**EST_CFG, "d": 2.5}, "d"),
            ({**EST_CFG, "solver": {"max_iters": 50.5}}, "max_iters"),
            ({**EST_CFG, "state_first": "no"}, "state_first"),
            ({**EST_CFG, "seed": True}, "seed"),
            ({**EST_CFG, "seed": -1}, "seed"),
            ({**EST_CFG, "tau": "1e-4"}, "tau"),
        ):
            cfg = write_json(tmp_path / "cfg.json", obj)
            assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
            assert key in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def _recorded(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--config", write_json(tmp_path / "s.json", SYNTH_CFG),
                     "--out", str(data)]) == EXIT_OK
        return data

    def test_from_data_unknown_solver_key_is_config_error(self, tmp_path, capsys):
        data = self._recorded(tmp_path)
        cfg = write_json(
            tmp_path / "e.json", {"d": 2, "data": str(data), "solver": {"max_iterz": 10}}
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "max_iterz" in capsys.readouterr().err

    def test_from_data_mistyped_value_is_config_error(self, tmp_path, capsys):
        # the data path must not truncate a float d or take true as tau = 1
        data = str(self._recorded(tmp_path))
        for obj, key in (
            ({"d": 2.5, "data": data}, "d"),
            ({"d": 2, "data": data, "tau": True}, "tau"),
            ({"d": 2, "data": data, "epsilon": "0.1"}, "epsilon"),
            ({"d": 2, "data": data, "degeneracies": {"a": 1}}, "degeneracies"),
            ({"d": 2, "data": data, "degeneracies": [[1, 1], [1, 1]]}, "degeneracies"),
        ):
            cfg = write_json(tmp_path / "e.json", obj)
            assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
            assert key in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_from_data_invalid_table_is_config_error(self, tmp_path, capsys):
        data = self._recorded(tmp_path)
        recorded = json.loads((data / "table.json").read_text())
        row_sums = [[0.9] * 4 for _ in recorded["values"]]  # row sums 1.8
        first, *rest = recorded["values"]
        nan_cell = [[np.nan, *first[1:]], *rest]
        null_cell = [[None, *first[1:]], *rest]
        str_cells = [[str(x) for x in first], *rest]
        for key, value, message in (
            ("values", row_sums, "do not sum to 1"),
            ("values", nan_cell, "finite"),
            ("values", null_cell, "values[0][0] must be a finite real number, got None"),
            ("n_states", 3.7, "n_states"),
            ("n_outcomes", 2.0, "n_outcomes"),
            ("shots", True, "shots"),
            ("shots", -5, "shots"),
            ("shots", 0, "shots"),
            ("values", str_cells, "values[0][0] must be a finite real number, got '"),
        ):
            write_json(data / "table.json", {**recorded, key: value})
            cfg = write_json(tmp_path / "e.json", {"d": 2, "data": str(data)})
            assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
            assert message in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path", ["trial", "data"])
    def test_solver_not_an_object_is_config_error(self, tmp_path, capsys, path):
        # a null solver must not fall back to the defaults
        base = EST_CFG if path == "trial" else {"d": 2, "data": str(self._recorded(tmp_path))}
        cfg = write_json(tmp_path / "e.json", {**base, "solver": None})
        out = tmp_path / "o"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "solver" in capsys.readouterr().err.lower()
        assert not out.exists()

    def test_error_inside_solve_is_not_config_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bug inside the solver")

        monkeypatch.setattr("gramscope.estimator.solve_trace_min", broken)
        trial = write_json(tmp_path / "cfg.json", EST_CFG)
        recorded = write_json(tmp_path / "e.json", {"d": 2, "data": str(self._recorded(tmp_path))})
        for cfg in (trial, recorded):
            with pytest.raises(ValueError, match="bug inside the solver"):
                main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")])


class TestBatch:
    BATCH_CFG = {
        "templates": [EST_CFG],
        "trials_per_template": 2,
        "master_seed": 5,
    }

    def test_writes_reports(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", self.BATCH_CFG)
        out = tmp_path / "out"
        assert main(["batch", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["master_seed"] == 5
        assert report["templates"][0]["successes"] == 2
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "timing.json", "trials"]
        trials = sorted((out / "trials").iterdir())
        assert len(trials) == 2

    def test_report_byte_identical_across_runs(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", self.BATCH_CFG)
        main(["batch", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["batch", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_trial_record_is_the_estimate_record(self, tmp_path):
        # the library (run_trial), batch and CLI write one record: a trial
        # of the batch re-run by `estimate` at its seed matches it but for
        # the trial's seed and wall time (trial 0 grows twice, trial 1 not)
        template = {"d": 2, "n_states": 3, "n_measurements": 3, "shots": 10**4,
                    "epsilon": 0.01, "tau": 1e-2, "max_augmentations": 2}
        spec = {"templates": [template], "trials_per_template": 2, "master_seed": 5}
        batch = tmp_path / "batch"
        assert main(["batch", "--config", write_json(tmp_path / "b.json", spec),
                     "--out", str(batch)]) == EXIT_OK
        for k in range(2):
            trial = {**template, "seed": trial_seed(5, 0, k)}
            out = tmp_path / f"est{k}"
            assert main(["estimate", "--config", write_json(tmp_path / "t.json", trial),
                         "--out", str(out)]) == EXIT_OK
            record = json.loads((batch / "trials" / f"template0_trial00{k}.json").read_text())
            assert record.pop("seed") == trial["seed"] and record.pop("seconds") > 0
            assert json.loads((out / "estimate.json").read_text()) == record
            assert record["augmentations"] == 2 - 2 * k

    def test_bad_spec_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"templates": []})
        assert main(["batch", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        # a misspelt "jobs" must not run the batch serially and succeed, and
        # a "seed" key is no batch key: master_seed is the batch's one seed
        with pytest.raises(ValueError, match="job"):
            from_json(BatchSpec, {**self.BATCH_CFG, "job": 4})
        no_master = {"templates": [EST_CFG], "trials_per_template": 1, "seed": 7}
        for obj, key in (
            ({**self.BATCH_CFG, "job": 4}, "job"),
            (no_master, "seed"),
            ({**self.BATCH_CFG, "master_seed": 3, "seed": 7}, "seed"),
        ):
            cfg = write_json(tmp_path / "cfg.json", obj)
            assert main(["batch", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
            assert key in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_error_in_a_template_names_its_place(self, tmp_path, capsys):
        template = {**EST_CFG, "solver": {"max_iters": True}}
        misspelt = {**EST_CFG, "nstates": 2}
        no_states = {k: v for k, v in EST_CFG.items() if k != "n_states"}
        for obj, place in (
            ({**self.BATCH_CFG, "templates": [EST_CFG, misspelt]}, "templates[1]: unknown"),
            ({**self.BATCH_CFG, "templates": [template]}, "templates[0].solver: max_iters"),
            (
                {**self.BATCH_CFG, "templates": [EST_CFG, no_states]},
                "templates[1]: missing TrialConfig key(s): ['n_states']",
            ),
        ):
            cfg = write_json(tmp_path / "cfg.json", obj)
            assert main(["batch", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
            assert place in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_mistyped_value_is_config_error(self, tmp_path, capsys):
        # a float trial count must not be truncated, a flag must not be
        # taken as one job, and a float seed must not be truncated
        for key, value in (
            ("trials_per_template", 1.7),
            ("jobs", True),
            ("master_seed", 2.9),
            ("master_seed", -1),
        ):
            cfg = write_json(tmp_path / "cfg.json", {**self.BATCH_CFG, key: value})
            assert main(["batch", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
            assert key in capsys.readouterr().err
            assert not (tmp_path / "o").exists()


class TestCheckTheory:
    def test_passes_and_prints(self, capsys):
        assert main(["check-theory", "--n", "3", "--trials", "30", "--seed", "0"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.endswith("pass") for line in lines)
        assert lines[-1] == "rigidity_frontier: pass"

    def test_large_n_is_config_error(self):
        assert main(["check-theory", "--n", "9", "--trials", "5"]) == EXIT_CONFIG

    @pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "-1"], ["--seed", "-1"]])
    def test_bad_trials_or_seed_is_config_error(self, flags, capsys):
        # --trials 0 would print "pass" without checking anything
        assert main(["check-theory", "--n", "3", *flags]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_error_inside_a_check_is_no_config_error(self, monkeypatch):
        # only the settings are config errors; a check that raises is a
        # program error, which leaves main as a traceback (exit 1)
        def broken(*args, **kwargs):
            raise ValueError("broken check")

        monkeypatch.setattr("gramscope.theory.check_norm_bound", broken)
        with pytest.raises(ValueError, match="broken check"):
            main(["check-theory", "--n", "3", "--trials", "5"])


@pytest.mark.parametrize("command", ["synth", "estimate", "batch"])
def test_config_not_utf8_is_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe\x00")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert str(cfg) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "estimate"])
def test_shots_beyond_a_c_long_are_config_error(tmp_path, capsys, command):
    # numpy's multinomial takes the shot count as a C long: a larger count
    # is the config's error, not an OverflowError inside the draw
    out = tmp_path / "o"
    for shots in (10**29, 2**63):
        cfg = write_json(tmp_path / "cfg.json", {**SYNTH_CFG, "shots": shots})
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "shots must be in [1, 2**63 - 1]" in capsys.readouterr().err
        assert not out.exists()
    cfg = write_json(tmp_path / "cfg.json", {**SYNTH_CFG, "shots": 2**63 - 1})
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "table.json").read_text())["shots"] == 2**63 - 1


def test_d_beyond_its_bound_is_config_error(tmp_path, capsys):
    # a huge d must not reach `[1] * d` (an OverflowError) or an allocation
    # of 16 * d**4 bytes in herm_basis
    out = tmp_path / "o"
    for d in (10**30, MAX_D + 1):
        cfg = write_json(tmp_path / "cfg.json", {**SYNTH_CFG, "d": d})
        assert main(["synth", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"d must be <= {MAX_D}, got {d}" in capsys.readouterr().err
        assert not out.exists()
    assert from_json(TrialConfig, {**SYNTH_CFG, "d": MAX_D}).d == MAX_D


@pytest.mark.parametrize("command", ["synth", "estimate", "batch"])
@pytest.mark.parametrize("obj", ["data", [1], 3, None], ids=["string", "list", "number", "null"])
def test_config_not_an_object_is_config_error(tmp_path, capsys, command, obj):
    # a JSON string "data" must not pass `"data" in cfg` as a substring test
    cfg = write_json(tmp_path / "cfg.json", obj)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "estimate", "batch"])
def test_run_commands_take_only_config_and_out(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--help", "--config", "--out"}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("synth", "--seed", "1"),
        ("synth", "--shots", "10"),
        ("estimate", "--seed", "1"),
        ("estimate", "--shots", "10"),
        ("estimate", "--epsilon", "0.1"),
        ("estimate", "--tau", "0.1"),
        ("estimate", "--max-iters", "10"),
        ("estimate", "--tol", "1e-6"),
        ("batch", "--seed", "1"),
        ("batch", "--jobs", "2"),
    ],
)
def test_settings_flags_are_parser_errors(tmp_path, command, flag, value):
    # the config is a run's only settings; check-theory, which reads no
    # config, keeps --n, --trials and --seed (TestCheckTheory runs them)
    cfg = write_json(tmp_path / "cfg.json", SYNTH_CFG)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(out), flag, value])
    assert exc.value.code == EXIT_CONFIG
    assert not out.exists()
