"""Tests for batch execution: seeding, aggregation, determinism."""

import numpy as np
import pytest

from gramscope.batch import BatchSpec, run_batch, run_trial, trial_seed
from gramscope.estimator import TrialConfig
from gramscope.solver import SolverOptions, solve_trace_min
from gramscope.synth import from_json


def quick_template(**kw):
    base = dict(
        d=1,
        n_states=2,
        n_measurements=2,
        max_augmentations=0,
        solver=SolverOptions(max_iters=10000),
    )
    base.update(kw)
    return TrialConfig(**base)


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(42, 0, 3) == trial_seed(42, 0, 3)

    def test_distinct_across_indices(self):
        seeds = {trial_seed(0, ti, tr) for ti in range(4) for tr in range(25)}
        assert len(seeds) == 100

    def test_distinct_across_masters(self):
        assert trial_seed(0, 0, 0) != trial_seed(1, 0, 0)


class TestBatchSpec:
    def test_from_json(self):
        spec = from_json(
            BatchSpec,
            {
                "templates": [{"d": 1, "n_states": 2, "n_measurements": 2}],
                "trials_per_template": 3,
                "master_seed": 9,
            },
        )
        assert spec.trials_per_template == 3
        assert spec.master_seed == 9
        assert spec.templates[0].d == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BatchSpec(templates=[], trials_per_template=1)
        with pytest.raises(ValueError):
            BatchSpec(templates=[quick_template()], trials_per_template=0)

    def test_rejects_template_that_is_not_a_trial_config(self):
        # a JSON dict belongs in from_json; accepted here, it would fail inside run_batch
        raw = {"d": 2, "n_states": 3, "n_measurements": 3}
        with pytest.raises(ValueError, match=r"^templates\[1\] must be a TrialConfig"):
            BatchSpec([quick_template(), raw], 1)


class TestRunTrial:
    def test_record_fields(self):
        rec = run_trial(quick_template(seed=5))
        for key in (
            "seed",
            "certified",
            "target_rank",
            "augmentations",
            "objective",
            "trace_true",
            "iterations",
            "converged",
            "seconds",
            "max_entry_error",
            "success",
        ):
            assert key in rec
        assert rec["seed"] == 5
        assert rec["certified"] and rec["success"]
        assert rec["solves"] == 1
        assert rec["total_iterations"] == rec["iterations"]

    def test_seconds_cover_every_solve(self, monkeypatch):
        # an augmenting trial's record times the whole trial, not its last solve
        solve_seconds = []

        def spy(prob, options=None):
            g_hat, report = solve_trace_min(prob, options)
            solve_seconds.append(report.seconds)
            return g_hat, report

        monkeypatch.setattr("gramscope.estimator.solve_trace_min", spy)
        cfg = TrialConfig(
            d=2, n_states=5, n_measurements=5, seed=1, state_first=False,
            solver=SolverOptions(max_iters=30000),
        )
        rec = run_trial(cfg)
        assert rec["solves"] == len(solve_seconds) > 1
        assert rec["seconds"] >= sum(solve_seconds)


class TestRunBatch:
    def test_aggregation(self):
        spec = BatchSpec(
            templates=[quick_template()], trials_per_template=4, master_seed=1
        )
        report, records = run_batch(spec)
        assert len(records) == 4
        t = report.templates[0]
        assert t["trials"] == 4
        assert t["successes"] + t["failures"] == 4
        assert t["successes"] == 4  # d = 1 always recovers
        assert t["zero_augmentations"] == 4
        assert t["mean_total_iterations"] == np.mean([r["total_iterations"] for r in records])

    def test_report_is_deterministic(self):
        spec = BatchSpec(
            templates=[quick_template()], trials_per_template=3, master_seed=7
        )
        a, _ = run_batch(spec)
        b, _ = run_batch(spec)
        assert a.to_json() == b.to_json()

    def test_timing_kept_out_of_report(self):
        spec = BatchSpec(templates=[quick_template()], trials_per_template=2)
        report, _ = run_batch(spec)
        assert "seconds" not in str(report.to_json())
        assert "mean_seconds" in report.timing_json()["templates"][0]

    @pytest.mark.parametrize(
        "jobs, trials, pools", [(64, 2, [2]), (4, 1, []), (2, 4, [2]), (3, 2, [2])]
    )
    def test_pool_has_no_more_workers_than_trials(self, monkeypatch, jobs, trials, pools):
        # a process pool forks all its workers at its first task, so a
        # pool larger than the batch forks idle processes; the fake pool
        # records its size and runs the trials in this process
        import concurrent.futures

        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        spec = BatchSpec([quick_template()], trials_per_template=trials, jobs=jobs)
        _, records = run_batch(spec)
        assert len(records) == trials
        assert started == pools

    def test_parallel_matches_serial(self):
        spec_serial = BatchSpec(
            templates=[quick_template()], trials_per_template=4, master_seed=3, jobs=1
        )
        spec_par = BatchSpec(
            templates=[quick_template()], trials_per_template=4, master_seed=3, jobs=2
        )
        calls = {1: [], 2: []}
        a, ra = run_batch(spec_serial, progress=lambda *c: calls[1].append(c))
        b, rb = run_batch(spec_par, progress=lambda *c: calls[2].append(c))
        assert a.to_json() == b.to_json()
        assert calls[1] == calls[2] == [(i, 4) for i in range(1, 5)]
        for x, y in zip(ra, rb):
            assert x["seed"] == y["seed"]
            assert x["objective"] == y["objective"]
