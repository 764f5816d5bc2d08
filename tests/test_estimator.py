"""Tests for the full estimation loop, metrics, and gauge-fixed factors."""

from dataclasses import replace

import numpy as np
import pytest

from gramscope.estimator import (
    GramEstimate,
    TrialConfig,
    born_table,
    estimate,
    evaluate,
    factor,
    gauge_distance,
    solve_table,
    trial_config_from_json,
)
from gramscope.gram import GramMatrix, gram, realize
from gramscope.solver import SolverOptions
from gramscope.synth import sample_ensemble


class TestTrialConfig:
    def test_defaults(self):
        cfg = TrialConfig(d=2, n_states=5, n_measurements=5)
        assert cfg.max_augmentations == 20
        assert cfg.tau == 1e-4
        assert cfg.shots is None

    def test_from_json_with_solver(self):
        cfg = trial_config_from_json(
            {"d": 2, "n_states": 3, "n_measurements": 4, "solver": {"max_iters": 50}}
        )
        assert cfg.solver.max_iters == 50
        assert cfg.n_measurements == 4

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            trial_config_from_json({"d": 2, "n_states": 3, "n_measurements": 4, "nstates": 1})

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrialConfig(d=0, n_states=1, n_measurements=1)
        with pytest.raises(ValueError):
            TrialConfig(d=2, n_states=1, n_measurements=1, shots=0)
        with pytest.raises(ValueError):
            TrialConfig(d=2, n_states=1, n_measurements=1, epsilon=-0.1)


class TestEstimateTrivial:
    def test_d1_certifies_immediately(self):
        # d = 1: every state and effect is the scalar 1, the Gram matrix is
        # all ones and the data pins the whole off-diagonal block
        cfg = TrialConfig(d=1, n_states=2, n_measurements=2,
                         solver=SolverOptions(max_iters=20000))
        est, truth = estimate(cfg)
        assert est.certified
        assert est.target_rank == 1
        assert est.augmentations == 0
        m = evaluate(est, truth)
        assert m.success
        assert m.max_entry_error < 1e-5

    def test_rejects_k_neq_d(self):
        # trials measure with K = d outcomes, so n_outcomes is no trial key
        with pytest.raises(ValueError, match="n_outcomes"):
            trial_config_from_json({"d": 2, "n_states": 2, "n_measurements": 2, "n_outcomes": 3})


class TestEstimateEndToEnd:
    def test_d2_augmentation_until_certified(self):
        # small start point: the first solve is underdetermined, the loop
        # has to grow the ensemble before the rank certificate passes
        cfg = TrialConfig(
            d=2,
            n_states=5,
            n_measurements=5,
            seed=1,
            state_first=False,
            solver=SolverOptions(max_iters=30000),
        )
        est, truth = estimate(cfg)
        assert est.certified
        assert est.augmentations > 0
        assert est.target_rank == 4
        m = evaluate(est, truth)
        assert m.success
        assert m.max_entry_error < 1e-5
        assert est.factor_matrix is not None
        assert est.factor_matrix.shape == (4, est.g_hat.n)
        # the factor reproduces the estimated Gram matrix
        recon = est.factor_matrix.T @ est.factor_matrix
        assert np.max(np.abs(recon - est.g_hat.values)) < 1e-3

    def test_budget_exhaustion_reports_not_raises(self):
        cfg = TrialConfig(
            d=2,
            n_states=5,
            n_measurements=5,
            seed=0,
            max_augmentations=0,
            solver=SolverOptions(max_iters=4000),
        )
        est, _ = estimate(cfg)
        assert not est.certified
        assert est.augmentations == 0
        assert est.factor_matrix is None

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_unconverged_solve_is_not_certified_and_ends_trial(self, seed):
        # criterion-9 trials cut at 20 iterations: the singular-value tail
        # alone passes at 0 augmentations for seeds 1 and 3, after 2 for seed 0
        cfg = TrialConfig(
            d=2,
            n_states=5,
            n_measurements=5,
            seed=seed,
            shots=10**6,
            epsilon=5e-3,
            tau=1e-2,
            state_first=False,
            solver=SolverOptions(max_iters=20),
        )
        est, _ = estimate(cfg)
        assert not est.report.converged
        assert not est.certified
        assert est.augmentations == 0
        assert est.factor_matrix is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_augmented_mixed_trial_stays_mixed(self, seed):
        # an added state is drawn like the trial's others
        cfg = TrialConfig(
            d=2,
            n_states=3,
            n_measurements=3,
            seed=seed,
            mixed_states=True,
            max_augmentations=4,
            solver=SolverOptions(max_iters=3000),
        )
        est, ens = estimate(cfg)
        assert est.augmentations >= 1
        assert ens.n_states > cfg.n_states
        for rho in ens.states:
            assert np.trace(rho @ rho).real < 1 - 1e-6

    def test_same_seed_same_result(self):
        cfg = TrialConfig(
            d=2,
            n_states=4,
            n_measurements=4,
            seed=7,
            max_augmentations=0,
            solver=SolverOptions(max_iters=3000),
        )
        a, _ = estimate(cfg)
        b, _ = estimate(cfg)
        assert np.array_equal(a.g_hat.values, b.g_hat.values)

    def test_finite_shots_with_relaxation(self):
        cfg = TrialConfig(
            d=2,
            n_states=4,
            n_measurements=4,
            seed=3,
            shots=2000,
            epsilon=0.05,
            max_augmentations=0,
            solver=SolverOptions(max_iters=5000),
        )
        est, truth = estimate(cfg)
        m = evaluate(est, truth)
        # no certification expected at this size; the data block must still
        # be reproduced within the interval width plus sampling noise
        assert m.data_block_error < 0.2

    @pytest.mark.parametrize(
        "cfg",
        [
            TrialConfig(
                d=2, n_states=5, n_measurements=5, seed=1, state_first=False,
                solver=SolverOptions(max_iters=30000),
            ),
            TrialConfig(
                d=2, n_states=5, n_measurements=5, seed=0, shots=10**6,
                epsilon=5e-3, tau=1e-2, state_first=False,
                solver=SolverOptions(max_iters=40_000),
            ),
        ],
        ids=["asymptotic", "finite_shot"],
    )
    def test_augmented_trial_is_a_solve_of_its_final_table(self, cfg):
        # every solve starts cold, so a grown trial's estimate is bit for
        # bit the one-shot solve of its final table, as the CLI's data
        # path runs it
        est, _ = estimate(cfg)
        assert est.augmentations > 0
        again = solve_table(
            est.table, cfg.d, epsilon=cfg.epsilon, tau=cfg.tau, solver=cfg.solver
        )
        assert np.array_equal(est.g_hat.values, again.g_hat.values)
        assert est.certified == again.certified

    def test_epsilon_applies_without_shots(self):
        # epsilon widens the pins of an asymptotic trial as it widens those
        # of a recorded table
        cfg = TrialConfig(
            d=2, n_states=4, n_measurements=4, seed=2, epsilon=0.05,
            max_augmentations=0, solver=SolverOptions(max_iters=3000),
        )
        est, _ = estimate(cfg)
        again = solve_table(est.table, 2, epsilon=0.05, solver=cfg.solver)
        assert np.array_equal(est.g_hat.values, again.g_hat.values)
        exact = solve_table(est.table, 2, solver=cfg.solver)
        assert not np.array_equal(est.g_hat.values, exact.g_hat.values)

    @pytest.mark.parametrize("tau", [0.0, -1e-4])
    def test_solve_table_rejects_tau_before_solving(self, tau, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solve_trace_min ran before tau was checked")

        monkeypatch.setattr("gramscope.estimator.solve_trace_min", never)
        table = born_table(sample_ensemble(2, 5, 5, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="tau must be > 0"):
            solve_table(table, 2, tau=tau)

    def test_solve_table_gets_only_checked_tables(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solve_trace_min ran on an invalid table")

        monkeypatch.setattr("gramscope.estimator.solve_trace_min", never)
        table = born_table(sample_ensemble(2, 5, 5, np.random.default_rng(0)))
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            solve_table(replace(table, values=2 * table.values), 2)

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("shots", [None, 1000, 10**6])
    def test_table_matches_synth(self, shots, mixed):
        # the trial's first table is the one `gramscope synth` builds from
        # the same draws: the ensemble, then the multinomials state by state
        for seed in range(10):
            cfg = TrialConfig(
                d=2,
                n_states=4,
                n_measurements=3,
                seed=seed,
                shots=shots,
                mixed_states=mixed,
                max_augmentations=0,
                solver=SolverOptions(max_iters=1),
            )
            est, _ = estimate(cfg)
            rng = np.random.default_rng(seed)
            ens = sample_ensemble(2, 4, 3, rng, mixed=mixed)
            table = born_table(ens, shots, rng)
            assert np.array_equal(est.table.values, table.values)


class TestEvaluate:
    @pytest.mark.parametrize(
        "cfg",
        [
            TrialConfig(
                d=2, n_states=5, n_measurements=5, seed=0, shots=10**6,
                epsilon=5e-3, tau=1e-2, state_first=False,
                solver=SolverOptions(max_iters=40_000),
            ),
            TrialConfig(
                d=2, n_states=5, n_measurements=5, seed=0, max_augmentations=0,
                solver=SolverOptions(max_iters=4000),
            ),
        ],
        ids=["certified_after_augmenting", "uncertified"],
    )
    def test_estimate_is_decomposed_once(self, cfg, monkeypatch):
        # the certificate, the factor and the metrics all read one spectrum
        # of G_hat: from the last solve's return to the end of evaluate,
        # numpy decomposes exactly one matrix, once, and never by SVD
        import gramscope.estimator as estimator

        calls = []
        solve = estimator.solve_trace_min

        def solve_then_watch(*args, **kwargs):
            out = solve(*args, **kwargs)
            calls.clear()
            return out

        def watch(name, fn):
            def wrapped(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(estimator, "solve_trace_min", solve_then_watch)
        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, watch(name, getattr(np.linalg, name)))
        est, truth = estimate(cfg)
        evaluate(est, truth)
        assert (est.factor_matrix is not None) == (cfg.shots is not None)
        assert calls == [("eigh", (est.g_hat.n, est.g_hat.n))]

    def test_perfect_estimate_scores_zero(self):
        ens = sample_ensemble(2, 3, 3, np.random.default_rng(0))
        g = gram(ens)
        est = GramEstimate(
            g_hat=g, certified=True, target_rank=4, augmentations=0, report=None
        )
        m = evaluate(est, ens)
        assert m.max_entry_error == 0.0
        assert m.frobenius_error == 0.0
        assert m.success

    def test_size_mismatch_rejected(self):
        ens = sample_ensemble(2, 3, 3, np.random.default_rng(1))
        g = gram(ens)
        small = sample_ensemble(2, 2, 2, np.random.default_rng(2))
        est = GramEstimate(
            g_hat=g, certified=True, target_rank=4, augmentations=0, report=None
        )
        with pytest.raises(ValueError):
            evaluate(est, small)


class TestFactorAndGauge:
    def test_factor_roundtrip(self):
        ens = sample_ensemble(2, 4, 4, np.random.default_rng(3))
        g = gram(ens)
        p = factor(g, 4)
        assert p.shape == (4, g.n)
        assert np.max(np.abs(p.T @ p - g.values)) < 1e-9

    def test_gauge_distance_zero_for_rotated_factor(self):
        rng = np.random.default_rng(4)
        ens = sample_ensemble(2, 4, 4, rng)
        g = gram(ens)
        p = factor(g, 4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert gauge_distance(q @ p, p) < 1e-8

    def test_gauge_distance_detects_difference(self):
        rng = np.random.default_rng(5)
        a = gram(sample_ensemble(2, 4, 4, rng))
        b = gram(sample_ensemble(2, 4, 4, rng))
        assert gauge_distance(factor(a, 4), factor(b, 4)) > 1e-2

    def test_factor_true_vs_recovered_gauge(self):
        # a certified estimate and the ground-truth realization agree up to
        # an orthogonal gauge
        cfg = TrialConfig(
            d=1, n_states=3, n_measurements=2, solver=SolverOptions(max_iters=20000)
        )
        est, truth = estimate(cfg)
        assert est.certified
        p_true = realize(truth)
        assert gauge_distance(est.factor_matrix, p_true) < 1e-4

    def test_factor_rejects_bad_rank(self):
        g = GramMatrix(values=np.eye(3), n_states=1)
        with pytest.raises(ValueError):
            factor(g, 0)
        with pytest.raises(ValueError):
            factor(g, 4)

    def test_factor_rejects_indefinite(self):
        g = GramMatrix(values=np.diag([-1.0, -2.0]), n_states=1)
        with pytest.raises(ValueError):
            factor(g, 1)

    def test_gauge_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            gauge_distance(np.zeros((2, 3)), np.zeros((3, 2)))
