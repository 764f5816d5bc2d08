"""Tests for the full estimation loop, metrics, and gauge-fixed factors."""

from dataclasses import replace

import numpy as np
import pytest

from gramscope.estimator import (
    GramEstimate,
    SolveConfig,
    TrialConfig,
    born_table,
    estimate,
    estimate_record,
    evaluate,
    factor,
    gauge_distance,
    solve_table,
)
from gramscope.gram import GramMatrix, gram, realize
from gramscope.solver import SolverOptions, SolverReport, solve_trace_min
from gramscope.synth import Ensemble, from_json, sample_ensemble


class TestTrialConfig:
    def test_defaults(self):
        cfg = TrialConfig(d=2, n_states=5, n_measurements=5)
        assert cfg.max_augmentations == 20
        assert cfg.tau == 1e-4
        assert cfg.shots is None

    def test_from_json_with_solver(self):
        cfg = from_json(
            TrialConfig, {"d": 2, "n_states": 3, "n_measurements": 4, "solver": {"max_iters": 50}}
        )
        assert cfg.solver.max_iters == 50
        assert cfg.n_measurements == 4

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            from_json(TrialConfig, {"d": 2, "n_states": 3, "n_measurements": 4, "nstates": 1})

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrialConfig(d=0, n_states=1, n_measurements=1)
        with pytest.raises(ValueError):
            TrialConfig(d=2, n_states=1, n_measurements=1, shots=0)
        with pytest.raises(ValueError):
            TrialConfig(d=2, n_states=1, n_measurements=1, epsilon=-0.1)
        with pytest.raises(ValueError, match="degeneracy"):
            TrialConfig(d=3, n_states=1, n_measurements=1, degeneracies=[2, 2])

    def test_states_are_pure_unless_mixed(self):
        # a trial knows its states, so purity is read off mixed_states and
        # is no key of its own; bare solve settings declare nothing
        assert TrialConfig(d=2, n_states=1, n_measurements=1).pure_states
        assert not TrialConfig(d=2, n_states=1, n_measurements=1, mixed_states=True).pure_states
        assert not SolveConfig(d=2).pure_states
        with pytest.raises(ValueError, match=r"unknown TrialConfig key\(s\): \['pure_states'\]"):
            from_json(TrialConfig, {"d": 2, "n_states": 1, "n_measurements": 1, "pure_states": True})


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
        # K is d, or the length of degeneracies, so n_outcomes is no trial key
        with pytest.raises(ValueError, match="n_outcomes"):
            from_json(TrialConfig, {"d": 2, "n_states": 2, "n_measurements": 2, "n_outcomes": 3})


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

    def test_trial_counts_every_solve(self, monkeypatch):
        # the measurement-first trial above augments: its record counts the
        # iterations of every solve, not only the last one's
        iterations = []

        def spy(prob, options=None):
            g_hat, report = solve_trace_min(prob, options)
            iterations.append(report.iterations)
            return g_hat, report

        monkeypatch.setattr("gramscope.estimator.solve_trace_min", spy)
        cfg = TrialConfig(
            d=2, n_states=5, n_measurements=5, seed=1, state_first=False,
            solver=SolverOptions(max_iters=30000),
        )
        est, _ = estimate(cfg)
        assert est.augmentations > 0
        assert est.solves == est.augmentations + 1 == len(iterations)
        assert est.total_iterations == sum(iterations)
        assert est.report.iterations == iterations[-1]
        one = solve_table(est.table, cfg)
        assert (one.solves, one.total_iterations) == (1, one.report.iterations)

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
        # bit the one-shot solve of its final table under the trial config
        # itself, as the CLI's data path runs it
        est, _ = estimate(cfg)
        assert est.augmentations > 0
        again = solve_table(est.table, cfg)
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
        again = solve_table(est.table, cfg)
        assert np.array_equal(est.g_hat.values, again.g_hat.values)
        exact = solve_table(est.table, replace(cfg, epsilon=0.0))
        assert not np.array_equal(est.g_hat.values, exact.g_hat.values)

    @pytest.mark.parametrize("tau", [0.0, -1e-4])
    def test_solve_table_rejects_tau_before_solving(self, tau, monkeypatch):
        # solve_table takes a checked SolveConfig, which rejects tau itself
        def never(*args, **kwargs):
            raise AssertionError("solve_trace_min ran before tau was checked")

        monkeypatch.setattr("gramscope.estimator.solve_trace_min", never)
        table = born_table(sample_ensemble(2, 5, 5, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="tau must be > 0"):
            solve_table(table, SolveConfig(d=2, tau=tau))

    def test_solve_table_gets_only_checked_tables(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("solve_trace_min ran on an invalid table")

        monkeypatch.setattr("gramscope.estimator.solve_trace_min", never)
        table = born_table(sample_ensemble(2, 5, 5, np.random.default_rng(0)))
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            solve_table(replace(table, values=2 * table.values), SolveConfig(d=2))

    def test_degenerate_trial_shares_one_pattern(self, monkeypatch):
        # every measurement, the added one too, has the [2, 1] pattern: K = 2
        # outcomes and diag(2, 1) pins on its block (no recovery asserted)
        solved = []

        def spy(prob, options=None):
            solved.append(prob.knowledge)
            return solve_trace_min(prob, options)

        monkeypatch.setattr("gramscope.estimator.solve_trace_min", spy)
        cfg = TrialConfig(
            d=3, n_states=3, n_measurements=3, degeneracies=[2, 1], state_first=False,
            max_augmentations=1, solver=SolverOptions(max_iters=300),
        )
        est, ens = estimate(cfg)
        assert est.augmentations == 1
        assert ens.n_measurements == est.table.n_measurements == 4
        assert est.table.n_outcomes == 2
        kn = solved[-1]
        block = {(int(i), int(j)): lo for i, j, lo, _ in kn.constraints if i >= kn.split}
        expected = {}
        for v in range(4):
            base = kn.split + 2 * v
            expected.update({(base, base): 2.0, (base, base + 1): 0.0, (base + 1, base + 1): 1.0})
        assert block == expected

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


    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("shots", [None, 10**6])
    @pytest.mark.parametrize("state_first", [True, False])
    def test_growth_draws_one_state_or_measurement_per_step(
        self, state_first, shots, mixed, monkeypatch
    ):
        # every step draws one state or one measurement, alternating from
        # state_first, then its new row or columns' multinomials state by
        # state; a solve that never certifies makes the trial grow to budget
        report = SolverReport(
            iterations=1, primal_residual=0.0, dual_residual=0.0, rho=1.0, objective=0.0,
            converged=True, seconds=0.0,
        )

        def never_certified(table, *args, **kwargs):
            return GramEstimate(
                g_hat=None, certified=False, target_rank=0, rank_tail=1.0, augmentations=0,
                report=report, table=table,
            )

        monkeypatch.setattr("gramscope.estimator.solve_table", never_certified)
        cfg = TrialConfig(
            d=2, n_states=3, n_measurements=2, seed=7, shots=shots, state_first=state_first,
            mixed_states=mixed, max_augmentations=3,
        )
        est, ens = estimate(cfg)
        assert est.augmentations == 3

        rng = np.random.default_rng(cfg.seed)
        ref = sample_ensemble(2, 3, 2, rng, mixed=mixed)
        values = born_table(ref, shots, rng).values
        add_state = state_first
        for _ in range(3):
            if add_state:
                new = sample_ensemble(2, 1, 0, rng, mixed=mixed).states
                rows = born_table(replace(ref, states=new), shots, rng).values
                values = np.vstack([values, rows])
                ref = replace(ref, states=np.concatenate([ref.states, new]))
            else:
                new = sample_ensemble(2, 0, 1, rng).povms
                cols = born_table(replace(ref, povms=new), shots, rng).values
                values = np.hstack([values, cols])
                ref = replace(ref, povms=np.concatenate([ref.povms, new]))
            add_state = not add_state
        assert np.array_equal(est.table.values, values)
        assert (ens.n_states, ens.n_measurements) == (ref.n_states, ref.n_measurements)
        assert np.array_equal(ens.states, ref.states)
        assert np.array_equal(ens.povms, ref.povms)
        # the grown ensemble is a checked record that owns read-only stacks
        assert not (ens.states.flags.writeable or ens.povms.flags.writeable)


class TestPurityCheck:
    """Pure states put 1 on every diagonal entry of the states' block, a
    check the pins do not make."""

    def test_exact_data_certificate_needs_unit_state_diagonal(self):
        # at d=2 (5,5), seed 7, trace-min returns a rank-4 completion that
        # meets every pin but is off the truth by 0.28; its state diagonal
        # is off 1 by as much, so declared purity refuses the certificate
        # the rank tail alone would give
        cfg = TrialConfig(d=2, n_states=5, n_measurements=5, max_augmentations=0, seed=7)
        est, truth = estimate(cfg)
        assert est.report.converged and est.rank_tail <= cfg.tau
        assert not est.certified and est.factor_matrix is None and est.refusal == "purity"
        assert est.purity_residual > 0.2 and evaluate(est, truth).max_entry_error > 0.2
        diag = np.diag(est.g_hat.values)[: est.g_hat.n_states]
        assert est.purity_residual == np.max(np.abs(diag - 1.0))
        undeclared = solve_table(est.table, SolveConfig(d=2))
        assert undeclared.certified and undeclared.purity_residual is None
        assert estimate_record(undeclared, None)["purity_residual"] is None
        assert estimate_record(est, None)["purity_residual"] == est.purity_residual

    def test_recovered_estimate_passes(self):
        cfg = TrialConfig(d=2, n_states=10, n_measurements=10, max_augmentations=0, seed=7)
        est, truth = estimate(cfg)
        assert est.certified and est.refusal is None and est.purity_residual <= 1e-8
        assert evaluate(est, truth).success

    def test_interval_data_reports_the_residual_only(self):
        # with interval pins the estimate shrinks the state diagonal by the
        # order of epsilon, so the residual is recorded but not held to tau
        cfg = TrialConfig(d=2, n_states=5, n_measurements=5, max_augmentations=0, seed=7)
        table = estimate(cfg)[0].table
        est = solve_table(table, replace(cfg, epsilon=1e-3, tau=1e-2))
        assert est.certified and est.purity_residual > cfg.tau


def qutrit_leakage(eta: float, n_states: int, n_measurements: int, seed: int) -> tuple:
    """Qubit states leaking amplitude sqrt(eta) into a third level, measured by
    2-outcome qutrit projective measurements of multiplicities [1, 2]: an
    exact table that a qubit model (d=2, K=2) reads, and its ensemble."""
    rng = np.random.default_rng(seed)
    qubits = sample_ensemble(2, n_states, 0, rng).states
    povms = sample_ensemble(3, 0, n_measurements, rng, degeneracies=[1, 2]).povms
    psi = np.zeros((n_states, 3), complex)
    psi[:, :2] = np.sqrt(1 - eta) * np.linalg.eigh(qubits)[1][:, :, -1]
    psi[:, 2] = np.sqrt(eta) * np.exp(2j * np.pi * rng.uniform(size=n_states))
    ens = Ensemble(dim=3, states=psi[:, :, None] * psi.conj()[:, None, :], povms=povms)
    return ens, born_table(ens)


class TestRefusal:
    """``refusal`` names the first check an estimate fails: unconverged,
    dimension, rank_tail, purity."""

    @pytest.mark.parametrize("eta", [1e-3, 1e-1])
    def test_leakage_table_reads_dimension(self, eta):
        # the data block of a qubit model has rank <= 4; leakage makes it 8
        _, table = qutrit_leakage(eta, 16, 16, seed=0)
        est = solve_table(table, SolveConfig(d=2))
        assert est.target_rank == 8 and est.report.converged
        assert est.refusal == "dimension" and not est.certified
        assert estimate_record(est, None)["refusal"] == "dimension"

    def test_qubit_table_in_a_qutrit_reads_rank_tail(self):
        # no leakage: rank 4, but the measurements are not projective on the qubit
        est = solve_table(qutrit_leakage(0.0, 16, 16, seed=0)[1], SolveConfig(d=2))
        assert est.target_rank == 4 and est.refusal == "rank_tail"

    def test_dimension_refusal_ends_the_trial(self, monkeypatch):
        # more data cannot fit a model of the wrong dimension: one solve, no growth
        leak = qutrit_leakage(1e-2, 16, 16, seed=1)
        monkeypatch.setattr("gramscope.estimator.draw_trial", lambda cfg, rng: leak)
        est, ens = estimate(TrialConfig(d=2, n_states=16, n_measurements=16))
        assert est.refusal == "dimension"
        assert (est.solves, est.augmentations) == (1, 0) and ens is leak[0]

    def test_shot_tables_are_not_held_to_the_witness(self):
        # sampling noise lifts a shot table's numerical rank above d^2
        cfg = TrialConfig(
            d=2, n_states=5, n_measurements=5, shots=10**6, epsilon=5e-3, tau=1e-2,
            max_augmentations=0, seed=3,
        )
        est, _ = estimate(cfg)
        assert est.target_rank > 4 and est.refusal != "dimension"

    def test_interval_pins_are_not_held_to_the_witness(self):
        # a shot table recorded without its shot count is still noisy data:
        # under interval pins it is solved and certified as it is with the count
        cfg = TrialConfig(
            d=2, n_states=5, n_measurements=5, shots=10**6, epsilon=5e-3, tau=1e-2,
            max_augmentations=0, seed=3,
        )
        est, _ = estimate(cfg)
        bare = solve_table(replace(est.table, shots=None), cfg)
        assert est.certified and est.target_rank > 4
        assert bare.certified and bare.refusal is None
        assert np.array_equal(bare.g_hat.values, est.g_hat.values)

    def test_unconverged_comes_first(self):
        cfg = TrialConfig(
            d=2, n_states=5, n_measurements=5, max_augmentations=0,
            solver=SolverOptions(max_iters=3),
        )
        est, _ = estimate(cfg)
        assert not est.report.converged and est.rank_tail > cfg.tau
        assert est.refusal == "unconverged"

    def test_criterion_1_trials_read_rank_tail_or_purity(self):
        for seed in range(4):
            cfg = TrialConfig(d=2, n_states=5, n_measurements=5, max_augmentations=0, seed=seed)
            est, _ = estimate(cfg)
            assert est.refusal in ("rank_tail", "purity") and not est.certified


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
            g_hat=g, certified=True, target_rank=4, rank_tail=0.0, augmentations=0, report=None
        )
        m = evaluate(est, ens)
        assert m.max_entry_error == 0.0
        assert m.frobenius_error == 0.0
        assert m.success

    def test_size_mismatch_rejected(self):
        # (3,3) against (2,2) differs in n; (5,5) against (3,6) has n = 15 on
        # both sides and differs only in the state/effect split
        for est_wv, truth_wv in [((3, 3), (2, 2)), ((5, 5), (3, 6))]:
            g = gram(sample_ensemble(2, *est_wv, np.random.default_rng(1)))
            truth = sample_ensemble(2, *truth_wv, np.random.default_rng(2))
            est = GramEstimate(
                g_hat=g, certified=True, target_rank=4, rank_tail=0.0, augmentations=0, report=None
            )
            with pytest.raises(ValueError, match=r"blocks \(W, V\*K\) are"):
                evaluate(est, truth)


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
