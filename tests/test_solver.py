"""Tests for the ADMM trace-minimization solver and its proximal pieces."""

import math

import numpy as np
import pytest

from gramscope.estimator import born_table
from gramscope.gram import (
    Knowledge,
    gram,
    knowledge_projective,
    numerical_rank,
    r_qm,
    rank_certificate,
)
from gramscope.hermitian import clip_spectrum
from gramscope.solver import (
    RHO,
    RHO_UPDATE_EVERY,
    SdpProblem,
    SolverOptions,
    _pin_rule,
    _svec_maps,
    prox_trace_plus_knowledge,
    solve_trace_min,
)
from gramscope.synth import from_json, sample_ensemble
from gramscope.theory import rank_conjugate


def exact_kn(n, entries):
    return Knowledge(n=n, constraints=[(i, j, v, v) for i, j, v in entries])


def instance(d, w, v, seed):
    """Completion problem of a random ensemble with exact Born data."""
    ens = sample_ensemble(d, w, v, np.random.default_rng(seed))
    kn = knowledge_projective(born_table(ens), d)
    return SdpProblem(knowledge=kn, radius=r_qm(w, v, d))


class TestSvec:
    def test_svec_is_an_isometry_and_shares_the_pin_rule(self):
        # the loop's weighted upper triangle: expanding it gives back the
        # symmetric matrix, dot products are Frobenius products, and the pin
        # rule applied to it pins both (i, j) and (j, i) and nothing else
        rng = np.random.default_rng(11)
        n = 5
        kn = Knowledge(n=n, constraints=[(0, 0, 2.0, 2.0), (1, 3, 0.0, 0.5), (2, 4, -0.3, -0.3)])
        a, b = rng.standard_normal((2, n, n))
        a, b = a + a.T, b + b.T
        upper, weight, full = _svec_maps(n)
        sa, sb = a.take(upper) * weight, b.take(upper) * weight
        assert np.allclose((sa / weight).take(full), a, rtol=1e-15, atol=0)
        assert sa @ sb == pytest.approx(np.vdot(a, b), rel=1e-13)
        at = full[kn.constraints["i"], kn.constraints["j"]]
        _pin_rule(kn, at, weight.take(at))(sa)
        expanded = (sa / weight).take(full)
        assert np.array_equal(expanded, expanded.T)
        expected = a.copy()
        expected[0, 0] = 2.0
        expected[1, 3] = expected[3, 1] = min(max(a[1, 3], 0.0), 0.5)
        expected[2, 4] = expected[4, 2] = -0.3
        assert np.allclose(expanded, expected, rtol=1e-15, atol=0)


class TestProxTracePlusKnowledge:
    def test_free_diagonal_shift(self):
        kn = Knowledge(n=2, constraints=[])
        out = prox_trace_plus_knowledge(np.diag([3.0, 5.0]), kn, sigma=2.0)
        assert np.allclose(out, np.diag([2.5, 4.5]))

    def test_pinned_diagonal_ignores_shift(self):
        kn = exact_kn(2, [(0, 0, 7.0)])
        out = prox_trace_plus_knowledge(np.diag([3.0, 5.0]), kn, sigma=2.0)
        assert out[0, 0] == 7.0
        assert out[1, 1] == 4.5

    def test_off_diagonal_untouched(self):
        kn = Knowledge(n=2, constraints=[])
        m = np.array([[1.0, 0.7], [0.7, 2.0]])
        out = prox_trace_plus_knowledge(m, kn, sigma=1.0)
        assert out[0, 1] == 0.7

    def test_pins_and_symmetrizes(self):
        # a pin holds at (i, j) and at (j, i), whatever M holds at either
        kn = exact_kn(3, [(0, 1, 0.25)])
        m = np.zeros((3, 3))
        m[1, 0] = 7.0
        out = prox_trace_plus_knowledge(m, kn, sigma=1.0)
        assert out[0, 1] == 0.25 and out[1, 0] == 0.25
        assert out[2, 2] == -1.0

    def test_interval_clamping(self):
        # an interval pin clips its entry and mirrors the clipped value;
        # the diagonal shift does not reach an off-diagonal entry
        kn = Knowledge(n=2, constraints=[(0, 1, -1.0, 1.0)])
        assert prox_trace_plus_knowledge(np.full((2, 2), 5.0), kn, 1.0)[1, 0] == 1.0
        assert prox_trace_plus_knowledge(np.full((2, 2), -5.0), kn, 1.0)[1, 0] == -1.0
        out = prox_trace_plus_knowledge(np.array([[0.0, 0.3], [-4.0, 0.0]]), kn, 1.0)
        assert out[0, 1] == 0.3 and out[1, 0] == 0.3

    def test_exact_pins_are_bit_exact(self):
        # an exact pin is an interval with lo == hi; the clip must land on
        # the value itself, on the diagonal (after the shift) and off it
        a, b = 0.1 + 0.2, 1.0 / 3.0
        kn = exact_kn(3, [(1, 1, a), (0, 2, b)])
        m = np.random.default_rng(9).standard_normal((3, 3))
        for sigma in (0.3, 1.0, 7.0):
            out = prox_trace_plus_knowledge(m, kn, sigma)
            assert out[1, 1] == a
            assert out[0, 2] == b and out[2, 0] == b
            assert out[0, 0] == m[0, 0] - 1.0 / sigma

    def test_is_the_argmin(self):
        # objective tr(X) + (sigma/2)||X - M||^2 over the knowledge set;
        # the prox must beat random feasible points, which the prox of
        # random symmetric matrices supplies
        rng = np.random.default_rng(2)
        kn = Knowledge(n=3, constraints=[(0, 0, 0.0, 1.0), (1, 2, 0.4, 0.4)])
        sigma = 1.7
        m = rng.standard_normal((3, 3))
        m = 0.5 * (m + m.T)

        def obj(x):
            return np.trace(x) + 0.5 * sigma * np.linalg.norm(x - m) ** 2

        star = prox_trace_plus_knowledge(m, kn, sigma)
        best = obj(star)
        for _ in range(500):
            cand = rng.standard_normal((3, 3))
            cand = prox_trace_plus_knowledge(0.5 * (cand + cand.T), kn, sigma)
            assert obj(cand) >= best - 1e-9

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            prox_trace_plus_knowledge(np.eye(2), Knowledge(n=2), 0.0)


class TestSolveTraceMin:
    def test_fully_determined(self):
        # all entries pinned to a PSD matrix inside the box: the solver
        # must return it exactly
        target = np.array([[1.0, 1.0], [1.0, 2.0]])
        kn = exact_kn(2, [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 2.0)])
        prob = SdpProblem(knowledge=kn, radius=5.0)
        g_hat, report = solve_trace_min(prob, SolverOptions(max_iters=5000))
        assert report.converged
        assert np.max(np.abs(g_hat.values - target)) < 1e-6

    def test_unconstrained_minimum_is_zero(self):
        prob = SdpProblem(knowledge=Knowledge(n=4), radius=3.0)
        g_hat, report = solve_trace_min(prob, SolverOptions(max_iters=5000))
        assert report.converged
        assert np.max(np.abs(g_hat.values)) < 1e-6

    def test_psd_completion_2x2(self):
        # pin diagonal (1, 1) and leave the off-diagonal free: trace is
        # fixed at 2, any |g01| <= 1 is feasible, and the minimizer is
        # determined only up to that freedom, so check feasibility
        kn = exact_kn(2, [(0, 0, 1.0), (1, 1, 1.0)])
        prob = SdpProblem(knowledge=kn, radius=4.0)
        g_hat, report = solve_trace_min(prob, SolverOptions(max_iters=5000))
        assert report.converged
        assert report.objective == pytest.approx(2.0, abs=1e-6)
        assert np.linalg.eigvalsh(g_hat.values).min() > -1e-8

    def test_off_diagonal_forces_diagonal(self):
        # min trace with g01 = 1 pinned: PSD needs g00*g11 >= 1, and
        # trace is minimized at g00 = g11 = 1
        kn = exact_kn(2, [(0, 1, 1.0)])
        prob = SdpProblem(knowledge=kn, radius=10.0)
        g_hat, report = solve_trace_min(prob, SolverOptions(max_iters=20000))
        assert report.converged
        assert np.max(np.abs(g_hat.values - np.ones((2, 2)))) < 1e-5

    def test_interval_constraint_respected(self):
        kn = Knowledge(n=2, constraints=[(0, 1, 2.0, 2.0), (0, 0, 4.0, 9.0)])
        prob = SdpProblem(knowledge=kn, radius=20.0)
        g_hat, report = solve_trace_min(prob, SolverOptions(max_iters=40000))
        assert report.converged
        # on the boundary g00 = 4, PSD forces g11 >= 1; minimum trace is 5
        assert report.objective == pytest.approx(5.0, abs=1e-4)
        assert g_hat.values[0, 0] == pytest.approx(4.0, abs=1e-5)

    def test_output_is_in_spectral_box(self):
        ens = sample_ensemble(2, 3, 3, np.random.default_rng(3))
        kn = knowledge_projective(born_table(ens), 2)
        radius = r_qm(3, 3, 2)
        prob = SdpProblem(knowledge=kn, radius=radius)
        g_hat, _ = solve_trace_min(prob, SolverOptions(max_iters=3000))
        lam = np.linalg.eigvalsh(g_hat.values)
        assert lam.min() >= -1e-9
        assert lam.max() <= radius + 1e-9

    def test_deterministic(self):
        ens = sample_ensemble(2, 3, 3, np.random.default_rng(4))
        kn = knowledge_projective(born_table(ens), 2)
        prob = SdpProblem(knowledge=kn, radius=r_qm(3, 3, 2))
        opts = SolverOptions(max_iters=2000)
        a, ra = solve_trace_min(prob, opts)
        b, rb = solve_trace_min(prob, opts)
        assert np.array_equal(a.values, b.values)
        assert ra.iterations == rb.iterations

    def test_nonconvergence_is_reported_not_raised(self):
        kn = exact_kn(2, [(0, 1, 1.0)])
        prob = SdpProblem(knowledge=kn, radius=10.0)
        _, report = solve_trace_min(prob, SolverOptions(max_iters=3))
        assert not report.converged
        assert report.iterations == 3

    def test_penalty_starts_scaled_to_the_size(self):
        # rho starts at RHO / sqrt(n) and is first balanced after
        # RHO_UPDATE_EVERY iterations, so a solve cut before then reports
        # the starting penalty
        for n, prob in ((15, instance(2, 5, 5, seed=0)), (180, instance(3, 30, 50, seed=1))):
            assert prob.n == n
            _, report = solve_trace_min(prob, SolverOptions(max_iters=RHO_UPDATE_EVERY - 1))
            assert report.iterations < RHO_UPDATE_EVERY
            assert report.rho == RHO / math.sqrt(n)
            assert report.dual_residual == report.rho * report.primal_residual

    def test_iteration_is_one_eigendecomposition(self, monkeypatch):
        # every evaluated point, a rejected extrapolation included, clips
        # once, and the svec iterate is expanded to an exactly symmetric
        # n x n matrix for it
        calls = []
        prob = instance(2, 5, 6, seed=10)

        def counting(m, hi, **kwargs):
            assert m.shape == (prob.n, prob.n)
            assert np.array_equal(m, m.T)
            calls.append(m.shape[0])
            return clip_spectrum(m, hi, **kwargs)

        monkeypatch.setattr("gramscope.solver.clip_spectrum", counting)
        for max_iters in (3, 100_000):
            calls.clear()
            _, report = solve_trace_min(prob, SolverOptions(max_iters=max_iters))
            assert len(calls) == report.iterations
        assert report.converged and report.rejected_steps > 0

    def test_cold_start_skips_only_its_own_clip(self, monkeypatch):
        # v = 0 is its own clip and costs no eigendecomposition, so the one
        # counted clip is of the step after it
        calls = []

        def counting(m, hi, **kwargs):
            calls.append(m.copy())
            return clip_spectrum(m, hi, **kwargs)

        monkeypatch.setattr("gramscope.solver.clip_spectrum", counting)
        _, report = solve_trace_min(instance(2, 5, 6, seed=10), SolverOptions(max_iters=1))
        assert report.iterations == len(calls) == 1
        assert np.any(calls[0])

    def test_stops_on_the_fixed_point_residual(self):
        # r = ||x - z|| bounds the infeasibility and rho * r the
        # stationarity of the evaluated pair, so the default tolerances
        # already give the optimal value of a 1e-11 solve; the (5,5)
        # optimum need not be unique, so only objectives are compared; the
        # (4,6) instance has more measurements than states
        tight = SolverOptions(primal_tol=1e-11, dual_tol=1e-11)
        for prob in [instance(2, 5, 5, seed) for seed in range(6)] + [instance(2, 4, 6, 5)]:
            objectives = []
            for opts in (SolverOptions(), tight):
                _, report = solve_trace_min(prob, opts)
                assert report.converged
                assert report.primal_residual <= opts.primal_tol
                assert report.dual_residual <= opts.dual_tol
                objectives.append(report.objective)
            assert objectives[0] == pytest.approx(objectives[1], abs=1e-6)

    def test_pins_hold_to_primal_tol(self):
        prob = instance(2, 5, 6, seed=10)
        opts = SolverOptions()
        g_hat, report = solve_trace_min(prob, opts)
        assert report.converged
        i, j, lo, _ = prob.knowledge.arrays()
        assert np.max(np.abs(g_hat.values[i, j] - lo)) <= opts.primal_tol
        assert np.max(np.abs(g_hat.values[j, i] - lo)) <= opts.primal_tol

    def test_partial_steps_reach_the_full_step_optimum(self, monkeypatch):
        # at d=3 (30,50), n=180, the iterate has rank about 9 and most
        # projections are certified partial ones; they must not move the
        # optimum or loosen the pins. The bound is what partial steps of up
        # to three Rayleigh-Ritz rounds needed with a budget of 0.1 r: 83
        # full eigendecompositions in 349 iterations (62 in 356 at 0.3 r).
        # One round needs 88 in 356 at 0.1 r and 69 in 375 at 0.3 r; with
        # the step at RHO / sqrt(n) and no over-relaxation, 91 in 289 at
        # 0.1 r and 70 in 289 at 0.3 r; with bases of the positive eigen- or
        # Ritz vectors only, 69 in 266 at 0.5 r, and 74 in 268 when the
        # Ritz subspace of twice their number must stay below n / 4.
        full_steps_at_budget_one_tenth = 83
        prob = instance(3, 30, 50, seed=1)
        opts = SolverOptions(primal_tol=1e-7, dual_tol=1e-7)
        g_hat, report = solve_trace_min(prob, opts)
        assert report.converged and report.partial_steps > 0
        assert report.iterations - report.partial_steps < full_steps_at_budget_one_tenth
        i, j, lo, _ = prob.knowledge.arrays()
        assert np.max(np.abs(g_hat.values[i, j] - lo)) <= opts.primal_tol
        monkeypatch.setattr("gramscope.hermitian.PARTIAL_FRACTION", 0.0)
        _, full = solve_trace_min(prob, opts)
        assert full.converged and full.partial_steps == full.failed_partial_steps == 0
        assert report.objective == pytest.approx(full.objective, abs=1e-6)

    def test_acceleration_halves_iterations(self):
        # plain ADMM (no extrapolation) took 1074 iterations on this
        # instance at rho = 1 with over-relaxation 1.6, and 753 at
        # RHO / sqrt(n) with none; the accelerated loop must need at most
        # half of the former
        plain_admm_iterations = 1074
        _, report = solve_trace_min(instance(2, 5, 6, seed=10), SolverOptions())
        assert report.converged
        assert report.iterations <= plain_admm_iterations // 2

    def test_anderson_memory_halves_iterations(self):
        # at memory 10 the twelve d=2 (5,5) solves of seeds 0-11 took 16170
        # iterations in all (12456 of them on seed 7); memory 20 took 4984.
        # With the step at RHO / sqrt(n) and no over-relaxation, memory 10
        # takes 8787 (5711 on seed 7) and memory 20 takes 3715
        memory_10_iterations = 16170
        total = 0
        for seed in range(12):
            _, report = solve_trace_min(instance(2, 5, 5, seed), SolverOptions(max_iters=50_000))
            assert report.converged
            total += report.iterations
        assert total <= memory_10_iterations // 2

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            SdpProblem(knowledge=Knowledge(n=2), radius=0.0)

    def test_rejects_nan_radius(self):
        # NaN fails every comparison; accepted, it would solve to an
        # all-NaN matrix through all of max_iters
        with pytest.raises(ValueError):
            SdpProblem(knowledge=Knowledge(n=2), radius=float("nan"))


class TestRecoveryFromData:
    def test_d2_well_determined_instance(self):
        # enough states and measurements that the completion is unique
        # and the trace minimum sits at the true Gram matrix
        rng = np.random.default_rng(7)
        ens = sample_ensemble(2, 10, 10, rng)
        g_true = gram(ens)
        table = born_table(ens)
        kn = knowledge_projective(table, 2)
        prob = SdpProblem(knowledge=kn, radius=r_qm(10, 10, 2))
        g_hat, report = solve_trace_min(
            prob, SolverOptions(max_iters=60_000, primal_tol=1e-9, dual_tol=1e-9)
        )
        assert report.converged
        # the trace minimum is the true Gram matrix (max error 4.5e-10 in
        # 191 iterations), and the certificate says so
        assert np.max(np.abs(g_hat.values - g_true.values)) < 1e-4
        assert numerical_rank(table.values) == 4
        assert rank_certificate(g_hat, 4, tau=1e-4)


class TestRankConjugate:
    def test_below_one_is_zero(self):
        assert rank_conjugate(np.diag([0.5, -3.0, 1.0])) == 0.0

    def test_closed_form(self):
        assert rank_conjugate(np.diag([2.0, 1.5, 0.0])) == pytest.approx(1.5)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(8)
        lam = np.array([3.0, 1.2, 0.4, -1.0])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        y = (q * lam) @ q.T
        assert rank_conjugate(y) == pytest.approx(2.0 + 0.2, abs=1e-10)


class TestSolverOptionsJson:
    def test_roundtrip(self):
        opts = from_json(SolverOptions, {"max_iters": 10, "primal_tol": 1e-6})
        assert opts.max_iters == 10 and opts.primal_tol == 1e-6

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            from_json(SolverOptions, {"maxiters": 10})
