"""Tests for the structural self-checks."""

import numpy as np
import pytest

from gramscope.theory import (
    check_envelope,
    check_norm_bound,
    check_povm_norm_budget,
    check_rank_conjugate,
    check_rigidity_frontier,
    feasible_sample_pool,
    rank_conjugate,
    rank_conjugate_bruteforce,
    rigidity_deficiency,
    run_all_checks,
)


class TestBruteforceOracle:
    def test_matches_closed_form_small(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.standard_normal((3, 3))
            y = 0.5 * (y + y.T) * rng.uniform(0.3, 3.0)
            assert rank_conjugate_bruteforce(y) == pytest.approx(
                rank_conjugate(y), abs=1e-9
            )

    def test_explicit_values(self):
        assert rank_conjugate_bruteforce(np.diag([2.0, 0.5])) == pytest.approx(1.0)
        assert rank_conjugate_bruteforce(np.diag([0.5, -1.0])) == 0.0


class TestFeasiblePool:
    def test_samples_live_in_the_box(self):
        pool, ranks = feasible_sample_pool(4, 200, np.random.default_rng(1))
        for x, r in zip(pool, ranks):
            lam = np.linalg.eigvalsh(x)
            assert lam.min() >= -1e-10
            assert lam.max() <= 1.0 + 1e-10
            assert np.linalg.matrix_rank(x, tol=1e-10) <= r


class TestChecks:
    def test_norm_bound_passes(self):
        res = check_norm_bound(100, np.random.default_rng(2))
        assert res["ok"]
        assert res["worst_slack"] <= 0.0

    def test_povm_budget_passes(self):
        res = check_povm_norm_budget(100, np.random.default_rng(3))
        assert res["ok"]
        assert res["equality_cases"] > 0

    def test_rank_conjugate_passes(self):
        res = check_rank_conjugate(50, np.random.default_rng(4), n=3, mc_samples=5000)
        assert res["ok"]

    def test_envelope_passes(self):
        res = check_envelope(200, np.random.default_rng(5))
        assert res["ok"]

    def test_run_all(self):
        results = run_all_checks(3, 50, seed=0)
        assert results["ok"]
        assert set(results) == {
            "ok",
            "norm_bound",
            "povm_norm_budget",
            "rank_conjugate",
            "envelope",
            "rigidity_frontier",
        }

    def test_run_all_rejects_large_n(self):
        with pytest.raises(ValueError):
            run_all_checks(7, 10, seed=0)


class TestRigidity:
    @pytest.mark.parametrize("w", [3, 5])
    @pytest.mark.parametrize("v", [3, 4, 5, 6])
    def test_d2_frontier(self, w, v):
        # with W >= 3 the projective pins of V <= 6 measurements leave a
        # (6 - V)-parameter family of rank-4 completions; purity fixes it
        assert rigidity_deficiency(2, w, v) == 6 - v
        assert rigidity_deficiency(2, w, v, pure=True) == 0

    def test_below_three_states_the_rule_does_not_hold(self):
        assert rigidity_deficiency(2, 2, 6) == 8
        assert rigidity_deficiency(2, 10, 5) == 1

    def test_d3_needs_more_data(self):
        assert rigidity_deficiency(3, 10, 10) == 6
        assert rigidity_deficiency(3, 12, 11) == 3

    def test_frontier_check_passes(self):
        res = check_rigidity_frontier(np.random.default_rng(6))
        assert res == {"ok": True, "cells": 16}
