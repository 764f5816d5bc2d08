"""Acceptance suite: the quantitative claims the package must reproduce.

Each test prints one pass/fail line. Criteria that share expensive runs
(the d=2 replication batch, the certified d=2 trials) reuse module-scoped
fixtures.
"""

import numpy as np
import pytest

from gramscope.batch import BatchSpec, run_batch
from gramscope.estimator import TrialConfig, born_table, estimate, evaluate, gauge_distance
from gramscope.gram import gram, numerical_rank, realize
from gramscope.solver import SolverOptions
from gramscope.synth import sample_ensemble
from gramscope.theory import (
    check_envelope,
    check_norm_bound,
    check_povm_norm_budget,
    check_rank_conjugate,
)

MASTER_SEED = 2026


def report(num, ok, detail):
    print(f"criterion {num}: {'pass' if ok else 'FAIL'} ({detail})")


def d2_replication_spec():
    template = TrialConfig(
        d=2,
        n_states=5,
        n_measurements=5,
        max_augmentations=0,
        solver=SolverOptions(max_iters=50_000),
    )
    return BatchSpec(
        templates=[template], trials_per_template=50, master_seed=MASTER_SEED
    )


@pytest.fixture(scope="module")
def d2_replication():
    """Criterion 1 batch: 50 asymptotic d=2 trials from (5,5)."""
    return run_batch(d2_replication_spec())


@pytest.fixture(scope="module")
def d2_certified_trials():
    """Asymptotic d=2 trials run through the full augmentation loop until
    the rank certificate passes."""
    out = []
    for seed in (0, 1):
        cfg = TrialConfig(
            d=2,
            n_states=5,
            n_measurements=5,
            seed=seed,
            state_first=False,
            solver=SolverOptions(max_iters=30_000),
        )
        est, truth = estimate(cfg)
        out.append((est, truth))
    return out


def test_criterion_01_d2_table_replication(d2_replication):
    _, records = d2_replication
    failures = sum(1 for r in records if not r["success"])
    uncertified = sum(1 for r in records if not r["certified"])
    augmented = sum(1 for r in records if r["augmentations"] != 0)
    ok = failures == 0 and uncertified == 0 and augmented == 0
    report(
        1,
        ok,
        f"50 trials d=2 (5,5): {failures} failures, {uncertified} uncertified, "
        f"{augmented} augmented",
    )
    assert failures == 0
    assert uncertified == 0
    assert augmented == 0


def test_criterion_02_d3_table_replication():
    # single trial per the stated wall-time fallback; threshold unchanged
    cfg = TrialConfig(
        d=3,
        n_states=60,
        n_measurements=100,
        seed=MASTER_SEED,
        max_augmentations=0,
        solver=SolverOptions(max_iters=20_000, primal_tol=1e-7, dual_tol=1e-7),
    )
    est, truth = estimate(cfg)
    metrics = evaluate(est, truth, threshold=1e-3)
    ok = metrics.success and est.certified and est.target_rank == 9
    report(
        2,
        ok,
        f"1 trial d=3 (60,100): max err {metrics.max_entry_error:.2e}, "
        f"certified={est.certified} at rank {est.target_rank}",
    )
    assert metrics.success
    assert est.certified
    assert est.target_rank == 9


def test_criterion_03_data_table_rank_identity():
    rng = np.random.default_rng(MASTER_SEED)
    hits = 0
    total = 0
    for d, w, v in ((2, 8, 8), (3, 12, 6)):
        for _ in range(50):
            ens = sample_ensemble(d, w, v, rng)
            total += 1
            if numerical_rank(born_table(ens).values, rel_tol=1e-6) == d * d:
                hits += 1
    ok = hits == total
    report(3, ok, f"rank(D) = d^2 in {hits}/{total} spanning ensembles")
    assert hits == total


def test_criterion_04_norm_bound_and_povm_budget():
    rng = np.random.default_rng(MASTER_SEED)
    norm = check_norm_bound(1000, rng)
    budget = check_povm_norm_budget(1000, rng)
    ok = norm["ok"] and budget["ok"]
    report(
        4,
        ok,
        f"1000 ensembles: worst slack {norm.get('worst_slack', float('nan')):.2e}; "
        f"{budget.get('equality_cases', 0)} projective equality cases",
    )
    assert norm["ok"], norm
    assert budget["ok"], budget


def test_criterion_05_rank_conjugate_oracle():
    rng = np.random.default_rng(MASTER_SEED)
    res = check_rank_conjugate(500, rng, n=3, mc_samples=100_000)
    report(5, res["ok"], f"500 matrices vs brute force and {res.get('mc_samples')} MC samples")
    assert res["ok"], res


def test_criterion_06_envelope_consequence():
    rng = np.random.default_rng(MASTER_SEED)
    res = check_envelope(1000, rng, radius=5.0)
    report(6, res["ok"], "tr(X) <= 5 * rank(X) on 1000 clipped matrices")
    assert res["ok"], res


def test_criterion_07_relaxation_soundness(d2_replication, d2_certified_trials):
    _, records = d2_replication
    gaps = [
        r["objective"] - r["trace_true"] for r in records if r["certified"]
    ]
    for est, truth in d2_certified_trials:
        tr_true = float(np.trace(gram(truth).values))
        gaps.append(est.report.objective - tr_true)
    worst = max(gaps)
    ok = worst <= 1e-5
    report(7, ok, f"{len(gaps)} certified trials, worst trace excess {worst:.2e}")
    assert worst <= 1e-5


def test_criterion_08_gauge_recovery(d2_certified_trials):
    worst_db = 0.0
    worst_gauge = 0.0
    for est, truth in d2_certified_trials:
        assert est.certified
        metrics = evaluate(est, truth)
        p_hat = est.factor_matrix
        db_err = float(
            np.max(
                np.abs(
                    (p_hat.T @ p_hat)[: est.g_hat.n_states, est.g_hat.n_states :]
                    - born_table(truth).values
                )
            )
        )
        gd = gauge_distance(p_hat, realize(truth))
        worst_db = max(worst_db, db_err)
        worst_gauge = max(worst_gauge, gd)
    ok = worst_db < 1e-3 and worst_gauge < 1e-2
    report(
        8,
        ok,
        f"{len(d2_certified_trials)} certified d=2 trials: data-block err "
        f"{worst_db:.2e}, gauge distance {worst_gauge:.2e}",
    )
    assert worst_db < 1e-3
    assert worst_gauge < 1e-2


def test_criterion_09_finite_shot_smoke():
    cfg = TrialConfig(
        d=2,
        n_states=5,
        n_measurements=5,
        seed=MASTER_SEED,
        shots=10**6,
        epsilon=5e-3,
        tau=1e-2,
        state_first=False,
        solver=SolverOptions(max_iters=40_000),
    )
    est, _ = estimate(cfg)
    lam = np.linalg.eigvalsh(est.g_hat.values)
    margin = 10 * cfg.solver.primal_tol
    v = est.g_hat.n_effects // 2
    radius = est.g_hat.n_states + v * 2
    # the returned iterate sits exactly in the spectral box; its distance to
    # the interval knowledge set is bounded by the primal residual
    interval_ok = est.report.converged and est.report.primal_residual <= margin
    psd_ok = lam.min() >= -margin
    norm_ok = lam.max() <= radius + margin
    ok = est.certified and interval_ok and psd_ok and norm_ok
    report(
        9,
        ok,
        f"finite-shot d=2: certified={est.certified} at tau=1e-2, "
        f"primal residual {est.report.primal_residual:.1e}, "
        f"lambda in [{lam.min():.1e}, {lam.max():.2f}], R={radius}",
    )
    assert est.certified
    assert interval_ok
    assert psd_ok
    assert norm_ok


def test_criterion_10_determinism(d2_replication):
    report_a, _ = d2_replication
    report_b, _ = run_batch(d2_replication_spec())
    import json

    bytes_a = json.dumps(report_a.to_json(), sort_keys=True).encode()
    bytes_b = json.dumps(report_b.to_json(), sort_keys=True).encode()
    ok = bytes_a == bytes_b
    report(10, ok, f"repeated master seed {MASTER_SEED}: reports byte-identical={ok}")
    assert bytes_a == bytes_b
