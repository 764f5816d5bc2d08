"""Self-checks of the structural facts the completion method relies on.

Each check draws random instances and verifies a closed-form statement
against an independent computation: the spectral bound on quantum Gram
matrices, the POVM Hilbert-Schmidt norm budget, the rank-function
conjugate (``rank_conjugate``, defined here), the trace-vs-rank
envelope inequality on the spectral box, and the frontier at which the
projective pins fix the rank-d^2 completion (``rigidity_deficiency``).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .estimator import born_table
from .gram import gram, knowledge_projective, numerical_rank, r_qm, realize
from .hermitian import clip_spectrum
from .synth import sample_ensemble

#: Dimensions d that the norm-bound and POVM-budget checks draw from.
CHECK_DIMS = (2, 3, 4)


def check_norm_bound(trials: int, rng: np.random.Generator) -> dict:
    """||G|| <= W + V*d over random valid ensembles, plus ||G|| <= ||G||_F
    and the state-norm window [1/sqrt(d), 1]."""
    worst = -np.inf
    for t in range(trials):
        d = int(rng.choice(CHECK_DIMS))
        w = int(rng.integers(1, 7))
        v = int(rng.integers(1, 5))
        mixed = bool(rng.integers(0, 2))
        ens = sample_ensemble(d, w, v, rng, mixed=mixed)
        g = gram(ens).values
        opnorm = float(np.linalg.norm(g, 2))
        fro = float(np.linalg.norm(g))
        slack = opnorm - r_qm(w, v, d)
        worst = max(worst, slack)
        if slack > 1e-9 or opnorm > fro + 1e-9:
            return {
                "ok": False,
                "trial": t,
                "d": d,
                "w": w,
                "v": v,
                "opnorm": opnorm,
                "bound": r_qm(w, v, d),
            }
        hs = np.linalg.norm(ens.states, axis=(1, 2))
        if (bad := (hs < 1.0 / np.sqrt(d) - 1e-9) | (hs > 1.0 + 1e-9)).any():
            return {"ok": False, "trial": t, "state_norm": float(hs[bad][0]), "d": d}
    return {"ok": True, "trials": trials, "worst_slack": worst}


def check_povm_norm_budget(trials: int, rng: np.random.Generator) -> dict:
    """sum_k ||E_k||_F^2 <= d for POVMs, with equality for every projective
    one: sum_k tr(E_k^2) <= sum_k tr(E_k) = d, with equality iff each
    E_k^2 = E_k. The samples are non-degenerate and degenerate [d - 1, 1]
    projective measurements, and (non-projective) mixtures of two
    projective measurements."""
    equalities = 0
    for t in range(trials):
        d = int(rng.choice(CHECK_DIMS))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            povm = sample_ensemble(d, 0, 1, rng).povms[0]
            projective = True
        elif kind == 1 and d > 1:
            povm = sample_ensemble(d, 0, 1, rng, degeneracies=[d - 1, 1]).povms[0]
            projective = True
        else:
            lam = float(rng.uniform(0.1, 0.9))
            a, b = sample_ensemble(d, 0, 2, rng).povms
            povm = [lam * ea + (1 - lam) * eb for ea, eb in zip(a, b)]
            projective = False
        budget = sum(float(np.linalg.norm(e)) ** 2 for e in povm)
        if budget > d + 1e-9:
            return {"ok": False, "trial": t, "d": d, "budget": budget}
        if projective:
            if abs(budget - d) > 1e-9:
                return {"ok": False, "trial": t, "d": d, "budget": budget, "expected": d}
            equalities += 1
    return {"ok": True, "trials": trials, "equality_cases": equalities}


def rank_conjugate(y: np.ndarray) -> float:
    """Convex conjugate of the rank function on {X PSD, ||X|| <= 1},
    evaluated at a symmetric Y: the sum of (lambda_j(Y) - 1) over
    eigenvalues exceeding 1."""
    y = np.asarray(y, dtype=float)
    lam = np.linalg.eigvalsh(0.5 * (y + y.T))
    return float(np.sum(np.maximum(lam - 1.0, 0.0)))


def rank_conjugate_bruteforce(y: np.ndarray) -> float:
    """Independent oracle: maximize tr(YX) - |S| over X built from subsets S
    of the eigenprojectors of Y (the optimizer structure of the conjugate)."""
    y = 0.5 * (y + y.T)
    lam = np.linalg.eigvalsh(y)
    n = lam.size
    best = 0.0  # S empty: X = 0, rank 0
    for r in range(1, n + 1):
        for subset in combinations(range(n), r):
            best = max(best, float(sum(lam[j] for j in subset)) - r)
    return best


def feasible_sample_pool(
    n: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random X in {PSD, ||X|| <= 1} with known ranks, for Monte-Carlo
    upper-bound checks of the conjugate."""
    samples = np.zeros((count, n, n))
    ranks = rng.integers(0, n + 1, size=count)
    for idx, r in enumerate(ranks):
        if r == 0:
            continue
        a = rng.standard_normal((n, r))
        x = a @ a.T
        top = float(np.linalg.eigvalsh(x)[-1])
        samples[idx] = x * (rng.uniform(0.0, 1.0) / top)
    return samples, ranks


def check_rank_conjugate(
    trials: int, rng: np.random.Generator, n: int = 3, mc_samples: int = 100_000
) -> dict:
    """Closed-form conjugate vs brute-force subset oracle, plus Monte-Carlo
    feasible samples that must never beat it."""
    pool, ranks = feasible_sample_pool(n, mc_samples, rng)
    for t in range(trials):
        y = rng.standard_normal((n, n)) * rng.uniform(0.3, 3.0)
        y = 0.5 * (y + y.T)
        closed = rank_conjugate(y)
        brute = rank_conjugate_bruteforce(y)
        if abs(closed - brute) > 1e-9:
            return {"ok": False, "trial": t, "closed_form": closed, "bruteforce": brute}
        if np.all(np.linalg.eigvalsh(y) <= 1.0) and closed != 0.0:
            return {"ok": False, "trial": t, "closed_form": closed, "expected": 0.0}
        mc_best = float(np.max(np.einsum("kij,ij->k", pool, y) - ranks))
        if mc_best > closed + 1e-9:
            return {"ok": False, "trial": t, "closed_form": closed, "mc_best": mc_best}
    return {"ok": True, "trials": trials, "mc_samples": mc_samples}


def check_envelope(
    trials: int, rng: np.random.Generator, n: int = 6, radius: float = 5.0
) -> dict:
    """tr(X) <= R * rank(X) for X clipped into the spectral box [0, R]."""
    for t in range(trials):
        m = rng.standard_normal((n, n)) * rng.uniform(0.5, 2.0 * radius)
        x = clip_spectrum(0.5 * (m + m.T), radius)
        tr = float(np.trace(x))
        if tr > radius * numerical_rank(x) + 1e-9:
            return {"ok": False, "trial": t, "trace": tr, "rank": numerical_rank(x)}
    return {"ok": True, "trials": trials}


def rigidity_deficiency(
    d: int,
    n_states: int,
    n_measurements: int,
    degeneracies: list[int] | None = None,
    pure: bool = False,
    seed: int = 0,
) -> int:
    """Dimension of the flexes of the projective pins at a random ensemble:
    0 when they fix its rank-d^2 Gram matrix locally, k when a k-parameter
    family of rank-d^2 Gram matrices meets every pin.

    With P the d^2 x n realization of ``sample_ensemble(d, W, V, rng)``, the
    pins (i, j) of ``knowledge_projective`` on its Born table (with ``pure``
    also one (w, w) pin per state) define P -> (p_i^T p_j). Its Jacobian J
    has one row per pin, p_j in block i and p_i in block j (2 p_i in block
    i for a diagonal pin). The result is d^2 n - d^2 (d^2 - 1) / 2, the
    unknowns less the orthogonal gauge, minus the number of eigenvalues of
    J^T J above 1e-10 times the largest (Singer & Cucuringu 2010,
    "Uniqueness of low-rank matrix completions by rigidity theory").
    """
    rng = np.random.default_rng(seed)
    ens = sample_ensemble(d, n_states, n_measurements, rng, degeneracies=degeneracies)
    p = realize(ens).T  # row i is p_i
    pins = knowledge_projective(born_table(ens), d, degeneracies).constraints
    i, j = pins["i"], pins["j"]
    if pure:
        i = np.concatenate((i, np.arange(n_states)))
        j = np.concatenate((j, np.arange(n_states)))
    n, dd = p.shape
    rows = np.arange(i.size)
    jac = np.zeros((i.size, n, dd))
    jac[rows, i] = p[j]
    jac[rows, j] += p[i]  # rows are distinct, so a diagonal pin adds 2 p_i
    jac = jac.reshape(i.size, n * dd)
    lam = np.linalg.eigvalsh(jac.T @ jac)
    rank = int(np.count_nonzero(lam > 1e-10 * lam[-1]))
    return dd * n - dd * (dd - 1) // 2 - rank


def check_rigidity_frontier(rng: np.random.Generator) -> dict:
    """At d=2 with W in {3, 5} states, the projective pins of V measurements
    flex in 6 - V directions for 3 <= V <= 6, and purity pins make every
    such pattern rigid.

    The rank of J can only drop at a special ensemble, so a special draw
    reads a larger deficiency than the generic one (about 1 in 100 single
    draws at W=3 does); each cell takes the least of three draws."""
    cells = 0
    for w in (3, 5):
        for v in range(3, 7):
            for pure, expected in ((False, 6 - v), (True, 0)):
                seeds = [int(s) for s in rng.integers(2**32, size=3)]
                got = min(rigidity_deficiency(2, w, v, pure=pure, seed=s) for s in seeds)
                if got != expected:
                    return {
                        "ok": False, "w": w, "v": v, "pure": pure, "seeds": seeds,
                        "deficiency": got, "expected": expected,
                    }
                cells += 1
    return {"ok": True, "cells": cells}


#: Largest matrix size the brute-force checks accept.
MAX_BRUTEFORCE_N = 6


def check_settings(n: int, trials: int, seed: int) -> None:
    """Raise ValueError unless ``run_all_checks`` accepts the settings."""
    if not (1 <= n <= MAX_BRUTEFORCE_N and trials >= 1 and seed >= 0):
        raise ValueError(
            f"need 1 <= n <= {MAX_BRUTEFORCE_N}, trials >= 1, seed >= 0; got {n}, {trials}, {seed}"
        )


def run_all_checks(n: int, trials: int, seed: int) -> dict:
    """Run every theory check with a shared seeded source; n bounds the
    brute-force matrix size. The settings are checked before any check runs."""
    check_settings(n, trials, seed)
    rng = np.random.default_rng(seed)
    results = {
        "norm_bound": check_norm_bound(trials, rng),
        "povm_norm_budget": check_povm_norm_budget(trials, rng),
        "rank_conjugate": check_rank_conjugate(
            min(trials, 500), rng, n=n, mc_samples=min(100_000, 200 * trials)
        ),
        "envelope": check_envelope(trials, rng, n=n),
        "rigidity_frontier": check_rigidity_frontier(rng),
    }
    results["ok"] = all(r["ok"] for r in results.values())
    return results
