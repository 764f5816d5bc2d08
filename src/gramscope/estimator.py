"""End-to-end Gram estimation: solve, certify rank, augment until certified.

A trial samples a hidden ensemble, pins the projective knowledge on the
observed table, runs the trace-minimization completion, and checks the
|eigenvalue| tail of the estimate against the rank of the data table.
While a converged solve fails the certificate and budget remains, one
state or one measurement is added (state first, alternating), drawn by
``sample_ensemble`` like the trial's others, and the enlarged table is
solved afresh, exactly as ``solve_table`` solves a recorded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .gram import (
    GramMatrix,
    gram,
    knowledge_projective,
    knowledge_relax,
    numerical_rank,
    r_qm,
    rank_certificate,
    rank_tail,
)
from .solver import (
    SdpProblem,
    SolverOptions,
    SolverReport,
    solve_trace_min,
)
from .synth import (
    DataTable,
    Ensemble,
    born_probabilities,
    check_types,
    from_json,
    sample_ensemble,
)


@dataclass(frozen=True)
class TrialConfig:
    """One synthetic estimation trial.

    Measurements are projective and non-degenerate, so each has K = d
    outcomes. ``shots`` None means asymptotic (exact Born probabilities);
    a finite value draws the outcome frequencies of that many shots. A
    nonzero ``epsilon`` widens the data-block constraints into intervals,
    with or without shots, as ``solve_table`` does. Every state, the
    added ones too, is mixed when ``mixed_states`` is set.
    """

    d: int
    n_states: int
    n_measurements: int
    max_augmentations: int = 20
    tau: float = 1e-4
    epsilon: float = 0.0
    shots: int | None = None
    seed: int = 0
    state_first: bool = True
    mixed_states: bool = False
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        check_types(self)
        if self.d < 1 or self.n_states < 1 or self.n_measurements < 1:
            raise ValueError("d, n_states, n_measurements must be >= 1")
        if self.max_augmentations < 0 or self.seed < 0:
            raise ValueError("max_augmentations and seed must be >= 0")
        if not isinstance(self.solver, SolverOptions):
            raise ValueError(f"solver must be SolverOptions, got {self.solver!r}")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be >= 1 when finite")


@dataclass
class GramEstimate:
    """Solver output with rank certificate, optional gauge-fixed factor, and
    the data table that was solved."""

    g_hat: GramMatrix
    certified: bool
    target_rank: int
    augmentations: int
    report: SolverReport
    factor_matrix: np.ndarray | None = None
    table: DataTable | None = None


def trial_config_from_json(obj: dict) -> TrialConfig:
    """Build a TrialConfig from a JSON dict; nested "solver" options allowed."""
    return from_json(TrialConfig, obj, solver=lambda s: from_json(SolverOptions, s))


def born_table(
    ens: Ensemble, shots: int | None = None, rng: np.random.Generator | None = None
) -> DataTable:
    """W x (V*K) data table of an ensemble: entry (w, v*K + k) is the Born
    probability p = tr(rho_w E_vk) clipped to [0, 1], or with ``shots`` the
    frequency of outcome k in ``shots`` draws from p, each (state,
    measurement) block drawn from ``rng`` in turn, state by state."""
    if shots is not None and (shots < 1 or rng is None):
        raise ValueError(f"a finite-shot table needs shots >= 1 and an rng, got {shots}, {rng}")
    w_, v_, k_ = ens.n_states, ens.n_measurements, ens.n_outcomes
    vals = np.empty((w_, v_ * k_))
    for w, rho in enumerate(ens.states):
        if rho.shape != (ens.dim, ens.dim):
            raise ValueError(f"state {w} has shape {rho.shape}, expected ({ens.dim}, {ens.dim})")
        for v, povm in enumerate(ens.povms):
            p = np.clip(born_probabilities(rho, povm), 0.0, 1.0)
            if shots is not None:
                p = rng.multinomial(shots, p / p.sum()) / shots
            vals[w, v * k_ : (v + 1) * k_] = p
    return DataTable(values=vals, n_states=w_, n_measurements=v_, n_outcomes=k_, shots=shots)


def solve_table(
    table: DataTable,
    d: int,
    degeneracies: list[list[int]] | list[int] | None = None,
    epsilon: float = 0.0,
    tau: float = 1e-4,
    solver: SolverOptions | None = None,
) -> GramEstimate:
    """Solve and certify one data table.

    Pins the projective knowledge (data-block pins widened by ``epsilon``
    when it is nonzero), trace-minimizes the completion in the spectral box
    of radius W + V*d, and certifies the estimate when the solve converged
    and its |eigenvalue| tail beyond the numerical rank of the table is
    at most ``tau``. A certified estimate carries its rank-r factor.
    """
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    kn = knowledge_projective(table, d, degeneracies)
    if epsilon:
        kn = knowledge_relax(kn, epsilon)
    target_rank = numerical_rank(table.values)
    prob = SdpProblem(knowledge=kn, radius=r_qm(table.n_states, table.n_measurements, d))
    g_hat, report = solve_trace_min(prob, solver)
    certified = rank_certificate(g_hat, target_rank, tau) and report.converged
    return GramEstimate(
        g_hat=g_hat,
        certified=certified,
        target_rank=target_rank,
        augmentations=0,
        report=report,
        factor_matrix=factor(g_hat, target_rank) if certified else None,
        table=table,
    )


def estimate(
    cfg: TrialConfig, rng: np.random.Generator | None = None
) -> tuple[GramEstimate, Ensemble]:
    """Run one full estimation trial; returns the estimate and the hidden
    ground-truth ensemble for evaluation.

    Each step is one ``solve_table`` on the current table, so the result
    is exactly what ``solve_table`` gives on the final table. A solve that
    stops at its iteration cap is never certified, and it ends the trial
    rather than start a larger solve under the same cap. An unconverged
    solve or an exhausted augmentation budget yields ``certified=False``
    rather than an exception.
    """
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    ens = sample_ensemble(
        cfg.d, cfg.n_states, cfg.n_measurements, rng, mixed=cfg.mixed_states
    )
    table = born_table(ens, cfg.shots, rng)

    augmentations = 0
    add_state_next = cfg.state_first
    while True:
        est = solve_table(table, cfg.d, epsilon=cfg.epsilon, tau=cfg.tau, solver=cfg.solver)
        if est.certified or not est.report.converged or augmentations >= cfg.max_augmentations:
            break
        if add_state_next:
            new = sample_ensemble(cfg.d, 1, 0, rng, mixed=cfg.mixed_states).states
            rows = born_table(replace(ens, states=new), cfg.shots, rng).values
            vals = np.vstack([table.values, rows])
            ens = replace(ens, states=ens.states + new)
        else:
            new = sample_ensemble(cfg.d, 0, 1, rng).povms
            cols = born_table(replace(ens, povms=new), cfg.shots, rng).values
            vals = np.hstack([table.values, cols])
            ens = replace(ens, povms=ens.povms + new)
        table = replace(
            table, values=vals, n_states=ens.n_states, n_measurements=ens.n_measurements
        )
        add_state_next = not add_state_next
        augmentations += 1

    est.augmentations = augmentations
    return est, ens


@dataclass
class Metrics:
    """Comparison of an estimate against the hidden ground truth."""

    max_entry_error: float
    frobenius_error: float
    success: bool
    rank_tail: float
    data_block_error: float
    trace_true: float


def evaluate(
    est: GramEstimate,
    truth: Ensemble,
    threshold: float = 1e-3,
) -> Metrics:
    """Entrywise and Frobenius error of the estimate against the true Gram
    matrix, plus rank tail, data-block reproduction error and the true
    trace. ``success`` is max-entry error below ``threshold``."""
    g_true = gram(truth)
    if g_true.n != est.g_hat.n:
        raise ValueError(
            f"estimate is {est.g_hat.n} x {est.g_hat.n}, ground truth is {g_true.n} x {g_true.n}"
        )
    diff = est.g_hat.values - g_true.values
    max_err = float(np.max(np.abs(diff)))
    return Metrics(
        max_entry_error=max_err,
        frobenius_error=float(np.linalg.norm(diff)),
        success=max_err < threshold,
        rank_tail=rank_tail(est.g_hat, est.target_rank),
        data_block_error=float(np.max(np.abs(est.g_hat.data_block - g_true.data_block))),
        trace_true=float(np.trace(g_true.values)),
    )


def factor(g_hat: GramMatrix, rank: int) -> np.ndarray:
    """Rank-r factor P with P^T P the best rank-r PSD approximation of the
    estimate, from the top-r pairs of its spectrum. Any two valid factors
    differ by a left orthogonal transformation."""
    if not 1 <= rank <= g_hat.n:
        raise ValueError(f"rank must be in [1, {g_hat.n}], got {rank}")
    lam, u = g_hat.spectrum
    top = lam[:rank]
    if top.min() < -1e-8:
        raise ValueError(f"estimate is not PSD enough to factor (lambda={top.min():.3e})")
    return np.sqrt(np.clip(top, 0.0, None))[:, None] * u[:, :rank].T


def gauge_distance(p_a: np.ndarray, p_b: np.ndarray) -> float:
    """min over orthogonal O of ||O P_a - P_b||_F, via the orthogonal
    Procrustes solution. Zero iff the two factors share a Gram matrix."""
    if p_a.shape != p_b.shape:
        raise ValueError(f"shape mismatch: {p_a.shape} vs {p_b.shape}")
    u, _, vt = np.linalg.svd(p_b @ p_a.T)
    o = u @ vt
    return float(np.linalg.norm(o @ p_a - p_b))
