"""End-to-end Gram estimation: solve, certify rank, augment until certified.

``SolveConfig`` declares and checks the settings of one solve;
``TrialConfig`` and the CLI's ``DataConfig`` extend it, and
``solve_table`` solves and certifies one table under any of them. A trial
starts from the ensemble and table that ``draw_trial`` draws (the two
``gramscope synth`` writes) and solves each table with ``solve_table``.
A trial grows only on a ``rank_tail`` or ``purity`` refusal, the two that
more data can fix, while budget remains: by one state (a row) or one
measurement (K columns), state first and alternating, drawn by
``sample_ensemble`` like the others. Any other outcome ends it.

Two data conditions gate the checks. Exact pins (``epsilon`` 0) pin each
data-block entry to its value; the purity check needs them. Exact data
are exact pins on a table with no shots; the dimension witness needs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Annotated

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
    field_types,
    from_json,
    projective_multiplicities,
    sample_ensemble,
)


#: Largest dimension a config accepts. ``evaluate`` realizes the true states
#: and effects in ``herm_basis(d)``, d**2 complex d x d matrices: 16 * d**4
#: bytes, 268 MB at d = 64 and growing as d**4 beyond it.
MAX_D = 64


@dataclass(frozen=True, kw_only=True)
class SolveConfig:
    """The settings of one Gram completion, as ``solve_table`` runs it.

    Measurements are projective. ``degeneracies`` is one multiplicity list
    (K positive integers summing to d) that every measurement shares;
    without it they are non-degenerate, with K = d outcomes. A nonzero
    ``epsilon`` widens the data-block pins into intervals of that
    half-width, and ``tau`` bounds the eigenvalue tail that the rank
    certificate accepts. Every check on these settings is made here, once,
    for each config that extends this one.
    """

    d: Annotated[int, (">=", 1), ("<=", MAX_D)]
    degeneracies: list[int] | None = None
    epsilon: Annotated[float, (">=", 0)] = 0.0
    tau: Annotated[float, (">", 0)] = 1e-4
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        check_types(self)
        projective_multiplicities(self.d, None, self.degeneracies)

    @property
    def pure_states(self) -> bool:
        """Whether every state is declared pure, so that each diagonal entry
        of the states' block is 1. With exact pins (``epsilon`` 0; exact
        data are exact pins on a table with no shots) the certificate then
        also holds their largest distance from 1 to ``tau``, shots or not,
        and a ``purity`` refusal grows a trial as a ``rank_tail`` one does.
        Bare solve settings declare nothing about the states, so it is
        false here; ``TrialConfig`` derives it from ``mixed_states`` and
        the CLI's ``DataConfig`` sets it."""
        return False


@dataclass(frozen=True, kw_only=True)
class TrialConfig(SolveConfig):
    """One synthetic estimation trial: the settings of each of its solves
    and of the ensemble it draws and grows.

    Every measurement, the added ones too, shares the degeneracy pattern.
    ``shots`` None means asymptotic (exact Born probabilities); a finite
    value draws the outcome frequencies of that many shots, at most 2**63 - 1
    (numpy's multinomial takes a C long). ``epsilon`` applies with or without
    shots. Every state, the added ones too, is mixed when ``mixed_states`` is
    set; otherwise they are pure, which the certificate checks
    (``pure_states``). ``gramscope synth`` writes the ensemble and table a
    trial starts from.
    """

    n_states: Annotated[int, (">=", 1)]
    n_measurements: Annotated[int, (">=", 1)]
    max_augmentations: Annotated[int, (">=", 0)] = 20
    shots: Annotated[int, (">=", 1), ("<=", 2**63 - 1)] | None = None
    seed: Annotated[int, (">=", 0)] = 0
    state_first: bool = True
    mixed_states: bool = False

    @property
    def pure_states(self) -> bool:
        return not self.mixed_states


@dataclass
class GramEstimate:
    """Solver output with rank certificate (``rank_tail`` is the tail it holds
    to ``tau``), optional gauge-fixed factor, and the data table that was
    solved. ``purity_residual`` is max_w |G_ww - 1| over the states when they
    are declared pure, else None. ``refusal`` names the first check that an
    uncertified estimate failed, None when it is certified (see
    ``solve_table``). ``report`` is the last solve's; ``solves`` and
    ``total_iterations`` count the solves and their ADMM iterations over the
    whole trial."""

    g_hat: GramMatrix
    certified: bool
    target_rank: int
    rank_tail: float
    augmentations: int
    report: SolverReport
    refusal: str | None = None
    purity_residual: float | None = None
    factor_matrix: np.ndarray | None = None
    table: DataTable | None = None
    solves: int = 0
    total_iterations: int = 0


def trial_config_from_json(obj: dict) -> TrialConfig:
    """``from_json(TrialConfig, obj)``, kept only because ``perfbench`` imports it."""
    return from_json(TrialConfig, obj)


def born_table(
    ens: Ensemble, shots: int | None = None, rng: np.random.Generator | None = None
) -> DataTable:
    """W x (V*K) data table of an ensemble: entry (w, v*K + k) is the Born
    probability p = tr(rho_w E_vk) clipped to [0, 1], or with ``shots`` the
    frequency of outcome k in ``shots`` draws from p, each (state,
    measurement) block drawn from ``rng`` in turn, state by state. The whole
    table is one ``born_probabilities`` contraction of the ensemble's stacks,
    and its shots one multinomial call."""
    if shots is not None and (shots < 1 or rng is None):
        raise ValueError(f"a finite-shot table needs shots >= 1 and an rng, got {shots}, {rng}")
    w_, v_, k_ = ens.n_states, ens.n_measurements, ens.n_outcomes
    p = np.clip(born_probabilities(ens.states[:, None, None], ens.povms), 0.0, 1.0)
    if shots is not None:
        p = rng.multinomial(shots, p / p.sum(axis=2, keepdims=True)) / shots
    return DataTable(
        values=p.reshape(w_, v_ * k_), n_states=w_, n_measurements=v_, n_outcomes=k_, shots=shots
    )


def solve_table(table: DataTable, cfg: SolveConfig) -> GramEstimate:
    """Solve and certify one data table under the checked settings ``cfg``.

    Pins the projective knowledge (data-block pins widened by
    ``cfg.epsilon`` when it is nonzero) and trace-minimizes the completion
    in the spectral box of radius W + V*d. The estimate is certified when it
    passes every check below; otherwise ``refusal`` names the first it
    fails, in this order:

    - ``unconverged``: the solve stopped at its iteration cap;
    - ``dimension``: exact data whose numerical rank exceeds d^2, which no
      d-dimensional model produces, because its data block is P_st^T P_m
      of rank <= d^2 (a dimension witness: Brunner et al. 2008, "Testing
      the dimension of Hilbert spaces");
    - ``rank_tail``: the |eigenvalue| tail beyond the table's numerical rank
      exceeds ``cfg.tau``;
    - ``purity``: with pure states and exact pins, the purity residual
      exceeds ``cfg.tau``.

    Exact pins are ``cfg.epsilon`` 0; exact data are exact pins on a table
    with no shots. ``estimate`` grows a trial only on ``rank_tail`` or
    ``purity``, the refusals that more data can fix. A certified estimate
    carries its rank-r factor. A ``TrialConfig`` is a ``SolveConfig``, so
    ``solve_table(est.table, cfg)`` re-runs a trial's last solve.
    """
    exact_pins = cfg.epsilon == 0
    exact_data = exact_pins and table.shots is None
    kn = knowledge_projective(table, cfg.d, cfg.degeneracies)
    if not exact_pins:
        kn = knowledge_relax(kn, cfg.epsilon)
    target_rank = numerical_rank(table.values)
    prob = SdpProblem(knowledge=kn, radius=r_qm(table.n_states, table.n_measurements, cfg.d))
    g_hat, report = solve_trace_min(prob, cfg.solver)
    purity = None
    if cfg.pure_states:
        purity = float(np.abs(g_hat.values.diagonal()[: g_hat.n_states] - 1.0).max(initial=0.0))
    passed = {  # all run: the benchmark's tracer pairs each solve with one rank_certificate
        "unconverged": report.converged,
        "dimension": not exact_data or target_rank <= cfg.d**2,
        "rank_tail": rank_certificate(g_hat, target_rank, cfg.tau),
        "purity": purity is None or not exact_pins or purity <= cfg.tau,
    }
    refusal = next((check for check, ok in passed.items() if not ok), None)
    certified = refusal is None
    return GramEstimate(
        g_hat=g_hat,
        certified=certified,
        target_rank=target_rank,
        rank_tail=rank_tail(g_hat, target_rank),
        augmentations=0,
        report=report,
        refusal=refusal,
        purity_residual=purity,
        factor_matrix=factor(g_hat, target_rank) if certified else None,
        table=table,
        solves=1,
        total_iterations=report.iterations,
    )


def draw_trial(cfg: TrialConfig, rng: np.random.Generator) -> tuple[Ensemble, DataTable]:
    """The hidden ensemble and the table a trial starts from, drawn from
    ``rng`` (``default_rng(cfg.seed)`` in ``estimate`` and ``gramscope
    synth``): the ensemble, then the table's multinomials state by state."""
    ens = sample_ensemble(
        cfg.d, cfg.n_states, cfg.n_measurements, rng, cfg.mixed_states, cfg.degeneracies
    )
    return ens, born_table(ens, cfg.shots, rng)


def estimate(cfg: TrialConfig) -> tuple[GramEstimate, Ensemble]:
    """Run one full estimation trial; returns the estimate and the hidden
    ground-truth ensemble for evaluation.

    Each step is one ``solve_table`` on the current table, so the result
    is exactly what ``solve_table`` gives on the final table. The trial
    grows only on a ``rank_tail`` or ``purity`` refusal, the two that more
    data can fix, and only while ``cfg.max_augmentations`` allows; any
    other outcome ends it. So a certified estimate ends it, and so do an
    ``unconverged`` solve (a larger solve under the same cap would not do
    better) and a ``dimension`` refusal (more data cannot fit a model of
    the wrong dimension). A refused estimate is returned with
    ``certified=False``, not raised.
    """
    rng = np.random.default_rng(cfg.seed)
    ens, table = draw_trial(cfg, rng)
    iterations = []  # ADMM iterations of each solve, augmentations + 1 of them
    while True:
        est = solve_table(table, cfg)
        iterations.append(est.report.iterations)
        if est.refusal not in ("rank_tail", "purity") or len(iterations) > cfg.max_augmentations:
            break
        add_state = int(cfg.state_first == (len(iterations) % 2 == 1))
        new = sample_ensemble(
            cfg.d, add_state, 1 - add_state, rng, cfg.mixed_states, cfg.degeneracies
        )
        # a new state gives a row against every measurement, a measurement K columns
        grown = "states" if add_state else "povms"
        part = born_table(replace(ens, **{grown: getattr(new, grown)}), cfg.shots, rng).values
        values = np.concatenate([table.values, part], axis=1 - add_state)
        ens = replace(ens, **{grown: np.concatenate([getattr(ens, grown), getattr(new, grown)])})
        table = replace(
            table, values=values, n_states=ens.n_states, n_measurements=ens.n_measurements
        )

    est.augmentations = len(iterations) - 1
    est.solves = len(iterations)
    est.total_iterations = sum(iterations)
    return est, ens


@dataclass
class Metrics:
    """Comparison of an estimate against the hidden ground truth."""

    max_entry_error: float
    frobenius_error: float
    success: bool
    data_block_error: float
    trace_true: float


#: A trial succeeds when its largest entry error is below this.
SUCCESS_TOL = 1e-3


def evaluate(est: GramEstimate, truth: Ensemble) -> Metrics:
    """Entrywise and Frobenius error of the estimate against the true Gram
    matrix, plus data-block reproduction error and the true trace.
    ``success`` is max-entry error below ``SUCCESS_TOL``."""
    g_true = gram(truth)
    split = (est.g_hat.n_states, est.g_hat.n_effects)
    true_split = (g_true.n_states, g_true.n_effects)
    if split != true_split:
        raise ValueError(f"estimate blocks (W, V*K) are {split}, ground truth's {true_split}")
    diff = est.g_hat.values - g_true.values
    max_err = float(np.max(np.abs(diff)))
    return Metrics(
        max_entry_error=max_err,
        frobenius_error=float(np.linalg.norm(diff)),
        success=max_err < SUCCESS_TOL,
        data_block_error=float(np.max(np.abs(est.g_hat.data_block - g_true.data_block))),
        trace_true=float(np.trace(g_true.values)),
    )


def estimate_record(est: GramEstimate, metrics: Metrics | None) -> dict:
    """The flat record of an estimate, as ``estimate.json`` and every batch
    trial record hold it: each scalar field of ``est`` (``purity_residual``'s
    ``float | None`` and ``refusal``'s ``str | None`` too), each field of its
    last solve's report but the wall time ``seconds``, and each field of
    ``metrics``, all None when there is no ground truth."""
    scalars = (bool, int, float, float | None, str | None)
    return {
        **{n: getattr(est, n) for n, kind in field_types(GramEstimate).items() if kind in scalars},
        **{n: getattr(est.report, n) for n in field_types(SolverReport) if n != "seconds"},
        **{n: None if metrics is None else getattr(metrics, n) for n in field_types(Metrics)},
    }


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
