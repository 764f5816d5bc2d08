"""Trace-minimization semidefinite completion by ADMM splitting.

The problem

    minimize  tr(G)
    s.t.      pinned entries of G lie in their intervals [lo, hi],
              0 <= G <= R * I   (spectral box),

is split over two sets: the entrywise knowledge set with the trace folded
into its prox, and the spectral box handled by eigenvalue clipping. Both
proxes are exact, so each iteration costs one dense symmetric
eigendecomposition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .gram import GramMatrix, Knowledge
from .hermitian import clip_spectrum


@dataclass(frozen=True)
class SdpProblem:
    """Completion instance: size, pinned entries, and spectral radius."""

    n: int
    knowledge: Knowledge
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if self.knowledge.n != self.n:
            raise ValueError(
                f"knowledge is for n={self.knowledge.n}, problem has n={self.n}"
            )


@dataclass(frozen=True)
class SolverOptions:
    """ADMM controls. Tolerances are absolute Frobenius-norm residuals."""

    max_iters: int = 200_000
    rho: float = 1.0
    alpha: float = 1.6
    primal_tol: float = 1e-8
    dual_tol: float = 1e-8
    adaptive_rho: bool = True
    rho_update_every: int = 100

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rho <= 0 or self.primal_tol <= 0 or self.dual_tol <= 0:
            raise ValueError("rho and tolerances must be > 0")
        if not 1.0 <= self.alpha < 2.0:
            raise ValueError(f"over-relaxation alpha must be in [1, 2), got {self.alpha}")


@dataclass
class SolverReport:
    """Convergence diagnostics of one solve."""

    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    converged: bool
    seconds: float
    objective_history: np.ndarray | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "primal_residual": self.primal_residual,
            "dual_residual": self.dual_residual,
            "objective": self.objective,
            "converged": self.converged,
            "seconds": self.seconds,
        }


def _clip_pins(x: np.ndarray, kn: Knowledge) -> np.ndarray:
    """Clip the pinned entries of ``x`` into [lo, hi] in place, mirrored to
    (j, i). An exact pin (lo == hi) lands on its value exactly."""
    i, j, lo, hi = kn.arrays()
    x[i, j] = x[j, i] = np.clip(x[i, j], lo, hi)
    return x


def project_knowledge(m: np.ndarray, kn: Knowledge) -> np.ndarray:
    """Frobenius-nearest matrix satisfying the pinned entries.

    Pinned entries are clipped into [lo, hi] at (i, j) and (j, i);
    everything else is left alone.
    """
    if m.shape != (kn.n, kn.n):
        raise ValueError(f"matrix shape {m.shape} does not match knowledge n={kn.n}")
    return _clip_pins(np.array(m, dtype=float, copy=True), kn)


def prox_trace_plus_knowledge(m: np.ndarray, kn: Knowledge, sigma: float) -> np.ndarray:
    """argmin_X { tr(X) + (sigma/2) ||X - M||_F^2 : X in knowledge set }.

    Separable over entries: every diagonal entry shifts by -1/sigma, then
    pinned entries are clipped into [lo, hi]; free off-diagonal entries
    stay put.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if m.shape != (kn.n, kn.n):
        raise ValueError(f"matrix shape {m.shape} does not match knowledge n={kn.n}")
    x = np.array(m, dtype=float, copy=True)
    x[np.diag_indices(kn.n)] -= 1.0 / sigma
    return _clip_pins(x, kn)


def solve_trace_min(
    prob: SdpProblem,
    opts: SolverOptions | None = None,
    warm_primal: np.ndarray | None = None,
) -> tuple[GramMatrix, SolverReport]:
    """Run the two-block ADMM until both residuals fall below tolerance.

    Returns the spectral-box iterate (exactly PSD with norm <= R) and a
    report. ``warm_primal`` starts the spectral-box iterate (the dual starts
    at zero). Non-convergence within ``max_iters`` is not an exception: the
    last iterate is returned with ``converged=False``. Fixed inputs and
    iteration counts give bit-identical output.
    """
    opts = opts or SolverOptions()
    n = prob.n
    kn = prob.knowledge
    radius = prob.radius
    z = np.zeros((n, n)) if warm_primal is None else np.array(warm_primal, dtype=float)
    u = np.zeros((n, n))
    if z.shape != (n, n):
        raise ValueError("warm-start matrix must be n x n")
    rho = opts.rho
    t0 = time.perf_counter()
    history = np.empty(opts.max_iters)
    r_norm = s_norm = np.inf
    it = 0
    for it in range(1, opts.max_iters + 1):
        x = prox_trace_plus_knowledge(z - u, kn, rho)
        x_relaxed = opts.alpha * x + (1.0 - opts.alpha) * z
        z_prev = z
        z = clip_spectrum(x_relaxed + u, 0.0, radius)
        u = u + x_relaxed - z
        r_norm = float(np.linalg.norm(x - z))
        s_norm = float(rho * np.linalg.norm(z - z_prev))
        history[it - 1] = float(np.trace(x))
        if r_norm <= opts.primal_tol and s_norm <= opts.dual_tol:
            break
        if opts.adaptive_rho and it % opts.rho_update_every == 0:
            # Boyd-style residual balancing; rescaled dual keeps the
            # iteration consistent and the update rule deterministic.
            if r_norm > 10.0 * s_norm:
                rho *= 2.0
                u *= 0.5
            elif s_norm > 10.0 * r_norm:
                rho *= 0.5
                u *= 2.0
    converged = r_norm <= opts.primal_tol and s_norm <= opts.dual_tol
    report = SolverReport(
        iterations=it,
        primal_residual=r_norm,
        dual_residual=s_norm,
        objective=float(np.trace(z)),
        converged=converged,
        seconds=time.perf_counter() - t0,
        objective_history=history[:it].copy(),
    )
    g_hat = GramMatrix(
        values=z,
        n_states=kn.split if kn.split is not None else n,
        n_effects=n - kn.split if kn.split is not None else 0,
    )
    return g_hat, report


def rank_conjugate(y: np.ndarray) -> float:
    """Convex conjugate of the rank function on {X PSD, ||X|| <= 1},
    evaluated at a symmetric Y: the sum of (lambda_j(Y) - 1) over
    eigenvalues exceeding 1."""
    y = np.asarray(y, dtype=float)
    lam = np.linalg.eigvalsh(0.5 * (y + y.T))
    return float(np.sum(np.maximum(lam - 1.0, 0.0)))


def solver_options_from_json(obj: dict) -> SolverOptions:
    """Build options from a JSON config dict; unknown keys are rejected."""
    known = {
        "max_iters",
        "rho",
        "alpha",
        "primal_tol",
        "dual_tol",
        "adaptive_rho",
        "rho_update_every",
    }
    extra = set(obj) - known
    if extra:
        raise ValueError(f"unknown solver option(s): {sorted(extra)}")
    return SolverOptions(**obj)
