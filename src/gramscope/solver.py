"""Trace-minimization semidefinite completion by ADMM splitting.

The problem

    minimize  tr(G)
    s.t.      pinned entries of G lie in their intervals [lo, hi],
              0 <= G <= R * I   (spectral box),

is split over two sets: the entrywise knowledge set with the trace folded
into its prox, and the spectral box handled by eigenvalue clipping. Each
iteration clips once: by a dense symmetric eigendecomposition, or by a
partial one from a warm Ritz subspace whose error is certified small
enough for inexact ADMM. The ADMM step, plain Douglas-Rachford splitting
without over-relaxation at a penalty that starts at RHO / sqrt(n), is run
as a fixed-point map and extrapolated by safeguarded Anderson acceleration
(Fu, Zhang & Boyd 2020, "Anderson accelerated Douglas-Rachford
splitting"), which cuts the number of iterations. The loop keeps its
iterates as weighted upper triangles ("svec") and stops on the fixed-point
residual of the evaluated point.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .gram import GramMatrix, Knowledge
from .hermitian import WarmSpectrum, _solve, clip_spectrum
from .synth import check_types

#: Initial ADMM penalty rho times sqrt(n): a solve of size n starts at
#: rho = RHO / sqrt(n), 3.10 at n=15, 0.89 at n=180 and 0.63 at n=360.
#: Measured without over-relaxation on every instance of the benchmark's
#: pools, as the median of iterations over the pool baseline on
#: d2_single_solve (256 instances), d2_shots_augment (128) and
#: d3_large_solve (24):
#:   RHO = 10            0.191, 0.339, 0.274 (d3: 2,591 full eigh)
#:   RHO = 12            0.196, 0.328, 0.290 (d3: 2,349 full eigh)
#:   RHO = 16            0.218, 0.330, 0.322 (d3: 2,773 full eigh)
#:   constant rho = 2    0.190, 0.369, 0.396
#:   constant rho = 0.5  d3: 0.239, but 6,358 full eigh
#:   rho = 1, over-relaxation 1.6 (the former step): 0.246, 0.399, 0.343
#: 12 was the most even across the three pools.
RHO = 12.0
#: Iterations between two residual-balancing updates of rho (Boyd et al.
#: 2011, "Distributed optimization and statistical learning via ADMM",
#: section 3.4.1). Balancing is kept for the finite-shot solves: never
#: updating rho took the 128 instances of the benchmark's d2_shots_augment
#: pool from 146,820 to 250,443 iterations in total, up to 8.1 times as
#: many on one instance, and two instances no longer converged within
#: 40,000 iterations. On the 24 of the d3_large_solve pool rho never
#: changed, so it costs nothing there. No fixed RHO replaces it: with
#: balancing off, on d2_shots_augment pool instances 0-39, RHO in
#: {2, 3, 4, 6, 8, 12, 18, 24} gave median iterations over the pool
#: baseline of 0.374 (RHO 12) to 0.521 (RHO 2), against 0.322 with
#: balancing, and 60,633 (RHO 3) to 174,404 (RHO 24) iterations in total
#: against 63,229; from RHO 12 up one instance did not converge.
RHO_UPDATE_EVERY = 100
#: Steps the Anderson extrapolation combines.
ANDERSON_MEMORY = 20
#: Relative ridge on the diagonal of the Anderson normal equations.
ANDERSON_RIDGE = 1e-8
#: Error a partial spectral projection may make, as a fraction of the
#: fixed-point residual r at the previous point. It is the error budget
#: of each inexact step, below the bound 1 of inexact ADMM (Eckstein &
#: Silva 2013, "A practical relative error criterion for augmented
#: Lagrangians"), not a stopping rule. Swept with warm bases of the
#: positive eigen- or Ritz vectors only, over the 24 instances of the
#: benchmark's d3_large_solve pool (n=180, one BLAS thread), as
#: iterations / full eigendecompositions / failed partial attempts:
#:   0.3   7,190 / 2,644 / 995
#:   0.5   7,138 / 2,416 / 761
#:   0.7   7,226 / 2,321 / 666
#: against 7,447 / 2,349 / 916 at 0.3 with 4 more Ritz vectors kept in
#: each basis. 0.5 takes the fewest iterations and saves 9% of the full
#: steps of 0.3; past it the full steps fall more slowly than the
#: iterations rise. At d=2 no partial step is tried below n=33
#: (``hermitian.PARTIAL_FRACTION``).
PARTIAL_TOL = 0.5


@dataclass(frozen=True)
class SdpProblem:
    """Completion instance: pinned entries and spectral radius. Its size n
    is the knowledge's."""

    knowledge: Knowledge
    radius: Annotated[float, (">", 0)]

    def __post_init__(self):
        check_types(self)

    @property
    def n(self) -> int:
        return self.knowledge.n


@dataclass(frozen=True)
class SolverOptions:
    """ADMM iteration cap and stopping tolerances. A solve stops when the
    fixed-point residual r = ||x - z||_F of the evaluated point is at most
    ``primal_tol`` and rho * r, which bounds the stationarity residual, at
    most ``dual_tol`` (see ``solve_trace_min``); the step itself is fixed
    by ``RHO`` and ``RHO_UPDATE_EVERY``."""

    max_iters: Annotated[int, (">=", 1)] = 200_000
    primal_tol: Annotated[float, (">", 0)] = 1e-8
    dual_tol: Annotated[float, (">", 0)] = 1e-8

    def __post_init__(self):
        check_types(self)


@dataclass
class SolverReport:
    """Convergence diagnostics of one solve.

    ``primal_residual`` is r = ||x - z||_F and ``dual_residual`` is
    rho * r, both at the last evaluated point: r bounds the distance of
    the returned z to the knowledge set, and rho * r the stationarity
    residual. ``rho`` is the penalty when the solve stopped."""

    iterations: int
    primal_residual: float
    dual_residual: float
    rho: float
    objective: float
    converged: bool
    seconds: float
    rejected_steps: int = 0
    partial_steps: int = 0
    failed_partial_steps: int = 0


_TINY = np.finfo(float).tiny


def _svec_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index maps of the weighted half-vectorization ("svec") of symmetric
    n x n matrices: the n diagonal entries, then the strict upper triangle
    row by row, with off-diagonal entries times sqrt(2) so that dot
    products of svecs are Frobenius products.

    Returns ``upper``, the flat indices with ``svec = m.take(upper) * weight``;
    ``weight``, 1 on diagonal and sqrt(2) on off-diagonal entries; and
    ``full``, an n x n index array with ``m = (svec / weight).take(full)``,
    which is exactly symmetric.

    The iterates are svecs rather than full n x n matrices because the
    full ones were measured slower (2 cores, one BLAS thread): with them
    ``trial_cost.p50`` of the benchmark's d3_large_solve went from
    0.199-0.216 to 0.230-0.234 and ``peak_rss_mb`` from 47.8 to 50.0, since
    the float32 Anderson history doubles in size, and d2_shots_augment went
    from 0.54-0.61 to 0.62-0.63, slower in 4 of 4 alternating pairs on each;
    d2_single_solve did not change.
    """
    rows, cols = np.triu_indices(n, 1)
    rows = np.concatenate((np.arange(n), rows))
    cols = np.concatenate((np.arange(n), cols))
    full = np.empty((n, n), dtype=np.intp)
    full[rows, cols] = full[cols, rows] = np.arange(rows.size)
    weight = np.full(rows.size, np.sqrt(2.0))
    weight[:n] = 1.0
    return rows * n + cols, weight, full


def _pin_rule(kn: Knowledge, at: np.ndarray, scale: np.ndarray | float = 1.0):
    """The knowledge projection on a flat array whose entry ``at[p]`` holds
    the entry of pin p times ``scale[p]``.

    Returns a function that, in place, writes every pin's entry: with
    exact pins alone (lo == hi) one ``put`` of the values, otherwise one
    ``put`` that clips every pin into [lo, hi] (both times ``scale``),
    which writes an exact pin's value as well.
    """
    pins = kn.constraints
    lo = pins["lo"] * scale
    hi = pins["hi"] * scale
    # Exact pins alone skip the clip: 0.4 against 1.5 us at n=15 (65 pins),
    # of a 55 us iteration of an asymptotic d=2 solve. End to end, one clip
    # rule for every pin (bit-identical on all 408 benchmark pool instances)
    # was slower in 4 of 4 alternating pairs on d2_single_solve
    # (trial_cost.p50 medians 0.3318 -> 0.3410) and on d3_large_solve
    # (0.1568 -> 0.1616); a second set of 4 pairs read 0.3202 -> 0.3289
    # (4 of 4) and 0.1548 -> 0.1553 (3 of 4). With interval pins, one clip
    # of every pin costs 1.45 us at n=15 (65 pins, 15 of them exact) where a
    # put of the exact pins plus a clip of the others cost 1.63 us; on
    # d2_shots_augment it read 0.4371 -> 0.4327, faster in 15 of 20
    # alternating pairs, within the parent's quartile distance of 0.0129.
    if np.array_equal(lo, hi):
        return lambda x: x.put(at, lo)
    return lambda x: x.put(at, np.minimum(np.maximum(x.take(at), lo), hi))


def prox_trace_plus_knowledge(m: np.ndarray, kn: Knowledge, sigma: float) -> np.ndarray:
    """argmin_X { tr(X) + (sigma/2) ||X - M||_F^2 : X in knowledge set }.

    Separable over entries: every diagonal entry shifts by -1/sigma, then
    pinned entries are clipped into [lo, hi] at (i, j) and mirrored to
    (j, i); free off-diagonal entries stay put.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if m.shape != (kn.n, kn.n):
        raise ValueError(f"matrix shape {m.shape} does not match knowledge n={kn.n}")
    x = np.array(m, dtype=float, copy=True)
    x.flat[:: kn.n + 1] -= 1.0 / sigma
    i, j = kn.constraints["i"], kn.constraints["j"]
    _pin_rule(kn, i * kn.n + j)(x)
    x[j, i] = x[i, j]
    return x


def solve_trace_min(
    prob: SdpProblem, opts: SolverOptions | None = None
) -> tuple[GramMatrix, SolverReport]:
    """Run the ADMM, Anderson-accelerated, until the fixed-point residual
    falls below tolerance.

    With v = x + u, one ADMM step is the Douglas-Rachford fixed-point map
    F(v) = v + (x - z), with no over-relaxation, where z = clip_spectrum(v)
    and x = prox(2z - v), the prox of the trace over the knowledge set. The
    loop keeps v, z, x and F(v) as svecs (weighted upper triangles, see
    ``_svec_maps``), on which the prox is entrywise: the diagonal shifts by
    -1/rho, exact pins are written and interval pins clipped. A point is
    expanded to an exactly symmetric n x n matrix only for
    ``clip_spectrum``, and only the upper triangle of its result is read
    back. Each iteration evaluates F at one point, so an iteration is
    exactly one ``clip_spectrum`` call: a full eigendecomposition, or a
    certified partial one from the positive eigen- or Ritz vectors of the
    last step (``SolverReport.partial_steps`` counts these,
    ``failed_partial_steps`` the attempts that were not certified and fell
    back to the full eigendecomposition) whose Frobenius error is at most
    ``PARTIAL_TOL * r``, half the residual r of the previous point: the
    relative-error rule of inexact ADMM. The next point is the type-II
    Anderson extrapolation of the last ``ANDERSON_MEMORY`` steps, whose
    coefficients come from one LAPACK solve called directly
    (``hermitian._solve``: the result of ``numpy.linalg.solve`` without its
    per-call wrapper, which takes about half of that call's time at memory
    20); when an extrapolated point has a larger
    residual r than the point before it, the solver takes the plain step F
    from that earlier point instead and drops the history
    (``SolverReport.rejected_steps`` counts these). Every
    ``RHO_UPDATE_EVERY`` iterations rho, which starts at ``RHO / sqrt(n)``
    and is reported as ``SolverReport.rho`` when the solve stops, is
    balanced against r and the z-step rho * ||z - z_prev||_F, and the
    history is dropped whenever rho changes.

    The loop stops on the residual of the evaluated pair, whatever point
    Anderson chose: rho (v - z) is a normal of the box at z, and
    rho (2z - v - x) a subgradient of the trace plus the knowledge
    indicator at x; they sum to rho (z - x). So r = ||x - z||_F bounds
    the infeasibility, and rho * r the stationarity residual. The solve
    has converged when r <= ``primal_tol`` and rho * r <= ``dual_tol``;
    then every pinned entry of the returned z lies within ``primal_tol``
    of its interval.

    Returns the spectral-box iterate z (exactly PSD with norm <= R) and a
    report. Every solve starts at v = 0, which lies in the box: its clip is
    z = 0 without an eigendecomposition, and that free evaluation is not
    counted as an iteration.
    Non-convergence within ``max_iters`` is not an exception: the last
    iterate is returned with ``converged=False``. Fixed inputs and
    iteration counts give bit-identical output.
    """
    opts = opts or SolverOptions()
    n = prob.n
    kn = prob.knowledge
    radius = prob.radius
    upper, weight, full = _svec_maps(n)
    at = full[kn.constraints["i"], kn.constraints["j"]]
    pin = _pin_rule(kn, at, weight.take(at))
    v = np.zeros(upper.size)
    z_mat = np.zeros((n, n))
    # The Anderson history stores differences of F(v) and of the residual
    # x - z in float32: a difference loses only relative precision there.
    df = np.empty((ANDERSON_MEMORY, upper.size), dtype=np.float32)
    dg = np.empty((ANDERSON_MEMORY, upper.size), dtype=np.float32)
    normal = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))  # dg dg^T plus the ridge
    steps = 0  # differences stored since the history was last cleared
    last = None  # (F(v), x - z, r) at the last accepted point
    extrapolated = False  # whether the next point v is an extrapolation
    rejected = 0
    # The warm path halves the d=3 cost at tolerance 1e-7: with every clip a
    # full eigh, the 24 d3_large_solve pool instances took 8,299 iterations
    # and 8,299 full eigh against 7,447 and 2,349, and that workload's
    # trial_cost.p50 (seed 2026) went from 0.168-0.173 to 0.317-0.325 in
    # 3 alternating pairs.
    warm = WarmSpectrum()
    rho = RHO / math.sqrt(n)
    t0 = time.perf_counter()
    z = v  # z_prev of the first point
    r_norm = np.inf
    # ``it`` counts clips; evaluation 0 is the free one of v = 0
    for it in range(opts.max_iters + 1):
        z_prev = z
        if it:
            warm.tol = PARTIAL_TOL * r_norm
            z_mat = clip_spectrum((v / weight).take(full), radius, warm=warm)
            z = z_mat.take(upper)
            z *= weight
        if it and it % RHO_UPDATE_EVERY == 0:
            # Boyd-style residual balancing on the last point's residuals.
            # v - z is a normal of the box at z, so rescaling it keeps z the
            # clip of v. F changes with rho, so the history goes.
            scale = 0.5 if r_norm > 10.0 * s_norm else 2.0 if s_norm > 10.0 * r_norm else 1.0
            if scale != 1.0:
                rho /= scale
                v = z + scale * (v - z)
                last, steps, extrapolated = None, 0, False
        x = z + z
        x -= v
        x[:n] -= 1.0 / rho
        pin(x)
        x -= z
        r_norm = math.sqrt(x @ x)
        if (it + 1) % RHO_UPDATE_EVERY == 0:  # the point before a balancing
            step = z - z_prev
            s_norm = rho * math.sqrt(step @ step)
        if r_norm <= opts.primal_tol and rho * r_norm <= opts.dual_tol:
            break
        if extrapolated and r_norm > last[2]:
            # Safeguard: take the plain step from the last accepted point
            # and start the history afresh from there.
            rejected += 1
            v = last[0]
            last, steps, extrapolated = None, 0, False
            continue
        f = x + v
        extrapolated = last is not None
        if extrapolated:
            slot = steps % ANDERSON_MEMORY
            np.subtract(f, last[0], out=df[slot])
            np.subtract(x, last[1], out=dg[slot])
            steps += 1
            k = min(steps, ANDERSON_MEMORY)
            normal[slot, :k] = normal[:k, slot] = dg[:k] @ dg[slot]
            # the floor keeps an all-zero difference from making it singular
            normal[slot, slot] += ANDERSON_RIDGE * normal[slot, slot] + _TINY
            gamma = _solve(normal[:k, :k], dg[:k] @ x.astype(np.float32))
            v = f - gamma.astype(np.float32) @ df[:k]
        else:
            v = f
        last = (f, x, r_norm)
    converged = r_norm <= opts.primal_tol and rho * r_norm <= opts.dual_tol
    report = SolverReport(
        iterations=it,
        primal_residual=r_norm,
        dual_residual=rho * r_norm,
        rho=rho,
        objective=float(np.trace(z_mat)),
        converged=converged,
        seconds=time.perf_counter() - t0,
        rejected_steps=rejected,
        partial_steps=warm.partial_steps,
        failed_partial_steps=warm.failed_partial_steps,
    )
    g_hat = GramMatrix(values=z_mat, n_states=kn.split if kn.split is not None else n)
    return g_hat, report
