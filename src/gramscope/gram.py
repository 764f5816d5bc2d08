"""Gram-matrix model: realizations, a-priori knowledge, spectral bound, rank tools.

A realization stacks the vectorized states and effects as columns of
P = (P_st | P_m); the Gram matrix is G = P^T P and carries the data table
as its upper-right W x (V*K) block. Knowledge objects pin Gram entries
to intervals [lo, hi] (exact values when lo == hi) before completion.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .hermitian import HermBasis, vectorize
from .synth import DataTable, Ensemble


@dataclass(frozen=True)
class Realization:
    """Vectorized ensemble: P_st is d^2 x W, P_m is d^2 x (V*K)."""

    p_states: np.ndarray
    p_effects: np.ndarray

    @property
    def p(self) -> np.ndarray:
        return np.hstack([self.p_states, self.p_effects])

    @property
    def n_states(self) -> int:
        return self.p_states.shape[1]


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric N x N Gram matrix with block sizes (W, V*K)."""

    values: np.ndarray
    n_states: int
    n_effects: int

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def data_block(self) -> np.ndarray:
        return self.values[: self.n_states, self.n_states :]


#: One pin: G[i, j] = G[j, i] lies in [lo, hi], with i <= j. An exact pin
#: has lo == hi.
PIN = np.dtype([("i", np.intp), ("j", np.intp), ("lo", float), ("hi", float)])


@dataclass(frozen=True)
class Knowledge:
    """A-priori knowledge of Gram entries: one array of pins (i, j, lo, hi).

    ``constraints`` accepts any sequence of (i, j, lo, hi) rows and is
    stored as an array of dtype ``PIN``. ``split`` records the
    state/effect block boundary W when known, which lets interval
    relaxation target the data block. ``flat_ij`` and ``flat_ji`` are the
    flat indices of (i, j) and (j, i) in a C-ordered n x n matrix.
    """

    n: int
    constraints: np.ndarray = field(default_factory=lambda: np.empty(0, PIN))
    split: int | None = None
    flat_ij: np.ndarray = field(init=False, repr=False, compare=False)
    flat_ji: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pins = self.constraints
        if not (isinstance(pins, np.ndarray) and pins.dtype == PIN):
            pins = np.array([tuple(p) for p in pins], dtype=PIN)
            object.__setattr__(self, "constraints", pins)
        i, j, lo, hi = pins["i"], pins["j"], pins["lo"], pins["hi"]
        bad = (i < 0) | (i > j) | (j >= self.n)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"pin index ({i[k]},{j[k]}) out of range for n={self.n}")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("pin bounds must be finite")
        if (lo > hi).any():
            k = int(np.argmax(lo > hi))
            raise ValueError(f"pin at ({i[k]},{j[k]}) needs lo <= hi")
        # A mask, not np.unique: that pulls in numpy.ma on first use.
        seen = np.zeros((self.n, self.n), dtype=bool)
        seen[i, j] = True
        if np.count_nonzero(seen) < len(pins):
            raise ValueError("two pins share an entry (duplicate pin)")
        object.__setattr__(self, "flat_ij", i * self.n + j)
        object.__setattr__(self, "flat_ji", j * self.n + i)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Views (i, j, lo, hi) of the pin array."""
        pins = self.constraints
        return pins["i"], pins["j"], pins["lo"], pins["hi"]


def realize(ens: Ensemble, basis: HermBasis) -> Realization:
    """Vectorize an ensemble: column w of P_st is vec(rho_w), column v*K+k of
    P_m is vec(E_vk)."""
    if basis.dim != ens.dim:
        raise ValueError(f"basis dim {basis.dim} does not match ensemble dim {ens.dim}")
    p_states = np.column_stack([vectorize(rho, basis) for rho in ens.states])
    cols = [vectorize(e, basis) for povm in ens.povms for e in povm]
    p_effects = np.column_stack(cols)
    return Realization(p_states=p_states, p_effects=p_effects)


def gram(real: Realization) -> GramMatrix:
    """Gram matrix G = P^T P of a realization. numpy forms P^T P by a
    symmetric rank-k update, so G is exactly symmetric."""
    p = real.p
    return GramMatrix(values=p.T @ p, n_states=real.n_states, n_effects=real.p_effects.shape[1])


def r_qm(n_states: int, n_measurements: int, d: int) -> float:
    """Operator-norm radius W + V*d of the ball containing all quantum Gram
    matrices with W states and V d-outcome POVMs."""
    if min(n_states, n_measurements, d) < 1:
        raise ValueError("W, V, d must all be >= 1")
    return float(n_states + n_measurements * d)


def projective_multiplicities(
    d: int,
    n_outcomes: int,
    n_measurements: int,
    degeneracies: list[list[int]] | list[int] | None = None,
) -> list[list[int]]:
    """Outcome multiplicities of each of V projective K-outcome measurements.

    ``degeneracies`` may be one multiplicity list applied to every
    measurement or one list per measurement; default is non-degenerate,
    which requires K = d. Raises ValueError on an inconsistent pattern.
    """
    k_, v_ = n_outcomes, n_measurements
    if degeneracies is None:
        if k_ != d:
            raise ValueError(
                f"non-degenerate projective knowledge needs K = d, got K={k_}, d={d}"
            )
        return [[1] * d] * v_
    if degeneracies and isinstance(degeneracies[0], int):
        per_v = [list(degeneracies)] * v_
    else:
        per_v = [list(m) for m in degeneracies]
    if len(per_v) != v_:
        raise ValueError(f"expected {v_} degeneracy lists, got {len(per_v)}")
    for mults in per_v:
        if any(isinstance(m, bool) or not isinstance(m, numbers.Integral) for m in mults):
            raise ValueError(f"degeneracy pattern {mults} must hold integer multiplicities")
        if len(mults) != k_ or sum(mults) != d or any(m < 1 for m in mults):
            raise ValueError(f"degeneracy pattern {mults} inconsistent with K={k_}, d={d}")
    return per_v


def knowledge_projective(
    table: DataTable,
    d: int,
    degeneracies: list[list[int]] | list[int] | None = None,
) -> Knowledge:
    """Knowledge for projective measurements with known degeneracy.

    Pins (a) every data-block entry G[w, W + v*K + k] to the observed
    frequency and (b) each within-measurement block of G_m to
    diag(multiplicities) (identity for non-degenerate). Cross-measurement
    blocks and G_st stay free. ``degeneracies`` is as in
    ``projective_multiplicities``.
    """
    w_, v_, k_ = table.n_states, table.n_measurements, table.n_outcomes
    mults = np.array(projective_multiplicities(d, k_, v_, degeneracies), dtype=float)
    # Data block: (w, W + c) for every table cell c of row w, row-major.
    # Measurement blocks: upper triangle (k, q) of each K x K block at base.
    base = (w_ + k_ * np.arange(v_))[:, None]
    ku, qu = np.triu_indices(k_)
    pins = np.empty(table.values.size + v_ * ku.size, PIN)
    pins["i"] = np.concatenate([np.repeat(np.arange(w_), v_ * k_), (base + ku).ravel()])
    pins["j"] = np.concatenate([np.tile(np.arange(w_, w_ + v_ * k_), w_), (base + qu).ravel()])
    pins["lo"] = pins["hi"] = np.concatenate(
        [table.values.ravel(), np.where(ku == qu, mults[:, ku], 0.0).ravel()]
    )
    return Knowledge(n=w_ + v_ * k_, constraints=pins, split=w_)


def knowledge_relax(kn: Knowledge, eps: float) -> Knowledge:
    """Widen the exact data-block pins (lo == hi) into intervals
    [value - eps, value + eps]; needs ``kn.split``. eps = 0 returns the
    knowledge unchanged.
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if eps == 0:
        return kn
    if kn.split is None:
        raise ValueError("data-block relaxation needs a knowledge object with a block split")
    pins = kn.constraints.copy()
    widen = (pins["lo"] == pins["hi"]) & (pins["i"] < kn.split) & (kn.split <= pins["j"])
    pins["lo"][widen] -= eps
    pins["hi"][widen] += eps
    return replace(kn, constraints=pins)


def numerical_rank(m: np.ndarray, rel_tol: float = 1e-6) -> int:
    """Number of singular values above rel_tol times the largest (0 for the
    zero matrix)."""
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be > 0, got {rel_tol}")
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def rank_tail(m: np.ndarray, rank: int) -> float:
    """l2 norm of the singular values beyond index ``rank``."""
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    return float(np.linalg.norm(s[rank:]))


def rank_certificate(g_hat: GramMatrix, target_rank: int, tau: float = 1e-4) -> bool:
    """True iff the singular-value tail of the estimate beyond ``target_rank``
    has l2 norm at most ``tau``."""
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if not 0 <= target_rank <= g_hat.n:
        raise ValueError(f"target rank {target_rank} out of range for n={g_hat.n}")
    return rank_tail(g_hat.values, target_rank) <= tau


# ---------------------------------------------------------------------------
# Serialization

def gram_to_json(g: GramMatrix) -> dict:
    return {
        "n_states": g.n_states,
        "n_effects": g.n_effects,
        "values": [[float(x) for x in row] for row in g.values],
    }
