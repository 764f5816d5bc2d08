"""Gram-matrix model: realizations, a-priori knowledge, spectral bound, rank tools.

``realize(ens)`` stacks the vectorized states and effects as the columns
of P = (P_st | P_m); ``gram(ens)`` is G = P^T P, which carries the data
table as its upper-right W x (V*K) block. G fixes P only up to a rotation
of Hermitian space, so the basis P is expanded in is the package's
``herm_basis`` and no caller chooses one. Knowledge objects pin Gram entries
to intervals [lo, hi] (exact values when lo == hi) before completion.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Annotated

import numpy as np

from .hermitian import vectorize
from .synth import DataTable, Ensemble, check_types, projective_multiplicities

#: Relative singular-value cut of ``numerical_rank``.
RANK_REL_TOL = 1e-6


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric N x N Gram matrix with block sizes (W, V*K). ``values`` is
    stored as its own read-only float copy of what it is given, so it
    cannot change under the cached ``spectrum``."""

    values: np.ndarray
    n_states: int

    def __post_init__(self):
        check_types(self)
        vals = np.array(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError(f"Gram values must be a square matrix, got shape {vals.shape}")
        if not 0 <= self.n_states <= self.n:
            raise ValueError(f"n_states={self.n_states} is not in [0, {self.n}]")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_effects(self) -> int:
        return self.n - self.n_states

    @property
    def data_block(self) -> np.ndarray:
        return self.values[: self.n_states, self.n_states :]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Descending eigenvalues and their eigenvectors as columns, both
        read-only, from one ``eigh`` of ``values`` made on first use."""
        lam, u = np.linalg.eigh(self.values)
        lam.flags.writeable = u.flags.writeable = False
        return lam[::-1], u[:, ::-1]


#: One pin: G[i, j] = G[j, i] lies in [lo, hi], with i <= j. An exact pin
#: has lo == hi.
PIN = np.dtype([("i", np.intp), ("j", np.intp), ("lo", float), ("hi", float)])


@dataclass(frozen=True)
class Knowledge:
    """A-priori knowledge of Gram entries: one array of pins (i, j, lo, hi).

    ``constraints`` accepts any sequence of (i, j, lo, hi) rows with
    integer i and j, and is stored as its own read-only copy of dtype
    ``PIN``, so checked knowledge cannot be changed in place. ``split``
    records the state/effect block boundary W when known, which lets
    interval relaxation target the data block.
    """

    n: Annotated[int, (">=", 0)]
    constraints: np.ndarray = field(default_factory=lambda: np.empty(0, PIN))
    split: int | None = None

    def __post_init__(self):
        check_types(self)
        if self.split is not None and not 0 <= self.split <= self.n:
            raise ValueError(f"split={self.split} is not in [0, n={self.n}]")
        pins = self.constraints
        if not (isinstance(pins, np.ndarray) and pins.dtype == PIN):
            pins = [tuple(p) for p in pins]
            for row in pins:  # an integral float is an index, a bool is not
                if not all(
                    isinstance(x, numbers.Real) and not isinstance(x, bool) and float(x).is_integer()
                    for x in row[:2]
                ):
                    raise ValueError(f"pin row {row} needs integer i and j")
        pins = np.array(pins, dtype=PIN)
        pins.flags.writeable = False
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

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Views (i, j, lo, hi) of the pin array."""
        pins = self.constraints
        return pins["i"], pins["j"], pins["lo"], pins["hi"]


def realize(ens: Ensemble) -> np.ndarray:
    """The d^2 x (W + V*K) realization P = (P_st | P_m) of an ensemble:
    column w is vec(rho_w), column W + v*K + k is vec(E_vk). C-contiguous:
    numpy's P^T P of a strided P differs in the last bits."""
    ops = np.concatenate([ens.states, ens.povms.reshape(-1, ens.dim, ens.dim)])
    return np.ascontiguousarray(vectorize(ops).T)


def gram(ens: Ensemble) -> GramMatrix:
    """Gram matrix G = P^T P of an ensemble's realization. numpy forms
    P^T P by a symmetric rank-k update, so G is exactly symmetric."""
    p = realize(ens)
    return GramMatrix(values=p.T @ p, n_states=ens.n_states)


def r_qm(n_states: int, n_measurements: int, d: int) -> float:
    """Operator-norm radius W + V*d of the ball containing all quantum Gram
    matrices with W states and V d-outcome POVMs."""
    if min(n_states, n_measurements, d) < 1:
        raise ValueError("W, V, d must all be >= 1")
    return float(n_states + n_measurements * d)


def knowledge_projective(
    table: DataTable, d: int, degeneracies: list[int] | None = None
) -> Knowledge:
    """Knowledge for projective measurements with known degeneracy.

    Pins (a) every data-block entry G[w, W + v*K + k] to the observed
    frequency and (b) each within-measurement block of G_m to
    diag(multiplicities) (identity for non-degenerate). Cross-measurement
    blocks and G_st stay free. ``degeneracies`` is the one multiplicity
    list every measurement shares, checked by ``projective_multiplicities``.
    """
    w_, v_, k_ = table.n_states, table.n_measurements, table.n_outcomes
    mults = np.array(projective_multiplicities(d, k_, degeneracies), dtype=float)
    # Data block: (w, W + c) for every table cell c of row w, row-major.
    # Measurement blocks: upper triangle (k, q) of each K x K block at base.
    base = (w_ + k_ * np.arange(v_))[:, None]
    ku, qu = np.triu_indices(k_)
    pins = np.empty(table.values.size + v_ * ku.size, PIN)
    pins["i"] = np.concatenate([np.repeat(np.arange(w_), v_ * k_), (base + ku).ravel()])
    pins["j"] = np.concatenate([np.tile(np.arange(w_, w_ + v_ * k_), w_), (base + qu).ravel()])
    pins["lo"] = pins["hi"] = np.concatenate(
        [table.values.ravel(), np.tile(np.where(ku == qu, mults[ku], 0.0), v_)]
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


def numerical_rank(m: np.ndarray) -> int:
    """Number of singular values above ``RANK_REL_TOL`` times the largest
    (0 for the zero matrix)."""
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_REL_TOL * s[0]))


def rank_tail(g: GramMatrix, rank: int) -> float:
    """l2 norm of all but the ``rank`` largest |eigenvalues| (singular values)."""
    mags = np.sort(np.abs(g.spectrum[0]))[::-1]
    return float(np.linalg.norm(mags[rank:]))


def rank_certificate(g_hat: GramMatrix, target_rank: int, tau: float = 1e-4) -> bool:
    """True iff the |eigenvalue| tail of the estimate beyond ``target_rank``
    has l2 norm at most ``tau``."""
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if not 0 <= target_rank <= g_hat.n:
        raise ValueError(f"target rank {target_rank} out of range for n={g_hat.n}")
    return rank_tail(g_hat, target_rank) <= tau
