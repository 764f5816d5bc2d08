"""Hermitian linear algebra: orthonormal bases, vectorization, spectral operations.

All downstream Gram-matrix machinery works on real vectors obtained by
expanding Hermitian matrices in an orthonormal (Hilbert-Schmidt) basis.
Gram matrices do not depend on which orthonormal basis is used, so the
package fixes one: ``herm_basis(d)``, the generalized Gell-Mann matrices
augmented with the normalized identity, ordered identity-first so that
for d=2 the basis is (I, X, Y, Z) / sqrt(2). ``vectorize(h)`` expands a
d x d matrix in ``herm_basis(d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# numpy.linalg.eigh, solve, qr and cholesky call these LAPACK gufuncs behind
# Python wrappers (_makearray, _commonType, an errstate context per call).
# At n=15, the size of a d=2 ADMM iteration, the wrappers cost about 4 us
# of a 29 us eigh and 5 us of an 11 us 20 x 20 solve, and one iteration
# went from about 67 to 57 us without them (numpy 2.4, 2-core Xeon, one
# BLAS thread). The Rayleigh-Ritz step of a d=3 (30,50) solve (n=180) takes
# about 490 us, of which numpy.linalg.qr and cholesky's wrappers took 40 to
# 140 us: qr copies its input and forms an R factor (triu) that the step
# never reads. ``_eigh``, ``_solve``, ``_orth`` and ``_is_pd`` call the same
# gufuncs with the signatures the wrappers pick for float64 input, so their
# results are bit-identical; ``_is_pd`` alone departs from numpy, to refuse
# a NaN matrix that OpenBLAS's Cholesky passes. This is the one module that
# imports a private numpy module (``tests/test_imports.py`` checks it).
from numpy.linalg import _umath_linalg

#: Symmetry residual above which inputs are rejected as non-Hermitian.
HERMITICITY_TOL = 1e-8


@cache
def herm_basis(d: int) -> np.ndarray:
    """The generalized Gell-Mann basis of Herm(C^d), plus I/sqrt(d).

    Ordering: normalized identity, then symmetric off-diagonal pairs,
    antisymmetric off-diagonal pairs, and diagonal (Z-like) elements.
    The array is cached per d and shared by every caller, so it is
    read-only.

    Args:
        d: Hilbert-space dimension, d >= 1.

    Returns:
        Complex array of shape (d*d, d, d) whose elements B_a satisfy
        tr(B_a B_b) = delta_ab.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    elements = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            elements.append(sym)
    for j in range(d):
        for k in range(j + 1, d):
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k] = -1j / np.sqrt(2.0)
            anti[k, j] = 1j / np.sqrt(2.0)
            elements.append(anti)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        diag[np.arange(l), np.arange(l)] = 1.0
        diag[l, l] = -float(l)
        diag /= np.sqrt(l * (l + 1))
        elements.append(diag)
    basis = np.stack(elements)
    basis.flags.writeable = False
    return basis


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.linalg.eigh(a)`` of a float64 symmetric matrix, without the
    wrapper. A failed call (a matrix that is not square, or a LAPACK error,
    which fills the whole output with NaN and warns) is repeated through
    ``numpy.linalg.eigh``, which raises its ``LinAlgError`` as it would
    have done alone, or returns what it would have returned."""
    try:
        w, u = _umath_linalg.eigh_lo(a, signature="d->dd")
    except (ValueError, FloatingPointError, RuntimeWarning):
        return np.linalg.eigh(a)
    if w.size and w[0] != w[0]:
        return np.linalg.eigh(a)
    return w, u


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``numpy.linalg.solve(a, b)`` for a float64 matrix and a vector
    ``b`` (float32 or float64), without the wrapper; the result is float64.
    A failed call (shapes that do not fit, or a singular ``a``, whose LAPACK
    error fills the whole output with NaN and warns) is repeated through
    ``numpy.linalg.solve``, which raises what it would have raised alone:
    ``LinAlgError`` for a singular or non-square ``a``."""
    try:
        x = _umath_linalg.solve1(a, b, signature="dd->d")
    except (ValueError, FloatingPointError, RuntimeWarning):
        return np.linalg.solve(a, b)
    if x.size and x[0] != x[0]:
        return np.linalg.solve(a, b)
    return x


def _orth(y: np.ndarray) -> np.ndarray:
    """``numpy.linalg.qr(y)[0]``, the Q of the reduced QR of a float64
    matrix, without the wrapper and without forming R. ``y`` is
    overwritten with its Householder factors. A failed call (a shape the
    gufunc rejects, or a LAPACK error, which fills the reflectors' scales
    with NaN and warns) is repeated through ``numpy.linalg.qr``, which
    raises its ``LinAlgError``: LAPACK's QR rejects arguments, never
    values, so the repeat fails as the first call did. A NaN in ``y``'s
    first column, which also gives NaN scales, gets numpy's all-NaN Q."""
    try:
        tau = _umath_linalg.qr_r_raw(y, signature="d->d")
    except (ValueError, FloatingPointError, RuntimeWarning):
        return np.linalg.qr(y)[0]
    if tau.size and tau[0] != tau[0]:
        return np.linalg.qr(y)[0]
    return _umath_linalg.qr_reduced(y, tau, signature="dd->d")


def _is_pd(a: np.ndarray) -> bool:
    """Whether a float64 symmetric matrix is positive definite, by the
    Cholesky factorization of ``numpy.linalg.cholesky`` without its
    wrapper. The verdict reads the factor's last diagonal entry: positive
    for a finite positive definite matrix, NaN when LAPACK fails (its
    failure fills the whole factor with NaN) and NaN when any NaN in the
    lower triangle enters the factor. So it is numpy's verdict on finite
    matrices and False on NaN ones, which OpenBLAS may factor without
    error. A matrix that is not square is repeated through
    ``numpy.linalg.cholesky``, which raises its ``LinAlgError``."""
    try:
        with np.errstate(invalid="ignore"):
            lo = _umath_linalg.cholesky_lo(a, signature="d->d")
    except ValueError:
        np.linalg.cholesky(a)
        return True
    return not lo.size or bool(lo[-1, -1] == lo[-1, -1])


def hermiticity_residual(h: np.ndarray) -> np.ndarray:
    """Per matrix of a (..., d, d) stack, its largest |entry| of H - H^dag."""
    return np.abs(h - np.swapaxes(h, -1, -2).conj()).max(axis=(-2, -1), initial=0.0)


def vectorize(h: np.ndarray) -> np.ndarray:
    """Expand each d x d Hermitian matrix of a (..., d, d) stack into its
    real coefficients tr(B_a H) in ``herm_basis(d)``, of shape (..., d^2).

    The map is a linear isometry from (Herm, Hilbert-Schmidt) to
    (R^{d^2}, Euclidean): dot products of coefficient vectors equal
    trace inner products. Raises ValueError on non-square matrices or a
    symmetry residual > 1e-8.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"matrix shape {h.shape} is not square")
    res = hermiticity_residual(h).max(initial=0.0)
    if not res <= HERMITICITY_TOL:  # NaN too
        raise ValueError(f"input is not Hermitian (residual {res:.3e})")
    # tr(B H) with B Hermitian: sum over conj(B) * H.
    return np.einsum("aij,...ij->...a", herm_basis(h.shape[-1]).conj(), h).real


#: The partial step is tried only while its Rayleigh-Ritz subspace, of
#: twice as many dimensions as the warm basis has columns, stays below this
#: fraction of n; beyond it a dense eigh is about as cheap. At d=2, where
#: the iterate keeps 4 positive eigenvalues, this holds from n=33 on.
PARTIAL_FRACTION = 0.25


@dataclass
class WarmSpectrum:
    """State one sequence of ``clip_spectrum`` calls carries between calls.

    ``tol`` bounds the Frobenius error a partial step may make; the caller
    sets it before each call. ``basis`` (orthonormal columns) is the
    subspace the next partial step starts from: the positive eigenvectors
    of the last full step or the positive Ritz vectors of the last accepted
    partial step, which replace it. ``partial_steps`` counts the calls
    that returned a certified partial projection, ``failed_partial_steps``
    the calls whose partial attempt was not certified and fell back to the
    full step.
    """

    tol: float = 0.0
    basis: np.ndarray | None = None
    partial_steps: int = 0
    failed_partial_steps: int = 0


def _outer_clipped(vecs: np.ndarray, w: np.ndarray, hi: float) -> np.ndarray:
    """B B^T with B = vecs * sqrt(min(w, hi)), for eigenpairs (w, vecs) with
    every w > 0. numpy sends the product of a matrix with its own
    transpose to syrk, so the result is exactly symmetric."""
    b = vecs * np.sqrt(np.minimum(w, hi))
    return b @ b.T


def _partial_psd(a: np.ndarray, hi: float, warm: WarmSpectrum) -> np.ndarray | None:
    """Projection of symmetric ``a`` onto {0 <= X <= hi*I} from a small Ritz
    subspace, or None when its error is not certified below ``warm.tol``.

    One Rayleigh-Ritz step on orth([Q, AQ - Q(Q^T A Q)]) gives Ritz pairs;
    keep those with theta > 0 as (Q+, T+) and let R = A Q+ - Q+ T+. The
    matrix A' = Q+ T+ Q+^T + PAP, with P = I - Q+ Q+^T, lies
    sqrt(2)||R||_F from A. When PAP is negative definite on the complement
    of Q+ (Cholesky of Q+ Q+^T - PAP succeeds), the projection of A' is
    Q+ clip(T+) Q+^T, so by non-expansiveness its distance to the
    projection of A is at most sqrt(2)||R||_F. An accepted step keeps
    exactly Q+ as the next basis, so the next step works in a subspace of
    twice as many dimensions as there were positive Ritz values.

    The orthonormalization (``_orth``), the Ritz eigendecomposition
    (``_eigh``) and the Cholesky certificate (``_is_pd``) call numpy's
    LAPACK gufuncs directly, with numpy.linalg's results and verdicts,
    except that the certificate refuses every NaN matrix. With an empty
    basis the step is that certificate on -A alone, so a NaN iterate falls
    back to the full step there too.
    """
    q = warm.basis
    aq = a @ q
    x = _orth(np.concatenate((q, aq - q @ (q.T @ aq)), axis=1))
    ax = a @ x
    w, s = _eigh(x.T @ ax)
    first = int(w.searchsorted(0.0, "right"))  # first positive Ritz value
    s, tpos = s[:, first:], w[first:]
    q = x @ s
    res = ax @ s - q * tpos
    if np.sqrt(2.0 * np.vdot(res, res)) > warm.tol:
        return None
    # A Q+ = Q+ T+ + R with Q+^T R = 0 turns Q+ Q+^T - PAP into
    # Q+ (I + T+) Q+^T + R Q+^T + Q+ R^T - A
    left = np.concatenate((q * (1.0 + tpos) + res, q), axis=1)
    comp = left @ np.concatenate((q, res), axis=1).T
    comp -= a
    if not _is_pd(comp):
        return None
    warm.basis = q
    return _outer_clipped(q, tpos, hi)


def clip_spectrum(m: np.ndarray, hi: float, warm: WarmSpectrum | None = None) -> np.ndarray:
    """Project a symmetric matrix onto the spectral box {0 <= X <= hi*I}.

    This is the Frobenius-nearest matrix whose eigenvalues lie in [0, hi]:
    the projection onto the PSD cone intersected with the operator-norm
    ball of radius hi. As for ``numpy.linalg.eigh``, ``m`` must be
    symmetric; it is not symmetrized here. The result is rebuilt from the
    positive eigenpairs (w, u) alone as B B^T with B = u * sqrt(min(w, hi)),
    which numpy computes by syrk: it is exactly symmetric, costs n^2 p
    flops for p positive eigenvalues, and is exactly zero when none is
    positive.

    With ``warm`` a sequence of calls on slowly changing inputs may skip
    the dense eigendecomposition: while twice the warm basis's column
    count is below ``PARTIAL_FRACTION * n``, the projection is first
    computed by one Rayleigh-Ritz step from that subspace (the basis and
    its Krylov extension) and returned only when its
    Frobenius error is certified below ``warm.tol``. Otherwise, and
    without ``warm``, the result is the exact projection; that full step
    always keeps exactly the eigenvectors above 0 as the next warm basis.

    Both steps call numpy's LAPACK eigensolver directly (``_eigh``), which
    gives exactly ``numpy.linalg.eigh``'s result without its per-call
    wrapper. A matrix that is not square, or one LAPACK cannot decompose,
    raises ``numpy.linalg.LinAlgError`` as ``numpy.linalg.eigh`` does; the
    second also lets numpy's RuntimeWarning through. A matrix with a NaN
    entry raises ``LinAlgError`` too, cold or warm, though LAPACK may
    decompose it without error (an all-NaN one from n = 32 on, OpenBLAS):
    the full step reads the first and last eigenvalue and the first and
    last corner of the eigenvector matrix, one of which was NaN for each of
    1,040 such matrices (n from 1 to 180), and the partial step's
    certificate refuses NaN, so a warm call falls back to the full step.
    """
    if not hi >= 0:
        raise ValueError(f"empty spectral box: hi={hi} is not >= 0")
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    basis = None if warm is None else warm.basis
    if basis is not None and 2 * basis.shape[1] < PARTIAL_FRACTION * n:
        out = _partial_psd(a, hi, warm)
        if out is not None:
            warm.partial_steps += 1
            return out
        warm.failed_partial_steps += 1
    w, u = _eigh(a)
    # a NaN term makes the sum NaN; finite terms never do
    if w.size and math.isnan(w.item(0) + w.item(-1) + u.item(0) + u.item(-1)):
        raise np.linalg.LinAlgError(f"eigendecomposition of a {n} x {n} matrix gave NaN")
    first = int(w.searchsorted(0.0, "right"))  # first positive eigenvalue
    if warm is not None:
        warm.basis = u[:, first:].copy()
    return _outer_clipped(u[:, first:], w[first:], hi)
