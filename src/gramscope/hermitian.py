"""Hermitian linear algebra: orthonormal bases, vectorization, spectral operations.

All downstream Gram-matrix machinery works on real vectors obtained by
expanding Hermitian matrices in an orthonormal (Hilbert-Schmidt) basis.
The basis is the generalized Gell-Mann matrices augmented with the
normalized identity, ordered identity-first so that for d=2 the basis is
(I, X, Y, Z) / sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Symmetry residual above which inputs are rejected as non-Hermitian.
HERMITICITY_TOL = 1e-8


@dataclass(frozen=True)
class HermBasis:
    """Orthonormal basis of the real vector space of d x d Hermitian matrices.

    Attributes:
        dim: Hilbert-space dimension d.
        elements: array of shape (d*d, d, d), complex; tr(B_a B_b) = delta_ab.
    """

    dim: int
    elements: np.ndarray

    def __len__(self) -> int:
        return self.elements.shape[0]


def herm_basis(d: int) -> HermBasis:
    """Build the generalized Gell-Mann basis of Herm(C^d), plus I/sqrt(d).

    Ordering: normalized identity, then symmetric off-diagonal pairs,
    antisymmetric off-diagonal pairs, and diagonal (Z-like) elements.

    Args:
        d: Hilbert-space dimension, d >= 1.

    Returns:
        HermBasis with d^2 pairwise orthonormal Hermitian elements.
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
    return HermBasis(dim=d, elements=np.stack(elements))


def hermiticity_residual(h: np.ndarray) -> float:
    """Max-entry deviation of ``h`` from its conjugate transpose."""
    return float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0


def vectorize(h: np.ndarray, basis: HermBasis) -> np.ndarray:
    """Expand a Hermitian matrix into real coefficients tr(B_a H).

    The map is a linear isometry from (Herm, Hilbert-Schmidt) to
    (R^{d^2}, Euclidean): dot products of coefficient vectors equal
    trace inner products.

    Raises:
        ValueError: on dimension mismatch or symmetry residual > 1e-8.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (basis.dim, basis.dim):
        raise ValueError(f"matrix shape {h.shape} does not match basis dim {basis.dim}")
    res = hermiticity_residual(h)
    if res > HERMITICITY_TOL:
        raise ValueError(f"input is not Hermitian (residual {res:.3e})")
    # tr(B H) with B Hermitian: sum over conj(B) * H.
    return np.einsum("aij,ij->a", basis.elements.conj(), h).real


def sym_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix, eigenvalues descending.

    The input is symmetrized as (M + M^T)/2 first; splitting iterations
    accumulate asymmetry at machine-epsilon scale.

    Returns:
        (eigenvalues, eigenvectors) with ``m = U @ diag(w) @ U.T`` and
        ``U[:, i]`` the eigenvector for ``w[i]``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    w, u = np.linalg.eigh(0.5 * (m + m.T))
    return w[::-1], u[:, ::-1]


def clip_spectrum(m: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Project a symmetric matrix onto the spectral box {lo*I <= X <= hi*I}.

    This is the Frobenius-nearest matrix whose eigenvalues lie in [lo, hi];
    with lo=0 it is the projection onto the PSD cone intersected with the
    operator-norm ball of radius hi. The input is symmetrized first.
    """
    if lo > hi:
        raise ValueError(f"empty spectral box: lo={lo} > hi={hi}")
    a = np.asarray(m, dtype=float)
    a = a + a.T
    a *= 0.5
    w, u = np.linalg.eigh(a)
    out = (u * w.clip(lo, hi)) @ u.T
    out += out.T
    out *= 0.5
    return out
