"""Tests for Hermitian bases, vectorization, and spectral operations."""

import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from gramscope.hermitian import (
    WarmSpectrum,
    _eigh,
    _solve,
    clip_spectrum,
    herm_basis,
    vectorize,
)


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


class TestHermBasis:
    def test_d1_is_identity(self):
        basis = herm_basis(1)
        assert basis.shape == (1, 1, 1)
        assert np.allclose(basis[0], [[1.0]])

    def test_d2_is_normalized_paulis(self):
        paulis = [
            np.eye(2),
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]),
        ]
        for element, pauli in zip(herm_basis(2), paulis):
            assert np.allclose(element, pauli / np.sqrt(2), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_orthonormal_and_spanning(self, d):
        basis = herm_basis(d)
        assert basis.shape == (d * d, d, d)
        flat = basis.reshape(d * d, d * d)
        overlap = (flat.conj() @ flat.T).real
        assert np.max(np.abs(overlap - np.eye(d * d))) < 1e-12
        assert np.linalg.matrix_rank(flat) == d * d

    def test_d3_gram_is_identity(self):
        basis = herm_basis(3)
        overlaps = np.array([[np.trace(a @ b).real for b in basis] for a in basis])
        assert np.max(np.abs(overlaps - np.eye(9))) < 1e-12

    def test_rejects_d0(self):
        with pytest.raises(ValueError):
            herm_basis(0)

    def test_cached_and_read_only(self):
        # every realization shares the cached array, so no caller may write it
        basis = herm_basis(2)
        assert herm_basis(2) is basis
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0, 0] = 0.0


class TestVectorize:
    def test_identity_d2(self):
        v = vectorize(np.eye(2))
        assert np.allclose(v, [np.sqrt(2), 0, 0, 0], atol=1e-12)

    def test_ground_state_projector(self):
        v = vectorize(np.diag([1.0, 0.0]))
        assert np.allclose(v, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-12)

    def test_preserves_trace_inner_product(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_hermitian(3, rng)
            b = random_hermitian(3, rng)
            assert vectorize(a) @ vectorize(b) == pytest.approx(
                np.trace(a @ b).real, abs=1e-10
            )

    def test_is_isometry(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_hermitian(4, rng)
            assert np.linalg.norm(vectorize(a)) == pytest.approx(np.linalg.norm(a), abs=1e-10)

    def test_stack_is_vectorized_matrix_by_matrix(self):
        rng = np.random.default_rng(9)
        stack = np.array([[random_hermitian(3, rng) for _ in range(4)] for _ in range(2)])
        expected = [[vectorize(h) for h in row] for row in stack]
        assert vectorize(stack).shape == (2, 4, 9)
        assert vectorize(stack).tobytes() == np.array(expected).tobytes()
        with pytest.raises(ValueError, match="Hermitian"):
            vectorize(np.array([np.eye(2), [[0, 1], [0, 0]]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            vectorize(np.array([[0, 1], [0, 0]], dtype=complex))
        # a NaN residual fails the check rather than pass it
        with pytest.raises(ValueError, match=r"not Hermitian \(residual nan\)"):
            vectorize(np.full((2, 2), np.nan))

    # a stack of square matrices is vectorized; (2, 2, 3) is a stack of non-square ones
    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 3)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="not square"):
            vectorize(np.zeros(shape))


class TestClipSpectrum:
    def test_psd_in_box_unchanged(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5))
        m = a @ a.T
        m *= 0.9 / np.linalg.norm(m, 2)
        assert np.max(np.abs(clip_spectrum(m, 1.0) - m)) < 1e-10

    def test_diagonal_clipping(self):
        out = clip_spectrum(np.diag([-1.0, 2.0]), 1.0)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_eigenvalues_land_in_box(self):
        rng = np.random.default_rng(5)
        radius = 3.0
        for _ in range(20):
            m = rng.standard_normal((8, 8))
            out = clip_spectrum(0.5 * (m + m.T), radius)
            lam = np.linalg.eigvalsh(out)
            assert lam.min() >= -1e-10
            assert lam.max() <= radius + 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((7, 7))
        m = 0.5 * (m + m.T)
        once = clip_spectrum(m, 0.5)
        assert np.max(np.abs(clip_spectrum(once, 0.5) - once)) < 1e-9

    def test_frobenius_nearest(self):
        # among random matrices in the box, none is closer than the projection
        rng = np.random.default_rng(9)
        m = rng.standard_normal((5, 5))
        m = 0.5 * (m + m.T) * 3.0
        proj = clip_spectrum(m, 1.0)
        best = np.linalg.norm(proj - m)
        for _ in range(200):
            cand = rng.standard_normal((5, 5))
            cand = clip_spectrum(0.5 * (cand + cand.T), 1.0)
            assert np.linalg.norm(cand - m) >= best - 1e-9

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError):
            clip_spectrum(np.eye(2), -1.0)

    def test_rejects_nan_box(self):
        # NaN fails every comparison; accepted, it would clip to NaN
        with pytest.raises(ValueError):
            clip_spectrum(np.eye(2), np.nan)

    @pytest.mark.parametrize("n", [15, 60, 180])
    def test_matches_eigenvalue_clipping(self, n):
        # the B B^T rebuild from the positive eigenpairs equals the
        # symmetrized U clip(w) U^T, with eigenvalues below 0, inside
        # [0, hi] and above hi, and is exactly symmetric
        rng = np.random.default_rng(n)
        hi = 1.0
        u = np.linalg.qr(rng.standard_normal((n, n)))[0]
        w = rng.uniform(-2.0, 3.0, n)
        assert w.min() < 0 < w.max() and np.any((w > 0) & (w < hi)) and w.max() > hi
        m = (u * w) @ u.T
        m = 0.5 * (m + m.T)
        lam, vec = np.linalg.eigh(m)
        r = (vec * lam.clip(0.0, hi)) @ vec.T
        out = clip_spectrum(m, hi)
        assert np.array_equal(out, out.T)
        assert np.max(np.abs(out - 0.5 * (r + r.T))) <= 1e-12 * np.linalg.norm(m)

    def test_negative_definite_gives_exact_zeros(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 9))
        m = -(a @ a.T) - np.eye(9)
        assert np.array_equal(clip_spectrum(m, 1.0), np.zeros((9, 9)))
        assert np.array_equal(clip_spectrum(np.eye(9), 0.0), np.zeros((9, 9)))


def low_rank_spectrum(n, positive, rng):
    """Symmetric matrix with the given positive eigenvalues, the rest in
    [-3, -0.5], and its eigenvectors (columns, positive ones last)."""
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    w = np.concatenate((rng.uniform(-3.0, -0.5, n - len(positive)), positive))
    m = (u * w) @ u.T
    return 0.5 * (m + m.T), u


class TestClipSpectrumWarm:
    RADIUS = 2.5

    def test_partial_step_within_its_certificate(self):
        # seed the basis with a full step, then clip a nearby matrix: one
        # Rayleigh-Ritz step certifies a 1e-4 perturbation, and its result
        # may differ from the exact projection by at most sqrt(2)||R||_F <=
        # tol and must lie in the spectral box; it does not reach a 1e-3
        # perturbation, which gets the exact projection
        rng = np.random.default_rng(11)
        m, _ = low_rank_spectrum(40, [0.7, 1.5, 3.0], rng)
        e = rng.standard_normal((40, 40))
        for scale, certified in ((1e-4, True), (1e-3, False)):
            warm = WarmSpectrum()
            clip_spectrum(m, self.RADIUS, warm=warm)
            assert warm.partial_steps == 0 and warm.basis.shape == (40, 3)
            assert np.array_equal(warm.basis, np.linalg.eigh(m)[1][:, 40 - 3 :])
            m2 = m + scale * (e + e.T)
            warm.tol = 1e-3
            out = clip_spectrum(m2, self.RADIUS, warm=warm)
            assert warm.partial_steps == int(certified)
            assert warm.failed_partial_steps == int(not certified)
            if not certified:
                assert np.array_equal(out, clip_spectrum(m2, self.RADIUS))
                continue
            assert warm.basis.shape[0] == 40 and warm.basis.shape[1] >= 3
            assert np.allclose(warm.basis.T @ warm.basis, np.eye(warm.basis.shape[1]), atol=1e-12)
            assert np.linalg.norm(out - clip_spectrum(m2, self.RADIUS)) <= warm.tol
            assert np.array_equal(out, out.T)
            lam = np.linalg.eigvalsh(out)
            assert lam.min() >= -1e-12 and lam.max() <= self.RADIUS + 1e-12

    def test_missed_positive_eigenvector_falls_back_to_full_step(self):
        # a basis orthogonal to a positive eigenvector spans no Krylov
        # direction towards it: the residual test passes, the Cholesky
        # test of the complement must not, and the full step runs
        rng = np.random.default_rng(12)
        m, u = low_rank_spectrum(40, [0.7, 1.5, 3.0], rng)
        warm = WarmSpectrum(tol=np.inf, basis=u[:, 35:39])
        out = clip_spectrum(m, self.RADIUS, warm=warm)
        assert warm.partial_steps == 0 and warm.failed_partial_steps == 1
        assert np.array_equal(out, clip_spectrum(m, self.RADIUS))
        # the full step re-seeds the basis from its own eigenvectors
        assert np.array_equal(warm.basis, np.linalg.eigh(m)[1][:, 40 - 3 :])

    def test_basis_is_exactly_the_positive_vectors(self):
        # a full step keeps its positive eigenvectors and an accepted
        # partial step its positive Ritz vectors, no more: the next partial
        # step then works on twice as many dimensions as there are
        # positive eigenvalues
        rng = np.random.default_rng(11)
        m, _ = low_rank_spectrum(40, [0.7, 1.5, 3.0], rng)
        warm = WarmSpectrum()
        clip_spectrum(m, self.RADIUS, warm=warm)
        w, u = np.linalg.eigh(m)
        assert np.array_equal(warm.basis, u[:, w > 0])
        e = rng.standard_normal((40, 40))
        m2 = m + 1e-5 * (e + e.T)
        warm.tol = 1e-3
        out = clip_spectrum(m2, self.RADIUS, warm=warm)
        assert warm.partial_steps == 1 and warm.basis.shape == (40, 3)
        # Ritz vectors: orthonormal, diagonalizing m2 with positive Ritz
        # values, from which the returned projection is built
        ritz = warm.basis.T @ m2 @ warm.basis
        theta = np.diag(ritz)
        assert np.allclose(warm.basis.T @ warm.basis, np.eye(3), atol=1e-12)
        assert np.allclose(ritz, np.diag(theta), atol=1e-12) and theta.min() > 0
        assert np.allclose(out, (warm.basis * np.minimum(theta, self.RADIUS)) @ warm.basis.T)

    def test_all_negative_iterate_keeps_an_empty_basis(self):
        # a full step on a negative definite matrix keeps no vector; the
        # next partial step is then the Cholesky test of -A alone, which
        # certifies the zero projection of a nearby negative definite
        # matrix and refuses one with a positive eigenvalue
        rng = np.random.default_rng(14)
        m, u = low_rank_spectrum(40, [], rng)
        warm = WarmSpectrum()
        assert np.array_equal(clip_spectrum(m, self.RADIUS, warm=warm), np.zeros((40, 40)))
        assert warm.basis.shape == (40, 0)
        e = rng.standard_normal((40, 40))
        warm.tol = 1e-3
        out = clip_spectrum(m + 1e-3 * (e + e.T), self.RADIUS, warm=warm)
        assert warm.partial_steps == 1 and warm.failed_partial_steps == 0
        assert np.array_equal(out, np.zeros((40, 40))) and warm.basis.shape == (40, 0)
        m2 = m + 4.0 * np.outer(u[:, -1], u[:, -1])  # one eigenvalue lifted into [1, 3.5]
        out = clip_spectrum(m2, self.RADIUS, warm=warm)
        assert warm.partial_steps == 1 and warm.failed_partial_steps == 1
        assert np.array_equal(out, clip_spectrum(m2, self.RADIUS))
        assert np.linalg.eigvalsh(m2)[-1] > 0 and warm.basis.shape == (40, 1)

    def test_full_step_keeps_a_basis_too_wide_to_use(self):
        # 12 positive eigenvalues span a Ritz subspace of 24 dimensions,
        # more than a quarter of n=40: the full step stores that basis, and
        # the next call never tries it
        rng = np.random.default_rng(13)
        m, _ = low_rank_spectrum(40, np.linspace(0.5, 3.0, 12), rng)
        warm = WarmSpectrum(basis=np.eye(40)[:, :1])
        clip_spectrum(m, self.RADIUS, warm=warm)
        assert warm.failed_partial_steps == 1 and warm.basis.shape == (40, 12)
        out = clip_spectrum(m, self.RADIUS, warm=warm)
        assert warm.partial_steps == 0 and warm.failed_partial_steps == 1
        assert np.array_equal(out, clip_spectrum(m, self.RADIUS))

    def test_failed_attempt_is_one_rayleigh_ritz_step(self, monkeypatch):
        # at tol 0 no partial step is certified; the attempt orthonormalizes
        # one Krylov block and gives up
        rng = np.random.default_rng(11)
        m, u = low_rank_spectrum(40, [0.7, 1.5, 3.0], rng)
        e = rng.standard_normal((40, 40))
        m2 = m + 1e-3 * (e + e.T)
        warm = WarmSpectrum(tol=0.0, basis=u[:, 40 - 3 :])
        qr = np.linalg.qr
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr("numpy.linalg.qr", counting)
        out = clip_spectrum(m2, self.RADIUS, warm=warm)
        assert warm.partial_steps == 0 and warm.failed_partial_steps == 1
        assert len(calls) == 1
        assert np.array_equal(out, clip_spectrum(m2, self.RADIUS))


@contextmanager
def warning_mode(mode):
    """Run a failing LAPACK call with numpy's default error handling (its
    RuntimeWarning is expected), with warnings as errors, with numpy set to
    raise or to ignore invalid values."""
    if mode == "default":
        with pytest.warns(RuntimeWarning, match="invalid value"):
            yield
    elif mode == "warnings_as_errors":
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield
    else:
        with np.errstate(invalid=mode):
            yield


ERROR_MODES = ["default", "warnings_as_errors", "raise", "ignore"]


class TestDirectLapack:
    """The helpers behind the ADMM iteration call numpy's LAPACK gufuncs
    directly; a numpy upgrade that changes what numpy.linalg does shows
    here first."""

    @pytest.mark.parametrize("n", [1, 2, 15, 40, 180])
    def test_eigh_is_numpys(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        m = m + m.T
        w, u = _eigh(m)
        ref = np.linalg.eigh(m)
        assert w.dtype == u.dtype == np.float64
        assert np.array_equal(w, ref.eigenvalues) and np.array_equal(u, ref.eigenvectors)

    @pytest.mark.parametrize("n", [1, 7, 20])
    def test_solve_is_numpys(self, n):
        # the Anderson step solves a float64 system with a float32 right side
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a = a @ a.T + np.eye(n)
        b = rng.standard_normal(n).astype(np.float32)
        x = _solve(a, b)
        assert x.dtype == np.float64
        assert np.array_equal(x, np.linalg.solve(a, b))

    def test_partly_nan_input_gives_numpys_result(self):
        # LAPACK may return without error on a NaN entry; the result is then
        # numpy's own, NaNs included
        m = np.eye(4)
        m[1, 2] = m[2, 1] = np.nan
        w, u = _eigh(m)
        ref = np.linalg.eigh(m)
        assert np.array_equal(w, ref.eigenvalues, equal_nan=True)
        assert np.array_equal(u, ref.eigenvectors, equal_nan=True)

    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_clip_rejects_non_square(self, shape):
        with pytest.raises(np.linalg.LinAlgError):
            clip_spectrum(np.zeros(shape), 1.0)

    @pytest.mark.parametrize("mode", ERROR_MODES)
    def test_clip_rejects_nan_matrix(self, mode):
        with warning_mode(mode), pytest.raises(np.linalg.LinAlgError):
            clip_spectrum(np.full((4, 4), np.nan), 1.0)

    @pytest.mark.parametrize("mode", ERROR_MODES)
    def test_solve_rejects_singular_matrix(self, mode):
        a = np.ones((3, 3))
        with warning_mode(mode), pytest.raises(np.linalg.LinAlgError, match="Singular"):
            _solve(a, np.ones(3, dtype=np.float32))

    def test_solve_rejects_mismatched_shapes(self):
        # as numpy.linalg.solve does, with the gufunc's ValueError
        with pytest.raises(ValueError, match="mismatch in its core dimension"):
            _solve(np.eye(3), np.ones(4))
