"""Tests for ensemble sampling and data-table generation."""

import csv
import io

import numpy as np
import pytest

from gramscope.estimator import born_table
from gramscope.synth import (
    haar_unitary,
    sample_ensemble,
    sample_mixed_state,
    sample_projective_measurement,
    sample_pure_state,
    table_from_json,
    table_to_csv,
    table_to_json,
    validate_ensemble,
    validate_table,
)


class TestHaarUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 5):
            u = haar_unitary(d, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12

    def test_eigenphase_uniformity(self):
        # Haar eigenvalue phases are uniform on the circle; a strong bias
        # would show in the mean phase vector.
        rng = np.random.default_rng(1)
        phases = np.concatenate(
            [np.angle(np.linalg.eigvals(haar_unitary(3, rng))) for _ in range(2000)]
        )
        assert abs(np.mean(np.exp(1j * phases))) < 0.05


class TestSamplePureState:
    def test_purity_and_trace(self):
        rng = np.random.default_rng(2)
        for d in (1, 2, 4):
            rho = sample_pure_state(d, rng)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)

    def test_d1(self):
        rho = sample_pure_state(1, np.random.default_rng(0))
        assert np.allclose(rho, [[1.0]])

    def test_mean_is_maximally_mixed(self):
        rng = np.random.default_rng(3)
        mean = sum(sample_pure_state(2, rng) for _ in range(10_000)) / 10_000
        assert np.max(np.abs(mean - np.eye(2) / 2)) < 0.05


class TestSampleProjectiveMeasurement:
    def test_projective_closure(self):
        rng = np.random.default_rng(4)
        for d in (1, 2, 3):
            povm = sample_projective_measurement(d, rng)
            assert len(povm) == d
            assert np.max(np.abs(sum(povm) - np.eye(d))) < 1e-10
            for k, ek in enumerate(povm):
                for q, eq in enumerate(povm):
                    expected = 1.0 if k == q else 0.0
                    assert np.trace(ek @ eq).real == pytest.approx(expected, abs=1e-10)

    def test_mean_effect_is_maximally_mixed(self):
        rng = np.random.default_rng(5)
        mean = sum(sample_projective_measurement(2, rng)[0] for _ in range(10_000)) / 10_000
        assert np.max(np.abs(mean - np.eye(2) / 2)) < 0.05

    def test_degenerate_pattern(self):
        rng = np.random.default_rng(6)
        povm = sample_projective_measurement(3, rng, degeneracies=[2, 1])
        assert len(povm) == 2
        assert np.trace(povm[0]).real == pytest.approx(2.0, abs=1e-10)
        assert np.max(np.abs(sum(povm) - np.eye(3))) < 1e-10

    def test_rejects_bad_degeneracies(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_projective_measurement(3, rng, degeneracies=[2, 2])


class TestBornTable:
    def test_matching_projector(self):
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        ket1 = np.diag([0.0, 1.0]).astype(complex)
        ens_like = sample_ensemble(2, 1, 1, np.random.default_rng(0))
        ens = type(ens_like)(dim=2, states=[ket0], povms=[[ket0, ket1]])
        table = born_table(ens)
        assert np.allclose(table.values, [[1.0, 0.0]], atol=1e-12)

    def test_unbiased_basis(self):
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        minus = np.eye(2) - plus
        ens_like = sample_ensemble(2, 1, 1, np.random.default_rng(0))
        ens = type(ens_like)(dim=2, states=[ket0], povms=[[plus, minus]])
        assert np.allclose(born_table(ens).values, [[0.5, 0.5]], atol=1e-12)

    def test_block_row_sums(self):
        ens = sample_ensemble(3, 4, 3, np.random.default_rng(7))
        table = born_table(ens)
        blocks = table.values.reshape(4, 3, 3)
        assert np.max(np.abs(blocks.sum(axis=2) - 1.0)) < 1e-12
        validate_table(table)

    def test_state_norm_window(self):
        rng = np.random.default_rng(8)
        for d in (2, 3, 4):
            ens = sample_ensemble(d, 5, 2, rng, mixed=True)
            validate_ensemble(ens)
            for rho in ens.states:
                hs = np.linalg.norm(rho)
                assert 1 / np.sqrt(d) - 1e-9 <= hs <= 1 + 1e-9

    def test_povm_norm_budget(self):
        rng = np.random.default_rng(9)
        for d in (2, 3, 4):
            povm = sample_projective_measurement(d, rng)
            budget = sum(np.linalg.norm(e) ** 2 for e in povm)
            assert budget == pytest.approx(d, abs=1e-9)


class TestFiniteShotTable:
    def test_deterministic_block(self):
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        ket1 = np.diag([0.0, 1.0]).astype(complex)
        ens_like = sample_ensemble(2, 1, 1, np.random.default_rng(0))
        ens = type(ens_like)(dim=2, states=[ket0], povms=[[ket0, ket1]])
        for shots in (1, 7, 100):
            table = born_table(ens, shots, np.random.default_rng(1))
            assert np.allclose(table.values, [[1.0, 0.0]])

    def test_single_shot_is_one_hot(self):
        ens = sample_ensemble(2, 3, 2, np.random.default_rng(10))
        table = born_table(ens, 1, np.random.default_rng(11))
        blocks = table.values.reshape(3, 2, 2)
        assert np.all(np.sort(blocks, axis=2)[:, :, 0] == 0.0)
        assert np.all(np.sort(blocks, axis=2)[:, :, 1] == 1.0)

    def test_entries_are_frequency_multiples(self):
        ens = sample_ensemble(2, 2, 2, np.random.default_rng(12))
        table = born_table(ens, 250, np.random.default_rng(13))
        assert np.allclose(table.values * 250, np.round(table.values * 250))
        blocks = table.values.reshape(2, 2, 2)
        assert np.all(blocks.sum(axis=2) == 1.0)

    def test_binomial_concentration(self):
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        ens_like = sample_ensemble(2, 1, 1, np.random.default_rng(0))
        ens = type(ens_like)(dim=2, states=[ket0], povms=[[plus, np.eye(2) - plus]])
        rng = np.random.default_rng(14)
        hits = sum(
            abs(born_table(ens, 10**6, rng).values[0, 0] - 0.5) < 0.002
            for _ in range(100)
        )
        assert hits >= 99

    def test_rejects_zero_shots(self):
        # and finite shots without an rng to draw them
        ens = sample_ensemble(2, 1, 1, np.random.default_rng(0))
        for shots, rng in ((0, np.random.default_rng(0)), (10, None)):
            with pytest.raises(ValueError, match="shots >= 1 and an rng"):
                born_table(ens, shots, rng)

    def test_rejects_state_of_wrong_shape(self):
        ens = sample_ensemble(2, 1, 1, np.random.default_rng(0))
        for rho in (np.eye(3) / 3, np.ones((2, 3)) / 2):
            with pytest.raises(ValueError, match="shape"):
                born_table(type(ens)(dim=2, states=[rho], povms=ens.povms))


class TestDeterminismAndSerialization:
    def test_same_seed_same_ensemble(self):
        a = sample_ensemble(3, 4, 3, np.random.default_rng(42))
        b = sample_ensemble(3, 4, 3, np.random.default_rng(42))
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa, sb)
        ta = born_table(a, 100, np.random.default_rng(1))
        tb = born_table(b, 100, np.random.default_rng(1))
        assert np.array_equal(ta.values, tb.values)

    def test_table_json_roundtrip(self):
        table = born_table(sample_ensemble(2, 3, 2, np.random.default_rng(16)))
        back = table_from_json(table_to_json(table))
        assert np.array_equal(back.values, table.values)
        assert back.shots is None

    def test_table_csv_roundtrip(self):
        table = born_table(sample_ensemble(2, 3, 2, np.random.default_rng(17)))
        rows = list(csv.reader(io.StringIO(table_to_csv(table))))
        assert rows[0] == ["w", "v", "k", "f"]
        assert len(rows) == 1 + 3 * 2 * 2
        vals = np.full(table.values.shape, np.nan)
        for w, v, k, f in rows[1:]:
            vals[int(w), int(v) * 2 + int(k)] = float(f)
        assert np.array_equal(vals, table.values)
