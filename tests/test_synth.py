"""Tests for ensemble sampling and data-table generation."""

import json

import numpy as np
import pytest

import gramscope.estimator
from gramscope.estimator import born_table
from gramscope.synth import (
    DataTable,
    Ensemble,
    dump_json,
    from_json,
    haar_unitary,
    sample_ensemble,
    sample_mixed_state,
    sample_projective_measurement,
    sample_pure_state,
    validate_ensemble,
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
        with pytest.raises(ValueError, match="integer multiplicities"):
            sample_projective_measurement(3, rng, degeneracies=[1.5, 1.5])


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

    # pure d=2, mixed d=2, degenerate [2, 1] d=3 and d=4
    CASES = [(2, False, None), (2, True, None), (3, False, [2, 1]), (4, False, None)]

    @pytest.mark.parametrize("d, mixed, degeneracies", CASES)
    def test_equals_per_cell_definition(self, d, mixed, degeneracies):
        ens = sample_ensemble(d, 4, 3, np.random.default_rng(d), mixed, degeneracies)
        expected = [
            [np.clip(np.trace(rho @ e).real, 0.0, 1.0) for povm in ens.povms for e in povm]
            for rho in ens.states
        ]
        assert born_table(ens).values.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("d, mixed, degeneracies", CASES)
    def test_shots_equal_sequential_block_draws(self, d, mixed, degeneracies):
        # one multinomial call over the table draws what one call per
        # (state, measurement) block draws, and leaves the rng where they do
        ens = sample_ensemble(d, 4, 3, np.random.default_rng(d), mixed, degeneracies)
        p = born_table(ens).values
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        table = born_table(ens, 77, rng)
        blocks = p.reshape(ens.n_states, ens.n_measurements, ens.n_outcomes)
        expected = [[twin.multinomial(77, b / b.sum()) / 77 for b in row] for row in blocks]
        assert table.values.tobytes() == np.array(expected).reshape(p.shape).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_one_contraction_per_state(self, monkeypatch):
        # the tracer of the benchmark wraps this name in gramscope.estimator
        calls = []
        contract = gramscope.estimator.born_probabilities

        def counted(rho, effects):
            calls.append(rho)
            return contract(rho, effects)

        monkeypatch.setattr(gramscope.estimator, "born_probabilities", counted)
        ens = sample_ensemble(3, 5, 4, np.random.default_rng(3))
        born_table(ens, 100, np.random.default_rng(4))
        assert len(calls) == ens.n_states

    def test_rejects_misshapen_povm(self):
        # POVMs of 2, 1 and 3 effects would stack to V*K = 6 effects
        e3 = np.eye(3) / 3
        ket0 = np.diag([1.0, 0.0]).astype(complex)
        cases = [
            (3, [[e3, e3], [e3], [e3, e3, e3]], r"POVM 1 has 1 effects, expected 2"),
            (2, [[ket0, np.eye(2) - ket0], [ket0, np.eye(3)]], r"effect \(1,1\) has shape"),
        ]
        for d, povms, message in cases:
            ens = sample_ensemble(d, 1, 1, np.random.default_rng(0))
            with pytest.raises(ValueError, match=message):
                born_table(type(ens)(dim=d, states=ens.states, povms=povms))

    def test_state_norm_window(self):
        rng = np.random.default_rng(8)
        for d in (2, 3, 4):
            ens = sample_ensemble(d, 5, 2, rng, mixed=True)
            validate_ensemble(ens)
            for rho in ens.states:
                hs = np.linalg.norm(rho)
                assert 1 / np.sqrt(d) - 1e-9 <= hs <= 1 + 1e-9

    def test_every_povm_must_be_projective(self):
        # a degenerate pattern is projective; a 50/50 mixture of two
        # projective measurements is a valid POVM but not a projective one
        validate_ensemble(sample_ensemble(3, 2, 2, np.random.default_rng(5), degeneracies=[2, 1]))
        ens = sample_ensemble(2, 2, 2, np.random.default_rng(6))
        mix = [(a + b) / 2 for a, b in zip(*ens.povms)]
        with pytest.raises(ValueError, match="not orthogonal projectors"):
            validate_ensemble(Ensemble(dim=2, states=ens.states, povms=[mix]))

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


class TestDataTable:
    TABLE = {
        "values": [[0.25, 0.75], [1.0, 0.0]],
        "n_states": 2,
        "n_measurements": 1,
        "n_outcomes": 2,
    }

    def test_valid_table_holds_floats(self):
        table = DataTable(**self.TABLE, shots=4)
        assert table.values.dtype == float
        assert np.array_equal(table.values, self.TABLE["values"])

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_states": 0}, "n_states must be >= 1"),
            ({"n_outcomes": -1}, "n_outcomes must be >= 1"),
            ({"shots": 0}, "shots must be >= 1"),
            ({"shots": -5}, "shots must be >= 1"),
            ({"values": [[0.25, "0.75"], [1.0, 0.0]]}, "values must be numbers"),
            ({"values": [[0.25, 0.75], [True, False]]}, "values must be numbers"),
            ({"values": [[0.25, 0.75], [1.0]]}, "values must be numbers"),
            ({"values": [[0.25, 0.75]]}, "shape"),
            ({"values": [[0.25, 0.75], [None, 0.0]]}, "finite"),
            ({"values": [[0.25, 0.75], [np.inf, 0.0]]}, "finite"),
            ({"values": [[1.25, -0.25], [1.0, 0.0]]}, r"outside \[0, 1\]"),
            ({"values": [[0.25, 0.5], [1.0, 0.0]]}, "do not sum to 1"),
        ],
    )
    def test_rejects_invalid_table(self, change, message):
        with pytest.raises(ValueError, match=message):
            DataTable(**{**self.TABLE, **change})

    def test_values_are_a_read_only_copy(self):
        vals = np.array(self.TABLE["values"])
        table = DataTable(**{**self.TABLE, "values": vals})
        with pytest.raises(ValueError, match="read-only"):
            table.values[:] *= 2
        vals[:] *= 2
        assert np.array_equal(table.values, self.TABLE["values"])


class TestDeterminismAndSerialization:
    def test_same_seed_same_ensemble(self):
        a = sample_ensemble(3, 4, 3, np.random.default_rng(42))
        b = sample_ensemble(3, 4, 3, np.random.default_rng(42))
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa, sb)
        ta = born_table(a, 100, np.random.default_rng(1))
        tb = born_table(b, 100, np.random.default_rng(1))
        assert np.array_equal(ta.values, tb.values)

    def test_table_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(16)
        ens = sample_ensemble(2, 3, 2, rng)
        for shots in (None, 100):
            table = born_table(ens, shots, rng)
            dump_json(table, tmp_path / "table.json")
            back = from_json(DataTable, json.loads((tmp_path / "table.json").read_text()))
            assert back.values.tobytes() == table.values.tobytes()
            assert back.values.shape == table.values.shape
            assert (back.n_states, back.n_measurements, back.n_outcomes, back.shots) == (
                table.n_states,
                table.n_measurements,
                table.n_outcomes,
                shots,
            )

    def test_ensemble_json(self, tmp_path):
        ens = sample_ensemble(2, 3, 2, np.random.default_rng(18))
        dump_json(ens, tmp_path / "ensemble.json")
        obj = json.loads((tmp_path / "ensemble.json").read_text())
        assert set(obj) == {"dim", "states", "povms"}
        assert obj["dim"] == 2
        # complex entries are [re, im] pairs
        states = np.array(obj["states"])
        assert states.shape == (3, 2, 2, 2)
        assert np.array_equal(states[..., 0] + 1j * states[..., 1], np.array(ens.states))
        assert np.array(obj["povms"]).shape == (2, 2, 2, 2, 2)

    def test_dump_rejects_what_json_cannot_hold(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(TypeError, match="object"):
            dump_json({"x": object()}, path)
        assert not path.exists()
