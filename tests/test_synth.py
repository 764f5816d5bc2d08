"""Tests for ensemble sampling and data-table generation."""

import json

import numpy as np
import pytest

import gramscope.estimator
from gramscope.estimator import TrialConfig, born_table, estimate
from gramscope.gram import realize
from gramscope.synth import (
    DataTable,
    Ensemble,
    dump_json,
    from_json,
    projective_multiplicities,
    sample_ensemble,
)


class TestSampleEnsemble:
    # pure d=3, mixed d=3, degenerate [2, 1] d=3, degenerate [3, 1] d=4
    CASES = [(3, False, None), (3, True, None), (3, False, [2, 1]), (4, False, [3, 1])]

    @pytest.mark.parametrize("d, mixed, degeneracies", CASES)
    def test_stacked_draw_equals_one_draw_per_item(self, d, mixed, degeneracies):
        # W states and V measurements drawn as two stacks are, bit for bit,
        # W one-state draws followed by V one-measurement draws
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        ens = sample_ensemble(d, 5, 7, rng, mixed, degeneracies)
        states = [sample_ensemble(d, 1, 0, twin, mixed, degeneracies).states for _ in range(5)]
        povms = [sample_ensemble(d, 0, 1, twin, mixed, degeneracies).povms for _ in range(7)]
        assert ens.states.tobytes() == np.concatenate(states).tobytes()
        assert ens.povms.tobytes() == np.concatenate(povms).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_rejects_dimension_below_one(self):
        with pytest.raises(ValueError, match=r"^dimension must be >= 1, got 0$"):
            sample_ensemble(0, 1, 1, np.random.default_rng(0))


class TestHaarBasis:
    def test_effect_overlap_moments(self):
        # for a Haar basis, <0|E_k|0> = |<0|U|k>|^2 ~ Beta(1, d - 1): mean 1/d
        # and second moment 2 / (d (d + 1)); one effect per measurement, as
        # the d effects' overlaps sum to 1
        d = 3
        povms = sample_ensemble(d, 0, 4000, np.random.default_rng(1)).povms
        x = povms[:, 0, 0, 0].real
        assert abs(x.mean() - 1 / d) < 0.015
        assert abs((x**2).mean() - 2 / (d * (d + 1))) < 0.015


class TestSamplePureState:
    def test_purity_and_trace(self):
        rng = np.random.default_rng(2)
        for d in (1, 2, 4):
            for rho in sample_ensemble(d, 3, 0, rng).states:
                assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
                assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)

    def test_is_the_outer_product_of_a_normalized_gaussian(self):
        # bit for bit: each state is |psi><psi| of psi = g / ||g||, with g
        # drawn as d real parts, then d imaginary parts
        states = sample_ensemble(4, 6, 0, np.random.default_rng(12)).states
        twin = np.random.default_rng(12)
        for rho in states:
            psi = twin.standard_normal(4) + 1j * twin.standard_normal(4)
            psi /= np.linalg.norm(psi)
            assert rho.tobytes() == np.outer(psi, psi.conj()).tobytes()

    def test_d1(self):
        rho = sample_ensemble(1, 1, 0, np.random.default_rng(0)).states[0]
        assert np.allclose(rho, [[1.0]])

    def test_mean_is_maximally_mixed(self):
        mean = sample_ensemble(2, 10_000, 0, np.random.default_rng(3)).states.mean(axis=0)
        assert np.max(np.abs(mean - np.eye(2) / 2)) < 0.05


class TestSampleProjectiveMeasurement:
    def test_projective_closure(self):
        rng = np.random.default_rng(4)
        for d in (1, 2, 3):
            povm = sample_ensemble(d, 0, 1, rng).povms[0]
            assert len(povm) == d
            assert np.max(np.abs(sum(povm) - np.eye(d))) < 1e-10
            for k, ek in enumerate(povm):
                for q, eq in enumerate(povm):
                    expected = 1.0 if k == q else 0.0
                    assert np.trace(ek @ eq).real == pytest.approx(expected, abs=1e-10)

    def test_mean_effect_is_maximally_mixed(self):
        povms = sample_ensemble(2, 0, 10_000, np.random.default_rng(5)).povms
        assert np.max(np.abs(povms[:, 0].mean(axis=0) - np.eye(2) / 2)) < 0.05

    def test_degenerate_pattern(self):
        rng = np.random.default_rng(6)
        povm = sample_ensemble(3, 0, 1, rng, degeneracies=[2, 1]).povms[0]
        assert len(povm) == 2
        assert np.trace(povm[0]).real == pytest.approx(2.0, abs=1e-10)
        assert np.max(np.abs(sum(povm) - np.eye(3))) < 1e-10

    def test_rejects_bad_degeneracies(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_ensemble(3, 0, 1, rng, degeneracies=[2, 2])
        with pytest.raises(ValueError, match=r"^degeneracies\[0\] must be an integer, got 1.5$"):
            sample_ensemble(3, 0, 1, rng, degeneracies=[1.5, 1.5])
        with pytest.raises(ValueError, match=r"^degeneracies\[1\] must be an integer, got True$"):
            projective_multiplicities(2, None, [1, True])
        with pytest.raises(ValueError, match=r"^degeneracies must be a list, got \(2, 1\)$"):
            projective_multiplicities(3, None, (2, 1))


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

    def test_one_contraction_per_table(self, monkeypatch):
        # the tracer of the benchmark wraps this name in gramscope.estimator
        calls = []
        contract = gramscope.estimator.born_probabilities

        def counted(rho, effects):
            calls.append((rho.shape, effects.shape))
            return contract(rho, effects)

        monkeypatch.setattr(gramscope.estimator, "born_probabilities", counted)
        ens = sample_ensemble(3, 5, 4, np.random.default_rng(3))
        born_table(ens, 100, np.random.default_rng(4))
        assert calls == [((5, 1, 1, 3, 3), (4, 3, 3, 3))]

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
                Ensemble(dim=d, states=ens.states, povms=povms)

    def test_state_norm_window(self):
        rng = np.random.default_rng(8)
        for d in (2, 3, 4):
            ens = sample_ensemble(d, 5, 2, rng, mixed=True)
            Ensemble(dim=d, states=ens.states, povms=ens.povms)
            for rho in ens.states:
                hs = np.linalg.norm(rho)
                assert 1 / np.sqrt(d) - 1e-9 <= hs <= 1 + 1e-9

    def test_every_povm_must_be_projective(self):
        # a degenerate pattern is projective; a 50/50 mixture of two
        # projective measurements is a valid POVM but not a projective one
        ens = sample_ensemble(3, 2, 2, np.random.default_rng(5), degeneracies=[2, 1])
        Ensemble(dim=3, states=ens.states, povms=ens.povms)
        ens = sample_ensemble(2, 2, 2, np.random.default_rng(6))
        mix = [(a + b) / 2 for a, b in zip(*ens.povms)]
        with pytest.raises(ValueError, match="not orthogonal projectors"):
            Ensemble(dim=2, states=ens.states, povms=[mix])

    def test_povm_norm_budget(self):
        rng = np.random.default_rng(9)
        for d in (2, 3, 4):
            povm = sample_ensemble(d, 0, 1, rng).povms[0]
            budget = sum(np.linalg.norm(e) ** 2 for e in povm)
            assert budget == pytest.approx(d, abs=1e-9)


KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = 0.5 * np.ones((2, 2), dtype=complex)


class TestEnsemble:
    def test_holds_read_only_stacks(self):
        ens = sample_ensemble(3, 4, 2, np.random.default_rng(0), degeneracies=[2, 1])
        assert ens.states.shape == (4, 3, 3) and ens.povms.shape == (2, 2, 3, 3)
        assert ens.states.dtype == ens.povms.dtype == complex
        assert (ens.n_states, ens.n_measurements, ens.n_outcomes) == (4, 2, 2)
        with pytest.raises(ValueError, match="read-only"):
            ens.states[0][0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            ens.povms[0, 0][:] = np.eye(3)
        with pytest.raises(AttributeError):
            ens.states.append(np.zeros((3, 3)))
        _, truth = estimate(TrialConfig(d=2, n_states=5, n_measurements=5, max_augmentations=0))
        with pytest.raises(ValueError, match="read-only"):
            truth.states[0][:] = np.eye(2)

    def test_owns_its_arrays(self):
        # the caller's arrays stay writable, and later writes to them do not
        # reach the record
        states, povm = np.array([KET0, PLUS]), [KET0.copy(), KET1.copy()]
        ens = Ensemble(dim=2, states=states, povms=[povm])
        states[0] = KET1
        povm[0][:] = 0.0
        assert np.array_equal(ens.states, [KET0, PLUS])
        assert np.array_equal(ens.povms, [[KET0, KET1]])
        before = born_table(ens).values
        states[1] = KET0
        assert np.array_equal(born_table(ens).values, before)

    def test_empty_stacks(self):
        for ens in (Ensemble(dim=2), Ensemble(dim=2, states=[], povms=[])):
            assert ens.states.shape == (0, 2, 2) and ens.povms.shape == (0, 0, 2, 2)
            assert (ens.n_states, ens.n_measurements, ens.n_outcomes) == (0, 0, 0)
        rows = sample_ensemble(2, 1, 0, np.random.default_rng(0))
        cols = sample_ensemble(2, 0, 1, np.random.default_rng(0))
        assert rows.states.shape == (1, 2, 2) and rows.povms.shape == (0, 0, 2, 2)
        assert cols.states.shape == (0, 2, 2) and cols.povms.shape == (1, 2, 2, 2)
        assert realize(cols).shape == (4, 2)
        one_by_one = Ensemble(dim=2, states=rows.states, povms=cols.povms)
        assert born_table(one_by_one).values.shape == (1, 2)

    @pytest.mark.parametrize(
        "states, povms, message",
        [
            # a stack is never reshaped: one 4 x 4 state is not four 2 x 2 ones
            ([np.eye(4) / 4], [[KET0, KET1]], r"^state 0 has shape \(4, 4\), expected \(2, 2\)$"),
            (np.eye(2) / 2, [[KET0, KET1]], r"^state 0 has shape \(2,\), expected \(2, 2\)$"),
            ([KET0, np.eye(3) / 3], [[KET0, KET1]], r"^state 1 has shape \(3, 3\)"),
            ([KET0], [KET0, KET1], r"^effect \(0,0\) has shape \(2,\), expected \(2, 2\)$"),
            ([KET0], [[KET0, KET1], [np.eye(2)]], r"^POVM 1 has 1 effects, expected 2$"),
            ([KET0, [[0.5, 0.5], [0.0, 0.5]]], [[KET0, KET1]], r"^state 1 is not Hermitian$"),
            ([KET0, np.diag([1.5, -0.5])], [[KET0, KET1]], r"^state 1 is not PSD \(lambda_min=-5.000e-01\)$"),
            ([np.eye(2)], [[KET0, KET1]], r"^state 0 has trace 2.0$"),
            ([np.full((2, 2), np.nan)], [[KET0, KET1]], r"^state 0 is not Hermitian$"),
            # the rules in order, each naming its first bad state
            ([KET0, np.eye(2), [[1, 1], [0, 0]]], [[KET0, KET1]], r"^state 2 is not Hermitian$"),
            ([KET0, np.eye(2), 2 * KET1], [[KET0, KET1]], r"^state 1 has trace 2.0$"),
            ([KET0], [[KET0, KET1], [[[1, 1], [0, 0]], KET1]], r"^effect \(1,0\) is not Hermitian$"),
            ([KET0], [[KET0, KET1], [np.diag([2.0, -1.0]), KET1]], r"^effect \(1,0\) is not PSD$"),
            ([KET0], [[2 * KET0, KET1]], r"^POVM 0 effects \(0,0\) are not orthogonal projectors$"),
            ([KET0], [[KET0, PLUS]], r"^POVM 0 effects \(0,1\) are not orthogonal projectors$"),
            ([KET0], [[KET0, KET1], [KET0, 0 * KET1]], r"^POVM 1 does not sum to the identity$"),
            ([[["a", 0], [0, 1]]], [[KET0, KET1]], r"^states and povms must be complex stacks"),
        ],
    )
    def test_rejects_bad_ensembles(self, states, povms, message):
        with pytest.raises(ValueError, match=message):
            Ensemble(dim=2, states=states, povms=povms)

    def test_dimension_follows_the_type_rule(self):
        with pytest.raises(ValueError, match=r"^dim must be an integer, got 2.0$"):
            Ensemble(dim=2.0)


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
                Ensemble(dim=2, states=[rho], povms=ens.povms)


#: The type rule's message on a table cell that is not a finite real number.
CELL = r"values\[{}\]\[{}\] must be a finite real number"


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
            ({"values": [[0.25, "0.75"], [1.0, 0.0]]}, rf"^{CELL.format(0, 1)}, got '0.75'$"),
            ({"values": [[0.25, 0.75], [True, False]]}, rf"^{CELL.format(1, 0)}, got True$"),
            (
                {"values": [[0.25, 0.75], [1.0]]},
                r"^values\[0\] must be a finite real number, got \[0.25, 0.75\]$",
            ),
            ({"values": [[0.25, 0.75]]}, "shape"),
            ({"values": [[0.25, 0.75], [None, 0.0]]}, "finite"),
            ({"values": [[0.25, 0.75], [np.inf, 0.0]]}, "finite"),
            ({"values": [[1.25, -0.25], [1.0, 0.0]]}, r"outside \[0, 1\]"),
            ({"values": [[0.25, 0.5], [1.0, 0.0]]}, "do not sum to 1"),
            ({"values": [[0.25, None], [1.0, 0.0]]}, rf"^{CELL.format(0, 1)}, got None$"),
            ({"values": [[0.25, True], [1.0, 0.0]]}, rf"^{CELL.format(0, 1)}, got True$"),
            ({"values": [[0.25, "a"], [1.0, 0.0]]}, rf"^{CELL.format(0, 1)}, got 'a'$"),
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
