"""Tests for the Gram-matrix model, knowledge sets, and rank tools."""

import numpy as np
import pytest

from gramscope.estimator import born_table
from gramscope.gram import (
    PIN,
    GramMatrix,
    Knowledge,
    gram,
    knowledge_projective,
    knowledge_relax,
    numerical_rank,
    r_qm,
    rank_certificate,
    rank_tail,
    realize,
)
from gramscope.synth import DataTable, sample_ensemble


class TestRealizeAndGram:
    @pytest.mark.parametrize(
        "d, w, v, kwargs",
        [
            (2, 3, 2, {}),
            (2, 3, 2, {"mixed": True}),
            (3, 2, 2, {"degeneracies": [2, 1]}),
            (1, 2, 2, {}),
        ],
        ids=["pure_d2", "mixed_d2", "degenerate_d3", "d1"],
    )
    def test_gram_matches_trace_inner_products(self, d, w, v, kwargs):
        ens = sample_ensemble(d, w, v, np.random.default_rng(0), **kwargs)
        p, g = realize(ens), gram(ens)
        ops = list(ens.states) + [e for povm in ens.povms for e in povm]
        assert p.shape == (d * d, len(ops))
        assert (g.n_states, g.n_effects) == (w, len(ops) - w)
        assert np.array_equal(g.values, p.T @ p)
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                assert g.values[i, j] == pytest.approx(np.trace(a @ b).real, abs=1e-10)

    def test_data_block_equals_born_table(self):
        ens = sample_ensemble(3, 4, 3, np.random.default_rng(1))
        g = gram(ens)
        table = born_table(ens)
        assert np.max(np.abs(g.data_block - table.values)) < 1e-10

    def test_gram_rank_at_most_d_squared(self):
        for d in (2, 3):
            ens = sample_ensemble(d, 3 * d * d, 2 * d * d, np.random.default_rng(d))
            g = gram(ens)
            assert numerical_rank(g.values) == d * d

    def test_gram_is_psd(self):
        ens = sample_ensemble(2, 5, 5, np.random.default_rng(2))
        g = gram(ens)
        assert np.array_equal(g.values, g.values.T)
        assert np.linalg.eigvalsh(g.values).min() > -1e-10


class TestRQm:
    def test_values(self):
        assert r_qm(5, 5, 2) == 15.0
        assert r_qm(60, 100, 3) == 360.0
        assert r_qm(1, 1, 1) == 2.0

    def test_is_an_operator_norm_bound(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            for _ in range(5):
                w = int(rng.integers(1, 8))
                v = int(rng.integers(1, 8))
                ens = sample_ensemble(d, w, v, rng)
                g = gram(ens)
                assert np.linalg.norm(g.values, 2) <= r_qm(w, v, d) + 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            r_qm(0, 1, 2)


class TestKnowledgeProjective:
    def test_constraint_count_5_5_k2(self):
        ens = sample_ensemble(2, 5, 5, np.random.default_rng(4))
        kn = knowledge_projective(born_table(ens), 2)
        # 5*10 data entries + 5 measurements * 3 upper-triangle entries
        assert len(kn.constraints) == 65
        assert kn.n == 15
        assert kn.split == 5

    def test_truth_is_feasible(self):
        ens = sample_ensemble(3, 4, 3, np.random.default_rng(5))
        g = gram(ens)
        kn = knowledge_projective(born_table(ens), 3)
        i, j, lo, hi = kn.arrays()
        assert np.array_equal(lo, hi)
        assert np.max(np.abs(g.values[i, j] - lo)) < 1e-9

    def test_within_measurement_blocks_are_identity(self):
        ens = sample_ensemble(2, 2, 3, np.random.default_rng(6))
        kn = knowledge_projective(born_table(ens), 2)
        diag = {(int(i), int(j)): lo for i, j, lo, _ in kn.constraints if i >= kn.split}
        for v in range(3):
            base = 2 + v * 2
            assert diag[(base, base)] == 1.0
            assert diag[(base + 1, base + 1)] == 1.0
            assert diag[(base, base + 1)] == 0.0

    def test_degenerate_multiplicities(self):
        ens = sample_ensemble(
            3, 2, 2, np.random.default_rng(7), degeneracies=[2, 1]
        )
        kn = knowledge_projective(born_table(ens), 3, degeneracies=[2, 1])
        diag = {(int(i), int(j)): lo for i, j, lo, _ in kn.constraints if i >= kn.split}
        for v in range(2):
            base = 2 + v * 2
            assert diag[(base, base)] == 2.0
            assert diag[(base + 1, base + 1)] == 1.0
            assert diag[(base, base + 1)] == 0.0

    def test_cross_measurement_blocks_free(self):
        ens = sample_ensemble(2, 2, 2, np.random.default_rng(8))
        kn = knowledge_projective(born_table(ens), 2)
        pinned = {(int(i), int(j)) for i, j, _, _ in kn.constraints}
        # entries linking measurement 0 (rows 2,3) and measurement 1 (cols 4,5)
        for i in (2, 3):
            for j in (4, 5):
                assert (i, j) not in pinned
        # state block is free too
        assert (0, 0) not in pinned and (0, 1) not in pinned

    def test_rejects_k_neq_d_without_degeneracies(self):
        ens = sample_ensemble(3, 2, 2, np.random.default_rng(9), degeneracies=[2, 1])
        with pytest.raises(ValueError):
            knowledge_projective(born_table(ens), 3)


class TestKnowledgeRelax:
    def _kn(self):
        ens = sample_ensemble(2, 2, 2, np.random.default_rng(10))
        return knowledge_projective(born_table(ens), 2)

    def test_eps_zero_is_identity(self):
        kn = self._kn()
        assert knowledge_relax(kn, 0.0) is kn

    def test_data_scope_widens_only_data_block(self):
        kn = self._kn()
        out = knowledge_relax(kn, 0.01)
        for c, c0 in zip(out.constraints, kn.constraints):
            assert (c["i"], c["j"]) == (c0["i"], c0["j"])
            if c0["i"] < kn.split <= c0["j"]:
                assert c["lo"] == pytest.approx(c0["lo"] - 0.01)
                assert c["hi"] == pytest.approx(c0["hi"] + 0.01)
            else:
                assert c["lo"] == c["hi"] == c0["lo"]

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            knowledge_relax(self._kn(), -1.0)


class TestKnowledgeValidation:
    def test_rejects_out_of_range(self):
        for pin in [(0, 2, 1.0, 1.0), (-1, 1, 1.0, 1.0), (1, 0, 1.0, 1.0)]:
            with pytest.raises(ValueError, match="out of range"):
                Knowledge(n=2, constraints=[pin])
        # an index that is a bool or not an integer value would be cast to one
        for pin in [
            (0, 1.7, 0.5, 0.5),
            (True, 2, 0.5, 0.5),
            (0, np.nan, 0.5, 0.5),
            ("0", 1, 0.5, 0.5),
        ]:
            with pytest.raises(ValueError, match=r"pin row \(.*\) needs integer i and j"):
                Knowledge(n=3, constraints=[pin])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate pin"):
            Knowledge(n=2, constraints=[(0, 1, 1.0, 1.0), (1, 1, 0.0, 0.0), (0, 1, 2.0, 2.0)])

    def test_rejects_non_finite_bounds(self):
        for pin in [(0, 1, np.nan, np.nan), (0, 1, -np.inf, 0.0), (0, 0, 0.0, np.inf)]:
            with pytest.raises(ValueError, match="finite"):
                Knowledge(n=2, constraints=[pin])

    @pytest.mark.parametrize("split", [-1, 4, 9])
    def test_rejects_split_outside_the_matrix(self, split):
        with pytest.raises(ValueError, match=f"split={split} is not in"):
            Knowledge(n=3, split=split)

    @pytest.mark.parametrize("split", [None, 0, 3])
    def test_accepts_split_in_range(self, split):
        assert Knowledge(n=3, split=split).split == split

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            Knowledge(n=2, constraints=[(0, 1, 1.0, 0.0)])

    def test_accepts_rows_and_pin_arrays(self):
        kn = Knowledge(n=3, constraints=np.array([[0.0, 2.0, 0.5, 0.5], [1.0, 1.0, -1.0, 1.0]]))
        assert len(kn.constraints) == 2
        again = Knowledge(n=3, constraints=kn.constraints)
        assert again.constraints.tolist() == kn.constraints.tolist()
        i, j, lo, hi = kn.arrays()
        assert i.tolist() == [0, 1] and j.tolist() == [2, 1]
        assert lo.tolist() == [0.5, -1.0] and hi.tolist() == [0.5, 1.0]

    def test_checked_pins_cannot_change_in_place(self):
        # a write would get past the lo <= hi check made at construction
        kn = Knowledge(n=2, constraints=[(0, 1, 0.0, 1.0)])
        with pytest.raises(ValueError, match="read-only"):
            kn.constraints["lo"][0] = 9.0
        # a writable pin array, or a read-only view of one, is copied: the
        # caller's array stays writable and its later writes do not reach kn
        mine = kn.constraints.copy()
        view = mine.view()
        view.flags.writeable = False
        for given in (mine, view):
            kn = Knowledge(n=2, constraints=given)
            mine["lo"][0] = 9.0
            assert kn.constraints["lo"][0] == 0.0
            mine["lo"][0] = 0.0

    def test_built_knowledge_is_read_only(self):
        table = born_table(sample_ensemble(2, 2, 2, np.random.default_rng(0)))
        kn = knowledge_projective(table, 2)
        for built in (kn, knowledge_relax(kn, 0.1)):
            assert not built.constraints.flags.writeable


class TestRankTools:
    def test_numerical_rank_exact(self):
        assert numerical_rank(np.diag([3.0, 2.0, 0.0])) == 2
        assert numerical_rank(np.zeros((4, 4))) == 0
        assert numerical_rank(np.eye(5)) == 5

    def test_numerical_rank_relative_threshold(self):
        assert numerical_rank(np.diag([1.0, 1e-7])) == 1
        assert numerical_rank(np.diag([1.0, 1e-5])) == 2

    def test_data_table_rank_is_d_squared(self):
        for d in (2, 3):
            ens = sample_ensemble(d, 4 * d * d, 3 * d * d, np.random.default_rng(11 + d))
            assert numerical_rank(born_table(ens).values) == d * d

    def test_rank_tail(self):
        from gramscope.gram import GramMatrix

        m = GramMatrix(values=np.diag([5.0, 3.0, 1.0]), n_states=1)
        assert rank_tail(m, 1) == pytest.approx(np.hypot(3.0, 1.0))
        assert rank_tail(m, 3) == 0.0
        # the tail is taken over |eigenvalues|, so -3 ranks above 1
        indefinite = GramMatrix(values=np.diag([5.0, -3.0, 1.0]), n_states=1)
        assert rank_tail(indefinite, 1) == pytest.approx(np.hypot(3.0, 1.0))
        assert rank_tail(indefinite, 2) == pytest.approx(1.0)

    def test_certificate_on_true_gram(self):
        from gramscope.gram import GramMatrix

        ens = sample_ensemble(2, 5, 5, np.random.default_rng(12))
        g = gram(ens)
        assert rank_certificate(g, 4, tau=1e-4)
        assert not rank_certificate(g, 3, tau=1e-4)

    def test_certificate_rejects_bad_args(self):
        from gramscope.gram import GramMatrix

        g = GramMatrix(values=np.eye(3), n_states=1)
        with pytest.raises(ValueError):
            rank_certificate(g, 4)
        with pytest.raises(ValueError):
            rank_certificate(g, 2, tau=0.0)


class TestGramMatrixValidation:
    @pytest.mark.parametrize("shape", [(3, 4), (3,), (2, 2, 2)])
    def test_rejects_non_square_values(self, shape):
        with pytest.raises(ValueError, match="square"):
            GramMatrix(values=np.zeros(shape), n_states=1)

    @pytest.mark.parametrize("n_states", [-1, 4, 7])
    def test_rejects_block_split_outside_the_matrix(self, n_states):
        with pytest.raises(ValueError, match=f"n_states={n_states} is not in"):
            GramMatrix(values=np.eye(3), n_states=n_states)

    @pytest.mark.parametrize("n_states", [0, 3])
    def test_accepts_empty_blocks(self, n_states):
        g = GramMatrix(values=np.eye(3), n_states=n_states)
        assert g.n_states + g.n_effects == 3

    def test_values_and_spectrum_are_read_only(self):
        # a write after the spectrum is cached would leave the certificate
        # reading the old matrix's tail
        g = gram(sample_ensemble(2, 5, 5, np.random.default_rng(12)))
        g.spectrum
        with pytest.raises(ValueError, match="read-only"):
            g.values[:] = np.eye(g.n)
        for arr in g.spectrum:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        assert rank_tail(g, 4) == rank_tail(GramMatrix(g.values.copy(), g.n_states), 4)

    def test_values_are_always_copied(self):
        given = np.eye(3)
        g = GramMatrix(values=given, n_states=1)
        given[0, 0] = 5.0
        assert g.values[0, 0] == 1.0 and given.flags.writeable
        owned = np.eye(3)
        owned.flags.writeable = False
        for same in (owned, owned[:, :]):
            kept = GramMatrix(values=same, n_states=1).values
            assert not np.shares_memory(kept, owned) and np.array_equal(kept, owned)
        listed = GramMatrix(values=[[1.0, 0.0], [0.0, 1.0]], n_states=1)
        assert listed.n == 2 and listed.values.dtype == float


# Each record stores its own read-only copy: (the values given, the values a
# writable view then writes, how the record is built, its stored array).
RECORDS = {
    "GramMatrix": (
        np.diag([1.0, 0.0, 0.0]),
        np.eye(3),
        lambda a: GramMatrix(values=a, n_states=1),
        lambda g: g.values,
    ),
    "Knowledge": (
        np.array([(0, 1, 0.0, 0.5)], dtype=PIN),
        np.array([(0, 1, 9.0, 0.5)], dtype=PIN),
        lambda a: Knowledge(n=3, constraints=a),
        lambda kn: kn.constraints,
    ),
    "DataTable": (
        np.array([[0.25, 0.75]]),
        np.array([[1.0, 0.0]]),
        lambda a: DataTable(values=a, n_states=1, n_measurements=1, n_outcomes=2),
        lambda t: t.values,
    ),
}


@pytest.mark.parametrize("kind", RECORDS)
def test_record_keeps_the_values_it_was_given(kind):
    # a writable view taken before the owner is frozen outlives the freeze
    template, written, build, stored = RECORDS[kind]
    given = template.copy()
    alias = given[:]
    given.flags.writeable = False
    record = build(given)
    alias[:] = written
    assert stored(record).tolist() == template.tolist()
    if kind == "GramMatrix":
        # rank 1 with a zero tail; the written identity would have tail sqrt(2)
        assert rank_certificate(record, 1, 1e-4) and rank_tail(record, 1) == 0.0
