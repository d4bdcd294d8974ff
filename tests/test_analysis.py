"""Tests for normalization, dimension purity entropy, and pair diagnostics."""

import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgec.objective
from kgec.analysis import (
    TypeLabels,
    activation_heatmap,
    load_type_labels,
    minmax_normalize,
    pair_residuals,
    purity_curve,
    shannon_entropy,
    write_heatmap_csv,
    write_purity_csv,
)
from kgec.data import Entailment
from kgec.model import ModelParams, init_params

from conftest import make_vocab
from oracles import (
    oracle_classify_pairs,
    oracle_dimension_purity,
    oracle_heatmap,
    oracle_relation_pair_diagnostic,
)


def labels_of(assignments) -> TypeLabels:
    """``{entity: type name}`` as labels, types numbered in first-seen order."""
    type_ids = {}
    for type_name in assignments.values():
        type_ids.setdefault(type_name, len(type_ids))
    entities = sorted(assignments)
    types = [type_ids[assignments[entity]] for entity in entities]
    return TypeLabels(np.array(entities, dtype=np.int64), np.array(types, dtype=np.int64), len(type_ids))


class TestMinmaxNormalize:
    def test_endpoints_and_midpoint(self):
        np.testing.assert_allclose(minmax_normalize([1.0, 3.0, 5.0]), [0.0, 0.5, 1.0])

    def test_constant_vector_maps_to_zeros(self):
        np.testing.assert_array_equal(minmax_normalize([2.0, 2.0]), [0.0, 0.0])

    def test_unit_range_is_fixed_point(self):
        x = np.array([0.0, 0.25, 1.0])
        np.testing.assert_allclose(minmax_normalize(x), x)

    def test_edge_cases_keep_their_bits(self):
        # Constant rows (an infinite one too, since hi == lo there) map to 0;
        # a row holding NaN stays NaN; a row with an infinite end is
        # 0 / inf / NaN as the division gives; 1-D and integer input work.
        inf, nan = np.inf, np.nan
        lo, hi, mid = np.float32([0.1, 0.7, 0.3]).tolist()  # float32 values, as floats
        cases = [
            ([[2.0, 2.0, 2.0], [1.0, 3.0, 5.0]], [[0, 0, 0], [0, 0.5, 1]]),
            ([[inf] * 3, [-inf] * 3, [0.0, inf, 1.0], [-inf, 0.0, 1.0]],
             [[0, 0, 0], [0, 0, 0], [0, nan, 0], [nan, nan, nan]]),
            ([[1.0, nan, 3.0], [nan] * 3], [[nan] * 3, [nan] * 3]),
            ([3.0, -1.0, 1.0], [1, 0, 0.5]),
            ([[1, 2, 3], [4, 4, 4]], [[0, 0.5, 1], [0, 0, 0]]),
            ([5, 7, 6], [0, 1, 0.5]),
            ([-0.0, 0.0], [0, 0]),
            (np.float32([[0.1, 0.7, 0.3]]), [[0, 1, (mid - lo) / (hi - lo)]]),
        ]
        for x, want in cases:
            with np.errstate(invalid="ignore"):
                got = minmax_normalize(x)
            want = np.asarray(want, dtype=float)
            assert got.dtype == np.float64 and got.shape == want.shape
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            seen = ~np.isnan(want)
            np.testing.assert_array_equal(got.view(np.uint64)[seen], want.view(np.uint64)[seen])

    def test_output_in_unit_interval_and_order_preserved(self, rng):
        for _ in range(30):
            x = rng.normal(size=10)
            y = minmax_normalize(x)
            assert y.min() >= 0.0 and y.max() <= 1.0
            if np.ptp(x) > 0:
                assert np.argmax(y) == np.argmax(x)
                assert np.argmin(y) == np.argmin(x)


class TestDimensionPurity:
    def test_single_type_selection_has_zero_entropy(self):
        component = np.zeros((4, 2))
        component[0, 0] = component[1, 0] = 1.0  # type A entities on top of dim 0
        component[0, 1] = component[1, 1] = 1.0
        labels = labels_of({0: "A", 1: "A", 2: "B", 3: "B"})
        k, entropy = purity_curve(component, labels, (50.0,)).points[0]
        assert k == 50.0
        assert entropy == 0.0

    def test_uniform_two_types(self):
        # Top-4 of each dimension covers 2 As and 2 Bs.
        component = np.arange(8, dtype=float)[::-1].reshape(-1, 1) * np.ones((8, 3))
        labels = labels_of({i: ("A" if i % 2 == 0 else "B") for i in range(8)})
        _, entropy = purity_curve(component, labels, (50.0,)).points[0]
        assert entropy == pytest.approx(np.log(2.0), abs=1e-12)

    def test_all_distinct_types_gives_log_n(self):
        n = 5
        component = np.ones((n, 2))
        labels = labels_of({i: f"T{i}" for i in range(n)})
        _, entropy = purity_curve(component, labels, (100.0,)).points[0]
        assert entropy == pytest.approx(np.log(n), abs=1e-12)

    def test_bounded_by_log_number_of_types(self, rng):
        component = rng.normal(size=(40, 6))
        labels = labels_of({i: f"T{i % 3}" for i in range(40)})
        for k in (5.0, 20.0, 100.0):
            _, entropy = purity_curve(component, labels, (k,)).points[0]
            assert 0.0 <= entropy <= np.log(3) + 1e-12

    def test_invariant_under_increasing_transform(self, rng):
        component = rng.normal(size=(25, 4))
        labels = labels_of({i: f"T{i % 4}" for i in range(25)})
        transformed = np.exp(component)  # strictly increasing, applied uniformly
        for k in (10.0, 40.0):
            assert purity_curve(component, labels, (k,)) == purity_curve(transformed, labels, (k,))

    def test_ties_break_toward_lower_entity_id(self):
        component = np.zeros((4, 1))  # every activation ties
        labels = labels_of({0: "A", 1: "A", 2: "B", 3: "B"})
        _, entropy = purity_curve(component, labels, (50.0,)).points[0]
        # Selection must be {0, 1}: pure type A.
        assert entropy == 0.0

    def test_selection_uses_only_labeled_entities(self):
        component = np.zeros((6, 1))
        component[4, 0] = component[5, 0] = 10.0  # unlabeled entities dominate
        labels = labels_of({0: "A", 1: "A", 2: "B", 3: "B"})
        _, entropy = purity_curve(component, labels, (25.0,)).points[0]
        assert entropy == 0.0  # ceil(0.25 * 4) = 1 labeled entity

    @pytest.mark.parametrize("k", [7, 14, 28, 56])
    def test_a_point_takes_exactly_k_percent_of_the_labels(self, k):
        # k / 100.0 * 100 lands just above k, whose ceiling would take one more.
        component = np.arange(100, 0, -1, dtype=float)[:, None]
        labels = labels_of({i: "A" if i < k else "B" for i in range(100)})
        assert purity_curve(component, labels, (k,)).points == [(k, 0.0)]
        assert oracle_dimension_purity(component, labels, k) == 0.0

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_a_labeled_id_outside_the_rows_raises(self, bad):
        # -1 would otherwise count the last row.
        labels = labels_of({0: "A", 1: "B", bad: "B"})
        with pytest.raises(IndexError, match=rf"^entity id {bad} out of range \[0, 4\)$"):
            purity_curve(np.arange(8.0).reshape(4, 2), labels, (50.0,))

    def test_validates_inputs(self):
        labels = labels_of({0: "A"})
        with pytest.raises(ValueError):
            purity_curve(np.ones((2, 2)), labels, (0.0,))
        with pytest.raises(ValueError):
            purity_curve(np.ones((2, 2)), labels_of({}), (10.0,))

    def test_curve_collects_points(self):
        component = np.random.default_rng(0).normal(size=(20, 3))
        labels = labels_of({i: f"T{i % 2}" for i in range(20)})
        curve = purity_curve(component, labels, (5, 50, 100))
        assert [k for k, _ in curve.points] == [5, 50, 100]
        assert all(e >= 0 for _, e in curve.points)


    def test_curve_matches_per_dimension_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, d, n_types = rng.integers(2, 60), rng.integers(1, 8), rng.integers(1, 6)
            # Rounded activations tie often; about a third of the rows are unlabeled.
            component = rng.normal(size=(n, d)).round(1)
            labeled = np.flatnonzero(rng.random(n) < 0.67)
            if labeled.size == 0:
                continue
            labels = labels_of({int(i): f"T{rng.integers(n_types)}" for i in labeled})
            curve = purity_curve(component, labels, (1, 5, 100))
            for k, entropy in curve.points:
                assert entropy == pytest.approx(
                    oracle_dimension_purity(component, labels, k), abs=1e-12
                )


class TestShannonEntropy:
    def test_known_values(self):
        assert shannon_entropy([4, 0]) == 0.0
        assert shannon_entropy([2, 2]) == pytest.approx(np.log(2))
        assert shannon_entropy([1, 1, 1, 1]) == pytest.approx(np.log(4))
        np.testing.assert_allclose(
            shannon_entropy([[4, 0], [2, 2], [0, 0]]), [0.0, np.log(2), 0.0]
        )


RESIDUAL_COLUMNS = ("max_abs_diff", "re_violation", "im_max_abs_diff")


def residuals_of(params, *rules) -> dict:
    """The defined residuals of the single row the rules classify into."""
    _, _, residuals = pair_residuals(params.rel, rules, 0.8)
    (row,) = residuals
    return {key: value for key, value in zip(RESIDUAL_COLUMNS, row) if not np.isnan(value)}


@st.composite
def rule_lists(draw):
    m = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.complex128, np.complex64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rel = (rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))).astype(dtype)
    params = ModelParams(np.zeros((1, d), dtype), rel)
    thresh = draw(st.sampled_from([0.5, 0.8]))
    ids = st.integers(0, m - 1)
    # Few relations make duplicates and reverse rules common; a confidence
    # may equal the threshold or fall below it. p^-1 -> p is self-inverse.
    confidence = st.one_of(
        st.sampled_from([0.3, thresh, 0.9, 1.0]), st.floats(0.01, 1.0, allow_subnormal=False)
    )
    rule = st.tuples(ids, st.booleans(), ids, confidence).filter(lambda e: e[1] or e[0] != e[2])
    return params, [Entailment(*e) for e in draw(st.lists(rule, max_size=12))], thresh


class TestPairDiagnostics:
    def test_identical_representations(self):
        params = init_params(2, 2, 4, seed=0)
        params.re_r[1] = params.re_r[0]
        params.im_r[1] = params.im_r[0]
        rules = [Entailment(0, False, 1, 0.9), Entailment(1, False, 0, 0.9)]
        assert residuals_of(params, *rules) == {"max_abs_diff": 0.0}

    def test_conjugate_representations(self):
        params = init_params(2, 2, 4, seed=1)
        params.re_r[1] = params.re_r[0]
        params.im_r[1] = -params.im_r[0]
        rules = [Entailment(0, True, 1, 0.9), Entailment(1, True, 0, 0.9)]
        assert residuals_of(params, *rules) == {"max_abs_diff": 0.0}

    def test_satisfied_ordering_has_zero_violation(self):
        params = init_params(2, 2, 1, seed=2)
        params.re_r[0] = [0.1]
        params.re_r[1] = [0.3]
        params.im_r[1] = params.im_r[0]
        residuals = residuals_of(params, Entailment(0, False, 1, 0.9))
        assert residuals["re_violation"] == 0.0
        assert residuals["im_max_abs_diff"] == 0.0

    def test_violations_are_reported(self):
        params = init_params(2, 2, 2, seed=3)
        params.re_r[0] = [0.5, 0.0]
        params.re_r[1] = [0.3, 0.1]
        params.im_r[0] = [0.0, 0.2]
        params.im_r[1] = [0.0, -0.2]
        residuals = residuals_of(params, Entailment(0, False, 1, 0.9))
        assert residuals["re_violation"] == pytest.approx(0.2)
        assert residuals["im_max_abs_diff"] == pytest.approx(0.4)

    def test_inverted_premise_conjugates_first(self):
        params = init_params(2, 2, 1, seed=4)
        params.re_r[0] = params.re_r[1] = [0.0]
        params.im_r[0] = [0.3]
        params.im_r[1] = [-0.3]
        residuals = residuals_of(params, Entailment(0, True, 1, 0.9))
        assert residuals["im_max_abs_diff"] == 0.0

    def test_an_out_of_range_relation_id_raises(self):
        # With keys over the table's 2 relations, 0 <-> 2 would read as 1 -> 0.
        params = init_params(2, 2, 1, seed=6)
        with pytest.raises(IndexError):
            pair_residuals(params.rel, [Entailment(0, False, 2, 0.9), Entailment(2, False, 0, 0.9)], 0.8)

    @settings(max_examples=300, deadline=None)
    @given(rule_lists())
    @example((init_params(2, 2, 3, seed=5), [], 0.8))
    def test_matches_the_per_pair_oracle_exactly(self, instance):
        params, rules, thresh = instance
        kinds, rows, residuals = pair_residuals(params.rel, rules, thresh)
        equivalence, inversion, others = oracle_classify_pairs(rules, thresh)
        want_kinds, want_rows, want = [], [], []
        for kind, pairs in (("equivalence", equivalence), ("inversion", inversion)):
            for pair in pairs:
                want_kinds.append(kind)
                want_rows.append((pair[0], kind == "inversion", pair[1], 1.0))
                want.append(oracle_relation_pair_diagnostic(params, pair, kind))
        for ent in others:
            pair = (ent.premise_rel, ent.conclusion_rel)
            want_kinds.append("others")
            want_rows.append((pair[0], ent.premise_inverted, pair[1], ent.confidence))
            want.append(oracle_relation_pair_diagnostic(params, pair, "others", ent.premise_inverted))
        assert kinds.tolist() == want_kinds
        got_rows = zip(rows.premise.tolist(), rows.inverted.tolist(), rows.conclusion.tolist(),
                       rows.confidence.tolist())
        assert list(got_rows) == want_rows
        want = [[row.get(key, np.nan) for key in RESIDUAL_COLUMNS] for row in want]
        np.testing.assert_array_equal(residuals, np.reshape(want, (-1, 3)))


class TestTypeLabelIO:
    def test_load_and_skip_unknown(self, tmp_path, caplog):
        import logging

        vocab = make_vocab(3, 0)
        path = tmp_path / "types.tsv"
        path.write_text("e0\treptile\ne1\tspecies\ne2\treptile\nghost\tspecies\n")
        with caplog.at_level(logging.WARNING):
            labels = load_type_labels(path, vocab)
        assert labels.entities.tolist() == [0, 1, 2]
        assert labels.n_types == 2
        assert labels.types[0] == labels.types[2]
        assert "skipped 1" in caplog.text

    @pytest.mark.parametrize("text", ["ghost\tT0\n", ""], ids=["unknown-entity", "empty"])
    def test_a_file_that_labels_no_entity_raises_naming_it(self, tmp_path, text):
        path = tmp_path / "types.tsv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_type_labels(path, make_vocab(2, 0))
        assert str(exc.value) == f"{path}: no type label names an entity of the vocabulary"

    def test_a_later_line_overrides_an_earlier_one(self, tmp_path):
        path = tmp_path / "types.tsv"
        path.write_text("e0\tA\ne1\tB\ne0\tB\ne1\tC\n")
        labels = load_type_labels(path, make_vocab(2, 0))
        assert labels.entities.tolist() == [0, 1]
        assert labels.types.tolist() == [1, 2]  # A, B, C numbered in first-seen order
        assert labels.n_types == 3

    def test_entities_come_back_ascending_with_their_types(self, tmp_path):
        path = tmp_path / "types.tsv"
        path.write_text("e3\tX\ne0\tY\ne2\tZ\ne1\tY\n")
        labels = load_type_labels(path, make_vocab(4, 0))
        assert labels.entities.dtype == np.int64 and labels.types.dtype == np.int64
        assert labels.entities.tolist() == [0, 1, 2, 3]
        assert labels.types.tolist() == [1, 1, 2, 0]

    def test_rejects_malformed_line(self, tmp_path):
        vocab = make_vocab(1, 0)
        path = tmp_path / "types.tsv"
        path.write_text("e0\n")
        message = f"{path}:1: expected 2 tab-separated fields, got 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_type_labels(path, vocab)


class TestExports:
    def test_purity_csv(self, tmp_path):
        from kgec.analysis import PurityCurve

        path = tmp_path / "purity.csv"
        write_purity_csv(PurityCurve([(5.0, 0.693147), (10.0, 0.0)]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k_percent,mean_entropy_nats"
        assert lines[1] == "5,0.693147"

    def test_heatmap_matches_row_by_row_reference(self, rng):
        # Strided float32 components of a complex64 checkpoint, with a
        # constant row and box-clamped entries, as analyze sees them.
        params = init_params(30, 2, 6, seed=3).astype(np.float32)
        params.re_e[4] = 0.5
        params.re_e[7, :3] = 1.0
        ids = rng.permutation(30)[:20]
        np.testing.assert_array_equal(activation_heatmap(params.re_e, ids),
                                      oracle_heatmap(params.re_e, ids))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_heatmap_rejects_an_id_outside_the_rows(self, bad):
        # -1 would otherwise normalise the last row.
        with pytest.raises(IndexError, match=rf"^entity id {bad} out of range \[0, 4\)$"):
            activation_heatmap(np.arange(12.0).reshape(4, 3), [0, bad])

    def test_heatmap_rows_are_normalized(self, tmp_path):
        component = np.array([[1.0, 3.0, 5.0], [2.0, 2.0, 2.0]])
        matrix = activation_heatmap(component, [0, 1])
        np.testing.assert_allclose(matrix[0], [0.0, 0.5, 1.0])
        np.testing.assert_allclose(matrix[1], [0.0, 0.0, 0.0])
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(matrix, ["a", "b"], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "entity,dim_0,dim_1,dim_2"
        assert lines[1] == "a,0.000000,0.500000,1.000000"


@pytest.fixture
def submitted(monkeypatch):
    """The names of the block functions that reach the pool, which runs them
    on two threads of its own."""
    names = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, run_part, fn, *args, **kwargs):
            names.append(fn.__name__)
            return super().submit(run_part, fn, *args, **kwargs)

    with CountingPool(2) as pool:
        monkeypatch.setattr(kgec.objective, "_POOL", pool)
        yield names


class TestBlocksAndParts:
    """The heatmap runs in blocks of rows and the purity curve in blocks of
    columns, spread over the parts of ``objective._per_block``; neither
    result depends on the block size or the number of parts."""

    def test_heatmap_matches_the_row_by_row_oracle(self, monkeypatch, submitted):
        rng = np.random.default_rng(5)
        params = init_params(90, 1, 7, seed=5)
        # Box-clamped entries, all-zero rows and rows of only 0 and 1.
        params.ent[:] = np.clip(rng.normal(0.5, 0.6, (90, 7)), 0, 1) + 1j * np.clip(
            rng.normal(0.5, 0.6, (90, 7)), 0, 1)
        params.ent[::9] = 0.0
        params.re_e[4::10] = rng.integers(2, size=(9, 7))
        ids = np.concatenate([rng.permutation(90), rng.integers(90, size=40)])
        monkeypatch.setattr(kgec.objective, "_BLOCK_BYTES", 4 * 7 * 8)  # 4 rows a block
        for table in (params, params.astype(np.float32)):
            for component in (table.re_e, table.im_e):
                want = oracle_heatmap(component, ids).tobytes()
                for workers in (1, 2):
                    monkeypatch.setattr(kgec.objective, "_WORKERS", workers)
                    assert activation_heatmap(component, ids).tobytes() == want
        assert "normalize_rows" in submitted

    def test_purity_matches_the_oracle_with_ties_across_block_edges(self, monkeypatch, submitted):
        rng = np.random.default_rng(11)
        # Rounded columns tie often; repeated and constant columns straddle
        # the edges of two-column blocks.
        # Enough rows that an unstable sort would reorder ties.
        base = np.column_stack([rng.normal(size=(3_000, 3)).round(1), np.zeros(3_000)])
        component = base[:, [0, 0, 1, 3, 3, 1, 2, 2, 0]]
        labeled = rng.permutation(3_000)[:1_500]
        labels = labels_of({int(i): f"T{rng.integers(4)}" for i in labeled})
        ks = (1, 5, 33, 100)
        monkeypatch.setattr(kgec.objective, "_BLOCK_BYTES", 2 * 4 * 8 * 1_500)
        curves = []
        for workers in (1, 2):
            monkeypatch.setattr(kgec.objective, "_WORKERS", workers)
            curves.append(purity_curve(component, labels, ks))
        assert "top_k_counts" in submitted
        monkeypatch.setattr(kgec.objective, "_BLOCK_BYTES", 2**21)  # one block
        curves.append(purity_curve(component, labels, ks))
        assert curves[1] == curves[0] and curves[2] == curves[0]
        for k, entropy in curves[0].points:
            want = oracle_dimension_purity(component, labels, k)
            assert entropy == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("block_columns", [1, 2, 3])
    def test_purity_keeps_nan_inf_and_signed_zero_ties_in_id_order(
        self, monkeypatch, submitted, block_columns
    ):
        # Every entry ties: each column draws from NaN, +-inf, -0.0 and 0.0
        # and two finite values, some rows are NaN throughout, and an all-NaN,
        # a constant and a -0.0/0.0 column repeat across block edges. About
        # half of each mixed column is NaN, so the larger K cut inside the
        # NaNs' run, which sorts last.
        rng = np.random.default_rng(17)
        n, pool = 2_000, [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 0.5]
        mixed = rng.choice(pool, size=(n, 3), p=[0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        mixed[rng.random(n) < 0.1] = np.nan
        signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        columns = np.column_stack([mixed, np.full(n, np.nan), np.full(n, 2.0), signed_zeros])
        component = columns[:, [0, 3, 3, 1, 4, 5, 4, 2, 5, 0]]
        labeled = rng.permutation(n)[:1_600]
        labels = labels_of({int(i): f"T{rng.integers(5)}" for i in labeled})
        ks = (3, 20, 45, 60, 70, 85, 99, 100)
        monkeypatch.setattr(kgec.objective, "_BLOCK_BYTES", block_columns * 4 * 8 * 1_600)
        curves = []
        for workers in (1, 2):
            monkeypatch.setattr(kgec.objective, "_WORKERS", workers)
            curves.append(purity_curve(component, labels, ks))
        assert "top_k_counts" in submitted
        assert curves[1] == curves[0]
        for k, entropy in curves[0].points:
            assert entropy == pytest.approx(oracle_dimension_purity(component, labels, k), abs=1e-12)

    def test_a_planted_shaped_analysis_runs_without_the_pool(self, monkeypatch):
        # At C06's shape (200 x 50) both loops are one block, run inline.
        class RefusingPool:
            def submit(self, *args, **kwargs):
                raise AssertionError("a one-block loop reached the pool")

        monkeypatch.setattr(kgec.objective, "_POOL", RefusingPool())
        monkeypatch.setattr(kgec.objective, "_WORKERS", 2)
        params = init_params(200, 10, 50, seed=0)
        labels = labels_of({i: f"T{i % 5}" for i in range(200)})
        for component in (params.re_e, params.im_e):
            purity_curve(activation_heatmap(component, range(200)), labels)

    @pytest.mark.parametrize("n", [20_000, 80_000])
    def test_heatmap_scratch_does_not_grow_with_the_table(self, n):
        # Blocks keep the scratch near a few blocks' bytes; one table-sized
        # float64 temporary would be 16 MB at the smaller size.
        component = np.random.default_rng(0).random((n, 100), dtype=np.float32)
        tracemalloc.start()
        try:
            out = activation_heatmap(component, range(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 16 * 2**20
