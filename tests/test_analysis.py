"""Tests for normalization, dimension purity entropy, and pair diagnostics."""

import re

import numpy as np
import pytest

from kgec.analysis import (
    TypeLabels,
    activation_heatmap,
    load_type_labels,
    minmax_normalize,
    purity_curve,
    relation_pair_diagnostic,
    shannon_entropy,
    write_heatmap_csv,
    write_purity_csv,
)
from kgec.data import IdMap, ParseError
from kgec.model import init_params

from conftest import make_vocab
from oracles import oracle_dimension_purity


def labels_of(assignments) -> TypeLabels:
    type_names = IdMap()
    labels = {}
    for entity, type_name in assignments.items():
        labels[entity] = type_names.add(type_name)
    return TypeLabels(labels, type_names)


class TestMinmaxNormalize:
    def test_endpoints_and_midpoint(self):
        np.testing.assert_allclose(minmax_normalize([1.0, 3.0, 5.0]), [0.0, 0.5, 1.0])

    def test_constant_vector_maps_to_zeros(self):
        np.testing.assert_array_equal(minmax_normalize([2.0, 2.0]), [0.0, 0.0])

    def test_unit_range_is_fixed_point(self):
        x = np.array([0.0, 0.25, 1.0])
        np.testing.assert_allclose(minmax_normalize(x), x)

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


class TestPairDiagnostics:
    def test_identical_representations(self):
        params = init_params(2, 2, 4, seed=0)
        params.re_r[1] = params.re_r[0]
        params.im_r[1] = params.im_r[0]
        diag = relation_pair_diagnostic(params, (0, 1), "equivalence")
        assert diag.residuals["max_abs_diff"] == 0.0

    def test_conjugate_representations(self):
        params = init_params(2, 2, 4, seed=1)
        params.re_r[1] = params.re_r[0]
        params.im_r[1] = -params.im_r[0]
        diag = relation_pair_diagnostic(params, (0, 1), "inversion")
        assert diag.residuals["max_abs_diff"] == 0.0

    def test_satisfied_ordering_has_zero_violation(self):
        params = init_params(2, 2, 1, seed=2)
        params.re_r[0] = [0.1]
        params.re_r[1] = [0.3]
        params.im_r[1] = params.im_r[0]
        diag = relation_pair_diagnostic(params, (0, 1), "others")
        assert diag.residuals["re_violation"] == 0.0
        assert diag.residuals["im_max_abs_diff"] == 0.0

    def test_violations_are_reported(self):
        params = init_params(2, 2, 2, seed=3)
        params.re_r[0] = [0.5, 0.0]
        params.re_r[1] = [0.3, 0.1]
        params.im_r[0] = [0.0, 0.2]
        params.im_r[1] = [0.0, -0.2]
        diag = relation_pair_diagnostic(params, (0, 1), "others")
        assert diag.residuals["re_violation"] == pytest.approx(0.2)
        assert diag.residuals["im_max_abs_diff"] == pytest.approx(0.4)

    def test_inverted_premise_conjugates_first(self):
        params = init_params(2, 2, 1, seed=4)
        params.re_r[0] = params.re_r[1] = [0.0]
        params.im_r[0] = [0.3]
        params.im_r[1] = [-0.3]
        diag = relation_pair_diagnostic(params, (0, 1), "others", premise_inverted=True)
        assert diag.residuals["im_max_abs_diff"] == 0.0

    def test_rejects_unknown_kind(self):
        params = init_params(2, 2, 1, seed=0)
        with pytest.raises(ValueError):
            relation_pair_diagnostic(params, (0, 1), "similar")


class TestTypeLabelIO:
    def test_load_and_skip_unknown(self, tmp_path, caplog):
        import logging

        vocab = make_vocab(3, 0)
        path = tmp_path / "types.tsv"
        path.write_text("e0\treptile\ne1\tspecies\ne2\treptile\nghost\tspecies\n")
        with caplog.at_level(logging.WARNING):
            labels = load_type_labels(path, vocab)
        assert labels.n_labeled == 3
        assert labels.n_types == 2
        assert labels.labels[0] == labels.labels[2]
        assert "skipped 1" in caplog.text

    def test_rejects_malformed_line(self, tmp_path):
        vocab = make_vocab(1, 0)
        path = tmp_path / "types.tsv"
        path.write_text("e0\n")
        message = f"{path}:1: expected 2 tab-separated fields, got 1"
        with pytest.raises(ParseError, match=re.escape(message)):
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
        expected = []
        for e in ids:
            x = params.re_e[e].astype(float)
            lo, hi = x.min(), x.max()
            expected.append(np.zeros_like(x) if hi == lo else (x - lo) / (hi - lo))
        np.testing.assert_array_equal(activation_heatmap(params.re_e, ids), np.vstack(expected))

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
