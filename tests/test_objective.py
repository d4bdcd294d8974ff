"""Tests for the loss terms and their sparse gradients."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgec.objective
from kgec.data import Entailment
from kgec.model import ModelParams, init_params
from kgec.objective import (
    _segment_sum,
    loss_and_gradient_arrays,
    pack_entailments,
    rule_penalty,
    softplus,
)
from kgec.trainer import _corrupt_batch, _with_full_l2

from conftest import triple_scores
from oracles import (
    central_difference,
    labelled_batch,
    oracle_row_buffer_kernel,
    oracle_scatter_gradients,
    oracle_score,
    slack_grid_minimum,
)


def zero_params(n=2, m=1, d=2) -> ModelParams:
    return ModelParams(np.zeros((n, d), complex), np.zeros((m, d), complex))


def batch_of(*positives, corruptions=()):
    """Kernel arrays (heads, rels, tails, corrupt_head, replacement) from
    (h, r, t) positives and, per positive, a list of k (corrupt_head, entity)
    pairs."""
    rows = np.array(positives, dtype=np.int64).reshape(-1, 3)
    k = len(corruptions[0]) if corruptions else 0
    pairs = np.array(corruptions, dtype=np.int64).reshape(rows.shape[0], k, 2)
    return rows[:, 0], rows[:, 1], rows[:, 2], pairs[..., 0].astype(bool), pairs[..., 1]


NO_RULES = pack_entailments([])


def data_terms(params, *positives, corruptions=(), eta=0.0):
    """The kernel on (h, r, t) positives and their corruptions, without rules."""
    return loss_and_gradient_arrays(
        params, *batch_of(*positives, corruptions=corruptions), NO_RULES, 0.0, eta
    )


def random_instance(seed, n=6, m=3, d=4, n_triples=20, k=2):
    """Random params, ``n_triples`` positives with ``k`` negatives each from
    the trainer's sampler, and packed rules, for gradient checking.

    Resamples until no constraint sits near the hinge kink, where the
    subgradient and the finite difference legitimately disagree.
    """
    rng = np.random.default_rng(seed)
    while True:
        params = init_params(n, m, d, seed=int(rng.integers(2**31)))
        params.re_r[:] = rng.normal(scale=0.5, size=(m, d))
        params.im_r[:] = rng.normal(scale=0.5, size=(m, d))
        heads, rels, tails = (rng.integers(count, size=n_triples) for count in (n, m, n))
        batch = (heads, rels, tails, *_corrupt_batch(heads, tails, k, n, rng))
        ents = [
            Entailment(0, False, 1, float(rng.uniform(0.5, 1.0))),
            Entailment(2, True, 0, float(rng.uniform(0.5, 1.0))),
            Entailment(1, False, 2, float(rng.uniform(0.5, 1.0))),
        ]
        near_kink = False
        for ent in ents:
            d_re = params.re_r[ent.premise_rel] - params.re_r[ent.conclusion_rel]
            if np.any(np.abs(d_re) < 1e-4):
                near_kink = True
        if not near_kink:
            return params, batch, pack_entailments(ents)


class TestLogisticTerm:
    def test_zero_score_positive_label(self):
        params = zero_params()
        assert data_terms(params, (0, 0, 1))[0].logistic == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturation_no_overflow(self):
        # phi(0, 0, 1) = 50: softplus(-50) ~ e^-50 as a positive, ~50 as a
        # negative (here of the positive (0, 0, 2), which scores 0).
        params = zero_params(n=3, d=1)
        params.re_e[:] = [[50.0], [1.0], [0.0]]
        params.re_r[:] = [[1.0]]
        pos = data_terms(params, (0, 0, 1))[0].logistic
        neg = data_terms(params, (0, 0, 2), corruptions=[[(False, 1)]])[0].logistic
        assert pos == pytest.approx(np.exp(-50.0), rel=1e-9)
        assert neg == pytest.approx(50.0 + np.log(2.0), abs=1e-12)
        assert np.isfinite(softplus(np.array([1e9, -1e9]))).all()

    def test_empty_sequence(self):
        assert data_terms(zero_params())[0].logistic == 0.0


class TestEntailmentPenalty:
    def test_hand_case(self):
        # c=0.9, d=2, d_re=[0.2, -0.1], d_im=[0.1, 0] -> 0.9*0.2 + 0.9*0.01
        params = zero_params(m=2)
        params.re_r[0] = [0.2, -0.1]
        params.im_r[0] = [0.1, 0.0]
        pen = rule_penalty(params.rel, pack_entailments([Entailment(0, False, 1, 0.9)]))[0]
        assert pen == pytest.approx(0.189, abs=1e-12)
        # Cross-check against grid-minimized slack variables.
        grid = slack_grid_minimum(params.re_r[0], params.im_r[0], 0.9, step=1e-3)
        assert abs(pen - grid) <= 4 * 1e-3

    def test_identical_representations(self, rng):
        params = zero_params(m=2, d=3)
        params.re_r[0] = params.re_r[1] = rng.normal(size=3)
        params.im_r[0] = params.im_r[1] = rng.normal(size=3)
        rules = pack_entailments([Entailment(0, False, 1, 1.0)])
        assert rule_penalty(params.rel, rules)[0] == 0.0

    def test_strictly_satisfied_constraint(self):
        params = zero_params(m=2, d=2)
        params.re_r[0] = [-1.0, 0.0]
        params.re_r[1] = [0.0, 0.5]
        params.im_r[0] = params.im_r[1] = [0.3, -0.7]
        rules = pack_entailments([Entailment(0, False, 1, 0.8)])
        assert rule_penalty(params.rel, rules)[0] == 0.0

    def test_inverted_premise_conjugates_imaginary(self):
        params = zero_params(m=2, d=1)
        params.im_r[0] = [0.3]
        params.im_r[1] = [-0.3]
        # Inverted premise: Im(conj(r0)) = -0.3 equals Im(r1) -> no penalty.
        inverted = pack_entailments([Entailment(0, True, 1, 1.0)])
        assert rule_penalty(params.rel, inverted)[0] == 0.0
        # Forward premise: difference 0.6 -> penalty 0.36.
        forward = pack_entailments([Entailment(0, False, 1, 1.0)])
        assert rule_penalty(params.rel, forward)[0] == pytest.approx(0.36, abs=1e-12)

    def test_zero_penalty_implies_score_ordering(self, rng):
        # Constraints at zero penalty, plus boxed entities, order the scores
        # of premise and conclusion triples (strict entailment recovered).
        n, d = 20, 4
        for _ in range(20):
            re_e = rng.uniform(0, 1, (n, d))
            im_e = rng.uniform(0, 1, (n, d))
            re_q = rng.normal(size=d)
            re_p = re_q - rng.uniform(0, 1, size=d)
            im = rng.normal(size=d)
            params = ModelParams(
                re_e + 1j * im_e, np.vstack([re_p, re_q]) + 1j * np.vstack([im, im])
            )
            rules = pack_entailments([Entailment(0, False, 1, 1.0)])
            assert rule_penalty(params.rel, rules)[0] == 0.0
            heads = rng.integers(0, n, size=50)
            tails = rng.integers(0, n, size=50)
            low = triple_scores(params, heads, np.zeros(50, int), tails)
            high = triple_scores(params, heads, np.ones(50, int), tails)
            assert np.all(low <= high + 1e-12)

    def test_nonnegative_and_zero_iff_satisfied(self, rng):
        for _ in range(50):
            params = zero_params(m=2, d=4)
            params.re_r[:] = rng.normal(size=(2, 4))
            params.im_r[:] = rng.normal(size=(2, 4))
            inverted = bool(rng.integers(2))
            ent = Entailment(0, inverted, 1, float(rng.uniform(0.1, 1.0)))
            pen = rule_penalty(params.rel, pack_entailments([ent]))[0]
            assert pen >= 0.0
            im_p = -params.im_r[0] if inverted else params.im_r[0]
            satisfied = np.all(params.re_r[0] <= params.re_r[1]) and np.array_equal(
                im_p, params.im_r[1]
            )
            assert (pen == 0.0) == satisfied


class TestL2Term:
    def test_zero_params(self):
        assert data_terms(zero_params(), (0, 0, 1))[0].l2 == 0.0

    def test_single_row(self):
        params = zero_params(n=3, m=1, d=2)
        params.re_e[1] = [0.5, 0.5]
        # Touches entity 1 and the all-zero relation 0.
        assert data_terms(params, (1, 0, 1))[0].l2 == pytest.approx(0.5, abs=1e-15)

    def test_empty_touched_set(self):
        params = init_params(3, 2, 4, seed=0)
        assert data_terms(params)[0].l2 == 0.0


class TestLossAndGradient:
    def test_softplus_derivative_scaling_at_zero_score(self):
        # phi = 0 with nonzero factors: gradient = -1/2 * dphi/dparam.
        params = zero_params(n=2, m=1, d=2)
        params.re_e[0] = [1.0, 1.0]
        params.re_e[1] = [1.0, 1.0]
        params.re_r[0] = [1.0, -1.0]
        breakdown, grads = data_terms(params, (0, 0, 1))
        assert breakdown.logistic == pytest.approx(np.log(2.0), abs=1e-12)
        head_row = np.where(grads.ent_ids == 0)[0][0]
        dphi_dre_head = params.re_r[0] * params.re_e[1]
        np.testing.assert_allclose(
            grads.ent.real[head_row], -0.5 * dphi_dre_head, atol=1e-12
        )

    def test_untouched_rows_absent(self):
        params = init_params(5, 3, 4, seed=0)
        _, grads = data_terms(params, (0, 1, 2), eta=0.01)
        assert set(grads.ent_ids.tolist()) == {0, 2}
        assert set(grads.rel_ids.tolist()) == {1}

    @pytest.mark.parametrize("bad", [5, 9])
    def test_out_of_range_replacement(self, bad):
        params = init_params(5, 1, 2, seed=0)
        with pytest.raises(IndexError, match="entity id"):
            data_terms(params, (0, 0, 1), corruptions=[[(False, 2), (True, bad)]])

    def test_entailment_rows_included_even_without_batch_hits(self):
        params = init_params(5, 4, 4, seed=0)
        rules = pack_entailments([Entailment(2, False, 3, 0.9)])
        _, grads = loss_and_gradient_arrays(params, *batch_of((0, 0, 1)), rules, 1.0, 0.0)
        assert set(grads.rel_ids.tolist()) == {0, 2, 3}

    def test_total_matches_independent_reassembly(self):
        params, batch, rules = random_instance(seed=4)
        mu, eta = 0.7, 0.01
        breakdown, grads = loss_and_gradient_arrays(params, *batch, rules, mu, eta)
        heads, rels, tails, labels = labelled_batch(*batch)
        scores = [oracle_score(params, h, r, t) for h, r, t in zip(heads, rels, tails)]
        logistic = float(np.logaddexp(0.0, -labels * scores).sum())
        pen = rule_penalty(params.rel, rules)[0]
        l2 = np.sum(np.abs(params.ent[grads.ent_ids]) ** 2) + np.sum(
            np.abs(params.rel[grads.rel_ids]) ** 2
        )
        assert breakdown.logistic == pytest.approx(logistic, abs=1e-12)
        assert breakdown.entailment_penalty == pytest.approx(pen, abs=1e-12)
        assert breakdown.l2 == pytest.approx(l2, abs=1e-12)
        assert breakdown.total == pytest.approx(
            logistic + mu * pen + eta * l2, abs=1e-12
        )

    def test_matches_central_finite_differences(self):
        params, batch, rules = random_instance(seed=1)
        mu, eta = 0.7, 0.01
        _, grads = loss_and_gradient_arrays(params, *batch, rules, mu, eta)

        def loss():
            return loss_and_gradient_arrays(params, *batch, rules, mu, eta)[0].total

        worst = 0.0
        blocks = (
            (params.re_e, grads.ent_ids, grads.ent.real),
            (params.im_e, grads.ent_ids, grads.ent.imag),
            (params.re_r, grads.rel_ids, grads.rel.real),
            (params.im_r, grads.rel_ids, grads.rel.imag),
        )
        for matrix, ids, grad in blocks:
            for pos, row in enumerate(ids):
                for col in range(params.d):
                    fd = central_difference(loss, matrix, row, col, h=1e-6)
                    analytic = grad[pos, col]
                    err = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
                    worst = max(worst, err)
        assert worst < 1e-5

    def test_hinge_subgradient_zero_at_kink(self):
        params = zero_params(m=2, d=2)
        params.re_r[0] = params.re_r[1] = [0.4, -0.2]
        params.im_r[0] = params.im_r[1] = [0.1, 0.1]
        rules = pack_entailments([Entailment(0, False, 1, 1.0)])
        _, grads = loss_and_gradient_arrays(params, *batch_of(), rules, 5.0, 0.0)
        np.testing.assert_array_equal(grads.rel.real, 0.0)
        np.testing.assert_array_equal(grads.rel.imag, 0.0)

    def test_slack_grid_equivalence_randomized(self, rng):
        # Closed-form penalty == grid-minimized slack objective, 20 draws.
        for i in range(20):
            params = zero_params(m=2, d=4)
            params.re_r[:] = rng.normal(size=(2, 4))
            params.im_r[:] = rng.normal(size=(2, 4))
            inverted = bool(rng.integers(2))
            conf = float(rng.uniform(0.1, 1.0))
            ent = Entailment(0, inverted, 1, conf)
            closed = rule_penalty(params.rel, pack_entailments([ent]))[0]
            im_p = -params.im_r[0] if inverted else params.im_r[0]
            grid = slack_grid_minimum(
                params.re_r[0] - params.re_r[1],
                im_p - params.im_r[1],
                conf,
                step=1e-3,
            )
            assert closed <= grid + 1e-12
            assert abs(closed - grid) <= 8 * 1e-3


@st.composite
def kernel_instances(draw):
    """Small batches over few ids (so ids repeat, and a replacement may equal
    the original or the other slot), k in 0-3, with 0-5 rules."""
    n, m, d = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    b, k = draw(st.integers(0, 12)), draw(st.integers(0, 3))

    def ids(count, shape):
        size = int(np.prod(shape))
        values = draw(st.lists(st.integers(0, count - 1), min_size=size, max_size=size))
        return np.array(values, np.int64).reshape(shape)

    heads, rels, tails = ids(n, b), ids(m, b), ids(n, b)
    corrupt_head = ids(2, (b, k)).astype(bool)
    replacement = ids(n, (b, k))
    rule = st.tuples(
        st.integers(0, m - 1), st.booleans(), st.integers(0, m - 1), st.floats(0.05, 1.0)
    ).filter(lambda x: x[1] or x[0] != x[2])
    rules = [Entailment(*x) for x in draw(st.lists(rule, max_size=5))]
    params = init_params(n, m, d, seed=draw(st.integers(0, 2**31 - 1)))
    params.ent[:] *= 1.5  # some entries outside the box
    mu = draw(st.sampled_from([0.0, 0.1, 10.0]))
    eta = draw(st.sampled_from([0.0, 0.03]))
    batch = (heads, rels, tails, corrupt_head, replacement)
    return params, batch, pack_entailments(rules), mu, eta, draw(st.booleans())


def assert_close(got, want, name):
    """Entrywise |got - want| <= 1e-12 * max |want|: the kernel reassociates
    the oracle's sums, so only rounding may differ."""
    scale = np.max(np.abs(want), initial=0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * scale), name


class TestScatterKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_instances())
    def test_matches_scatter_oracle(self, instance):
        params, batch, rules, mu, eta, l2_full = instance
        results = []
        for kernel, args in (
            (loss_and_gradient_arrays, batch),
            (oracle_scatter_gradients, labelled_batch(*batch)),
        ):
            if l2_full:
                terms = kernel(params, *args, rules, mu, 0.0)
                results.append(_with_full_l2(params, *terms, eta))
            else:
                results.append(kernel(params, *args, rules, mu, eta))
        (got_loss, got), (want_loss, want) = results
        assert got_loss.entailment_penalty == want_loss.entailment_penalty
        assert got_loss.l2 == want_loss.l2
        for name in ("logistic", "total"):
            assert_close(getattr(got_loss, name), getattr(want_loss, name), name)
        np.testing.assert_array_equal(got.ent_ids, want.ent_ids)
        np.testing.assert_array_equal(got.rel_ids, want.rel_ids)
        assert_close(got.ent, want.ent, "ent")
        assert_close(got.rel, want.rel, "rel")

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 40).flatmap(
            lambda rows: st.tuples(
                st.lists(st.integers(0, 7), min_size=rows, max_size=rows),
                st.integers(1, 3),
                st.integers(0, 2**31 - 1),
            )
        )
    )
    def test_matches_scatter_oracle_exactly(self, case):
        # The segment sum that scatters both gradient tables, against
        # np.add.at on zeros at the sorted unique ids.
        ids, d, seed = case
        ids = np.array(ids, dtype=np.int64)
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(ids.size, d)) + 1j * rng.normal(size=(ids.size, d))
        want = np.zeros((ids.max() + 1 if ids.size else 0, d), complex)
        np.add.at(want, ids, rows)
        got_ids, got = _segment_sum(ids, rows)
        np.testing.assert_array_equal(got_ids, np.unique(ids))
        np.testing.assert_array_equal(got, want[np.unique(ids)])

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 40).flatmap(
            lambda rows: st.tuples(
                st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9)), min_size=rows, max_size=rows),
                st.integers(1, 3),
                st.integers(0, 2**31 - 1),
            )
        )
    )
    def test_weighted_segment_sum_matches_add_at_exactly(self, case):
        # Entry e adds weights[e] * rows[cols[e]] at ids[e]; columns repeat
        # and some rows are read by no entry.
        entries, d, seed = case
        ids, cols = np.array(entries, dtype=np.int64).reshape(-1, 2).T
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(10, d)) + 1j * rng.normal(size=(10, d))
        weights = rng.uniform(-1.0, 1.0, size=ids.size)
        want = np.zeros((8, d), complex)
        np.add.at(want, ids, weights[:, None] * rows[cols])
        got_ids, got = _segment_sum(ids, rows, cols, weights)
        np.testing.assert_array_equal(got_ids, np.unique(ids))
        np.testing.assert_array_equal(got, want[np.unique(ids)])


class TestBlockedKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_instances(), st.sampled_from([1, 16, 100, 400, 2**21]))
    def test_matches_row_buffer_oracle_exactly(self, instance, block_bytes):
        # Small block sizes split the scoring and the L2 term into many
        # blocks. Only l2's sum is regrouped, and only across blocks.
        params, batch, rules, mu, eta, _ = instance
        want_loss, want = oracle_row_buffer_kernel(params, *batch, rules, mu, eta)
        with mock.patch.object(kgec.objective, "_BLOCK_BYTES", block_bytes):
            got_loss, got = loss_and_gradient_arrays(params, *batch, rules, mu, eta)
        for name in ("ent_ids", "rel_ids", "ent", "rel"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), name)
        assert got_loss.logistic == want_loss.logistic
        assert got_loss.entailment_penalty == want_loss.entailment_penalty
        rows_per_block = max(1, block_bytes // params.ent[:1].nbytes)
        if max(want.ent_ids.size, want.rel_ids.size) <= rows_per_block:
            assert got_loss.l2 == want_loss.l2
        else:
            assert abs(got_loss.l2 - want_loss.l2) <= 1e-12 * want_loss.l2

    def test_peak_memory_has_no_row_per_negative(self):
        # The row-buffer kernel holds a (2B + B·k, d) complex buffer; the
        # blocked kernel must peak at least half of it lower. Its blocks cost
        # a fixed buffer of about _BLOCK_BYTES, so B is large enough that
        # half the row buffer (3 MB) exceeds it.
        n, b, k, d = 20_000, 1_000, 10, 32
        rng = np.random.default_rng(0)
        params = init_params(n, 4, d, seed=0)
        heads, rels, tails = rng.integers(n, size=b), rng.integers(4, size=b), rng.integers(n, size=b)
        batch = (heads, rels, tails, *_corrupt_batch(heads, tails, k, n, rng))
        peaks = []
        for kernel in (loss_and_gradient_arrays, oracle_row_buffer_kernel):
            kernel(params, *batch, NO_RULES, 0.0, 0.01)  # warm-up: lazy imports and caches
            tracemalloc.start()
            try:
                kernel(params, *batch, NO_RULES, 0.0, 0.01)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        row_buffer = (2 * b + b * k) * d * params.ent.itemsize
        assert peaks[0] <= peaks[1] - row_buffer / 2, (peaks, row_buffer)

    def test_peak_memory_grows_by_no_batch_sized_temporary(self, monkeypatch):
        # Beyond q, the (5B, d) matrix of rows the segment sum reads, and the
        # returned gradient, the kernel holds arrays of one block of
        # positives, or of one id per row. Doubling B from 5,000 to 10,000
        # must then add less than half of one (5,000, d) complex array.
        # Each part holds its own blocks, so the part count is fixed.
        monkeypatch.setattr(kgec.objective, "_WORKERS", 2)
        n, k, d = 50_000, 1, 128
        rng = np.random.default_rng(0)
        params = init_params(n, 4, d, seed=0)
        extra = []
        for b in (5_000, 10_000):
            heads, rels, tails = rng.integers(n, size=b), rng.integers(4, size=b), rng.integers(n, size=b)
            batch = (heads, rels, tails, *_corrupt_batch(heads, tails, k, n, rng))
            loss_and_gradient_arrays(params, *batch, NO_RULES, 0.0, 0.01)  # warm-up
            tracemalloc.start()
            try:
                _, grads = loss_and_gradient_arrays(params, *batch, NO_RULES, 0.0, 0.01)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            q = 5 * b * d * params.ent.itemsize
            extra.append(peak - q - grads.ent.nbytes - grads.rel.nbytes)
        half_row_block = 5_000 * d * params.ent.itemsize / 2
        assert extra[1] - extra[0] < half_row_block, (extra, half_row_block)


class TestOneSegmentSum:
    def test_one_segment_sum_per_call(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _segment_sum(*args)

        monkeypatch.setattr(kgec.objective, "_segment_sum", counting)
        params, batch, rules = random_instance(seed=2)
        loss_and_gradient_arrays(params, *batch, rules, 0.7, 0.01)
        assert len(calls) == 1

    def test_no_rule_work_without_rules(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("rule_penalty called without rules")

        monkeypatch.setattr(kgec.objective, "rule_penalty", refuse)
        params, batch, _ = random_instance(seed=2)
        breakdown, grads = loss_and_gradient_arrays(params, *batch, NO_RULES, 0.7, 0.01)
        assert breakdown.entailment_penalty == 0.0
        assert set(grads.rel_ids.tolist()) == set(batch[1].tolist())

    @pytest.mark.parametrize("seed", range(5))
    def test_relation_ids_above_n_match_row_buffer_oracle_exactly(self, seed):
        # Three entities and eight relations, so relation ids 0-2 are also
        # entity ids and ids 3-7 lie past n. Both tables must still come out
        # as the oracle's.
        n, m, d, b, k = 3, 8, 3, 12, 2
        rng = np.random.default_rng(seed)
        params = init_params(n, m, d, seed=seed)
        heads, rels, tails = rng.integers(n, size=b), rng.integers(m, size=b), rng.integers(n, size=b)
        batch = (heads, rels, tails, *_corrupt_batch(heads, tails, k, n, rng))
        rules = pack_entailments([Entailment(7, False, 3, 0.9), Entailment(5, True, 0, 0.6)])
        want_loss, want = oracle_row_buffer_kernel(params, *batch, rules, 1.0, 0.01)
        got_loss, got = loss_and_gradient_arrays(params, *batch, rules, 1.0, 0.01)
        assert got.rel_ids.max() >= n
        for name in ("ent_ids", "rel_ids", "ent", "rel"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), name)
        assert got_loss == want_loss

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_relation_id_fails(self, bad):
        # Offset by n, relation -1 would land on entity n - 1's row.
        params = init_params(5, 3, 2, seed=0)
        with pytest.raises(IndexError, match=f"relation id {bad} out of range"):
            data_terms(params, (0, bad, 1))
