"""Tests for the loss terms and their sparse gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgec.data import Entailment, Triple
from kgec.model import ModelParams, init_params
from kgec.objective import (
    TrainingExample,
    entailment_penalty,
    l2_term,
    logistic_term,
    loss_and_gradient,
    loss_and_gradient_arrays,
    softplus,
)
from kgec.trainer import _with_full_l2

from oracles import central_difference, oracle_scatter_gradients, slack_grid_minimum


def zero_params(n=2, m=1, d=2) -> ModelParams:
    return ModelParams(np.zeros((n, d), complex), np.zeros((m, d), complex))


def example(h, r, t, label=1) -> TrainingExample:
    return TrainingExample(Triple(h, r, t), label)


def random_instance(seed, n=6, m=3, d=4, n_triples=20):
    """Random params/batch/entailments for gradient checking.

    Resamples until no constraint sits near the hinge kink, where the
    subgradient and the finite difference legitimately disagree.
    """
    rng = np.random.default_rng(seed)
    while True:
        params = init_params(n, m, d, seed=int(rng.integers(2**31)))
        params.re_r[:] = rng.normal(scale=0.5, size=(m, d))
        params.im_r[:] = rng.normal(scale=0.5, size=(m, d))
        batch = [
            example(
                int(rng.integers(n)),
                int(rng.integers(m)),
                int(rng.integers(n)),
                int(rng.choice([-1, 1])),
            )
            for _ in range(n_triples)
        ]
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
            return params, batch, ents


class TestLogisticTerm:
    def test_zero_score_positive_label(self):
        params = zero_params()
        assert logistic_term(params, [example(0, 0, 1)]) == pytest.approx(
            np.log(2.0), abs=1e-12
        )

    def test_saturation_no_overflow(self):
        # phi = 50: softplus(-50) ~ e^-50 for y=+1, ~50 for y=-1.
        params = zero_params(d=1)
        params.re_e[:] = [[50.0], [1.0]]
        params.re_r[:] = [[1.0]]
        pos = logistic_term(params, [example(0, 0, 1, 1)])
        neg = logistic_term(params, [example(0, 0, 1, -1)])
        assert pos == pytest.approx(np.exp(-50.0), rel=1e-9)
        assert neg == pytest.approx(50.0, abs=1e-12)
        assert np.isfinite(softplus(np.array([1e9, -1e9]))).all()

    def test_empty_sequence(self):
        assert logistic_term(zero_params(), []) == 0.0


class TestEntailmentPenalty:
    def test_hand_case(self):
        # c=0.9, d=2, d_re=[0.2, -0.1], d_im=[0.1, 0] -> 0.9*0.2 + 0.9*0.01
        params = zero_params(m=2)
        params.re_r[0] = [0.2, -0.1]
        params.im_r[0] = [0.1, 0.0]
        pen = entailment_penalty(params, [Entailment(0, False, 1, 0.9)])
        assert pen == pytest.approx(0.189, abs=1e-12)
        # Cross-check against grid-minimized slack variables.
        grid = slack_grid_minimum(params.re_r[0], params.im_r[0], 0.9, step=1e-3)
        assert abs(pen - grid) <= 4 * 1e-3

    def test_identical_representations(self, rng):
        params = zero_params(m=2, d=3)
        params.re_r[0] = params.re_r[1] = rng.normal(size=3)
        params.im_r[0] = params.im_r[1] = rng.normal(size=3)
        assert entailment_penalty(params, [Entailment(0, False, 1, 1.0)]) == 0.0

    def test_strictly_satisfied_constraint(self):
        params = zero_params(m=2, d=2)
        params.re_r[0] = [-1.0, 0.0]
        params.re_r[1] = [0.0, 0.5]
        params.im_r[0] = params.im_r[1] = [0.3, -0.7]
        assert entailment_penalty(params, [Entailment(0, False, 1, 0.8)]) == 0.0

    def test_inverted_premise_conjugates_imaginary(self):
        params = zero_params(m=2, d=1)
        params.im_r[0] = [0.3]
        params.im_r[1] = [-0.3]
        # Inverted premise: Im(conj(r0)) = -0.3 equals Im(r1) -> no penalty.
        assert entailment_penalty(params, [Entailment(0, True, 1, 1.0)]) == 0.0
        # Forward premise: difference 0.6 -> penalty 0.36.
        assert entailment_penalty(
            params, [Entailment(0, False, 1, 1.0)]
        ) == pytest.approx(0.36, abs=1e-12)

    def test_zero_penalty_implies_score_ordering(self, rng):
        # Constraints at zero penalty, plus boxed entities, order the scores
        # of premise and conclusion triples (strict entailment recovered).
        from kgec.model import ModelParams, score_batch

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
            assert entailment_penalty(params, [Entailment(0, False, 1, 1.0)]) == 0.0
            heads = rng.integers(0, n, size=50)
            tails = rng.integers(0, n, size=50)
            low = score_batch(params, heads, np.zeros(50, int), tails)
            high = score_batch(params, heads, np.ones(50, int), tails)
            assert np.all(low <= high + 1e-12)

    def test_nonnegative_and_zero_iff_satisfied(self, rng):
        for _ in range(50):
            params = zero_params(m=2, d=4)
            params.re_r[:] = rng.normal(size=(2, 4))
            params.im_r[:] = rng.normal(size=(2, 4))
            inverted = bool(rng.integers(2))
            ent = Entailment(0, inverted, 1, float(rng.uniform(0.1, 1.0)))
            pen = entailment_penalty(params, [ent])
            assert pen >= 0.0
            im_p = -params.im_r[0] if inverted else params.im_r[0]
            satisfied = np.all(params.re_r[0] <= params.re_r[1]) and np.array_equal(
                im_p, params.im_r[1]
            )
            assert (pen == 0.0) == satisfied


class TestL2Term:
    def test_zero_params(self):
        assert l2_term(zero_params(), [0, 1], [0]) == 0.0

    def test_single_row(self):
        params = zero_params(n=3, m=1, d=2)
        params.re_e[1] = [0.5, 0.5]
        assert l2_term(params, [1], []) == pytest.approx(0.5, abs=1e-15)

    def test_empty_touched_set(self):
        params = init_params(3, 2, 4, seed=0)
        assert l2_term(params, [], []) == 0.0


class TestLossAndGradient:
    def test_softplus_derivative_scaling_at_zero_score(self):
        # phi = 0 with nonzero factors: gradient = -1/2 * dphi/dparam.
        params = zero_params(n=2, m=1, d=2)
        params.re_e[0] = [1.0, 1.0]
        params.re_e[1] = [1.0, 1.0]
        params.re_r[0] = [1.0, -1.0]
        breakdown, grads = loss_and_gradient(
            params, [example(0, 0, 1, 1)], [], mu=0.0, eta=0.0
        )
        assert breakdown.logistic == pytest.approx(np.log(2.0), abs=1e-12)
        head_row = np.where(grads.ent_ids == 0)[0][0]
        dphi_dre_head = params.re_r[0] * params.re_e[1]
        np.testing.assert_allclose(
            grads.ent.real[head_row], -0.5 * dphi_dre_head, atol=1e-12
        )

    def test_untouched_rows_absent(self):
        params = init_params(5, 3, 4, seed=0)
        _, grads = loss_and_gradient(params, [example(0, 1, 2)], [], 0.0, 0.01)
        assert set(grads.ent_ids.tolist()) == {0, 2}
        assert set(grads.rel_ids.tolist()) == {1}

    def test_entailment_rows_included_even_without_batch_hits(self):
        params = init_params(5, 4, 4, seed=0)
        ents = [Entailment(2, False, 3, 0.9)]
        _, grads = loss_and_gradient(params, [example(0, 0, 1)], ents, 1.0, 0.0)
        assert set(grads.rel_ids.tolist()) == {0, 2, 3}

    def test_total_matches_independent_reassembly(self):
        params, batch, ents = random_instance(seed=4)
        mu, eta = 0.7, 0.01
        breakdown, grads = loss_and_gradient(params, batch, ents, mu, eta)
        logistic = logistic_term(params, batch)
        penalty = entailment_penalty(params, ents)
        l2 = l2_term(params, grads.ent_ids, grads.rel_ids)
        assert breakdown.logistic == pytest.approx(logistic, abs=1e-12)
        assert breakdown.entailment_penalty == pytest.approx(penalty, abs=1e-12)
        assert breakdown.l2 == pytest.approx(l2, abs=1e-12)
        assert breakdown.total == pytest.approx(
            logistic + mu * penalty + eta * l2, abs=1e-12
        )

    def test_matches_central_finite_differences(self):
        params, batch, ents = random_instance(seed=1)
        mu, eta = 0.7, 0.01
        _, grads = loss_and_gradient(params, batch, ents, mu, eta)
        ent_rows = grads.ent_ids
        rel_rows = grads.rel_ids

        def loss():
            return (
                logistic_term(params, batch)
                + mu * entailment_penalty(params, ents)
                + eta * l2_term(params, ent_rows, rel_rows)
            )

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
        _, grads = loss_and_gradient(params, [], [Entailment(0, False, 1, 1.0)], 5.0, 0.0)
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
            closed = entailment_penalty(params, [ent])
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
    """Small batches over few ids (so ids repeat), with 0-5 rules."""
    n, m, d = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    b = draw(st.integers(0, 30))

    def ids(count):
        return np.array(draw(st.lists(st.integers(0, count - 1), min_size=b, max_size=b)), np.int64)

    heads, rels, tails = ids(n), ids(m), ids(n)
    labels = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=b, max_size=b)))
    rule = st.tuples(
        st.integers(0, m - 1), st.booleans(), st.integers(0, m - 1), st.floats(0.05, 1.0)
    ).filter(lambda x: x[1] or x[0] != x[2])
    rules = [Entailment(*x) for x in draw(st.lists(rule, max_size=5))]
    params = init_params(n, m, d, seed=draw(st.integers(0, 2**31 - 1)))
    params.ent[:] *= 1.5  # some entries outside the box
    mu = draw(st.sampled_from([0.0, 0.1, 10.0]))
    eta = draw(st.sampled_from([0.0, 0.03]))
    return params, (heads, rels, tails, labels, rules, mu, eta), draw(st.booleans())


class TestScatterKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_instances())
    def test_matches_scatter_oracle_exactly(self, instance):
        params, args, l2_full = instance
        results = []
        for kernel in (loss_and_gradient_arrays, oracle_scatter_gradients):
            if l2_full:
                eta = args[-1]
                results.append(_with_full_l2(params, *kernel(params, *args[:-1], 0.0), eta))
            else:
                results.append(kernel(params, *args))
        (got_loss, got), (want_loss, want) = results
        assert got_loss == want_loss
        for name in ("ent_ids", "ent", "rel_ids", "rel"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
