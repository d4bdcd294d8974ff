"""Tests for batching, negative sampling, AdaGrad, and the training loop."""

import logging
import os
import re
import time

import numpy as np
import pytest

import kgec.trainer
from kgec.data import Dataset, Entailment, Triple, triple_array
from kgec.model import init_params
from kgec.objective import pack_entailments, rule_penalty
from kgec.trainer import (
    AdaGradState,
    EpochStats,
    TrainConfig,
    _corrupt_batch,
    adagrad_step,
    make_batches,
    parse_config,
    train,
    write_config,
    write_training_log,
)
from kgec.evaluation import evaluate
from kgec.data import build_known_index

from conftest import make_vocab, sparse_grads, triple_scores
from oracles import labelled_batch, oracle_adagrad_step, oracle_corrupt_batch, sample_negatives


def tiny_kg(n_entities=8, n_relations=2, n_triples=20, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    triples = set()
    while len(triples) < n_triples:
        h, t = rng.integers(0, n_entities, size=2)
        r = rng.integers(0, n_relations)
        if h != t:
            triples.add(Triple(int(h), int(r), int(t)))
    return Dataset(sorted(triples), [], [], make_vocab(n_entities, n_relations))


class TestSampleNegatives:
    def test_structural_contract(self, rng):
        positive = Triple(0, 0, 1)
        negatives = sample_negatives(positive, k=2, n=10, rng=rng)
        assert len(negatives) == 2
        for h, r, t in negatives:
            assert r == 0
            changed_head = h != positive.head
            changed_tail = t != positive.tail
            assert changed_head != changed_tail  # exactly one side replaced

    def test_two_entities_forces_the_other_id(self, rng):
        for negative in sample_negatives(Triple(0, 0, 1), k=50, n=2, rng=rng):
            assert negative in (Triple(1, 0, 1), Triple(0, 0, 0))

    def test_replacement_never_equals_original(self, rng):
        positive = Triple(3, 1, 7)
        for negative in sample_negatives(positive, k=500, n=8, rng=rng):
            assert negative != positive

    def test_deterministic_given_seed(self):
        a = sample_negatives(Triple(0, 0, 1), 20, 10, np.random.default_rng(5))
        b = sample_negatives(Triple(0, 0, 1), 20, 10, np.random.default_rng(5))
        assert a == b

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_form_rebuilds_the_materialised_negatives(self, seed):
        # Same draws as the materialised form: same negatives, and the
        # generator left in the same state for the next batch.
        n, k = (2, 5, 40, 200)[seed], (1, 3, 10, 2)[seed]
        batch = np.random.default_rng(100 + seed).integers(0, n, size=(57, 3))
        heads, rels, tails = batch.T
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        corruptions = _corrupt_batch(heads, tails, k, n, rng)
        assert all(a.shape == (57, k) for a in corruptions)
        want = oracle_corrupt_batch(heads, rels, tails, k, n, oracle_rng)
        got = [a[57:] for a in labelled_batch(heads, rels, tails, *corruptions)[:3]]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert rng.integers(2**62) == oracle_rng.integers(2**62)

    def test_rejects_degenerate_sizes(self, rng):
        with pytest.raises(ValueError):
            sample_negatives(Triple(0, 0, 1), k=1, n=1, rng=rng)
        with pytest.raises(ValueError):
            sample_negatives(Triple(0, 0, 1), k=0, n=5, rng=rng)


class TestMakeBatches:
    def test_balanced_partition(self, rng):
        triples = [Triple(i, 0, (i + 1) % 10) for i in range(10)]
        batches = make_batches(triples, 3, rng)
        assert sorted(len(b) for b in batches) == [3, 3, 4]
        recovered = sorted(tuple(row) for batch in batches for row in batch)
        assert recovered == sorted(tuple(t) for t in triples)

    def test_wn18_sized_partition(self, rng):
        arr = np.zeros((141_442, 3), dtype=np.int64)
        sizes = [len(b) for b in make_batches(arr, 100, rng)]
        assert len(sizes) == 100
        assert set(sizes) == {1414, 1415}
        assert sum(sizes) == 141_442

    def test_zero_batches_rejected(self, rng):
        with pytest.raises(ValueError, match="^n_batches must be at least 1$"):
            make_batches([Triple(0, 0, 1)], 0, rng)

    def test_more_batches_than_triples_leaves_the_surplus_empty(self, rng):
        batches = make_batches([Triple(0, 0, 1)], 4, rng)
        assert len(batches) == 4
        assert sum(len(b) for b in batches) == 1


class TestAdagradStep:
    def grads_for(self, params, ent_ids, value):
        d = params.d
        ids = np.asarray(ent_ids)
        g = np.full((ids.size, d), value)
        return sparse_grads(ids, g + 1j * g, np.empty(0, np.int64), np.empty((0, d), complex))

    def test_first_step_size(self):
        params = init_params(2, 1, 1, seed=0)
        params.re_e[0, 0] = 0.5
        state = AdaGradState.zeros_like(params)
        grads = self.grads_for(params, [0], 0.5)
        before = params.re_e[0, 0]
        adagrad_step(params, grads, state, lr=0.1)
        step = before - params.re_e[0, 0]
        assert step == pytest.approx(0.1 * 0.5 / (0.5 + 1e-8), abs=1e-12)
        assert state.acc_ent[0, 0] == pytest.approx(0.25)

    def test_zero_gradient_is_inert(self):
        params = init_params(2, 1, 3, seed=0)
        state = AdaGradState.zeros_like(params)
        before = params.copy()
        grads = self.grads_for(params, [1], 0.0)
        adagrad_step(params, grads, state, lr=0.5)
        np.testing.assert_array_equal(params.re_e, before.re_e)
        np.testing.assert_array_equal(state.acc_ent, 0.0)

    def test_second_identical_step_is_smaller(self):
        params = init_params(1, 1, 1, seed=0)
        state = AdaGradState.zeros_like(params)
        grads = self.grads_for(params, [0], 0.3)
        p0 = params.re_e[0, 0]
        adagrad_step(params, grads, state, lr=0.1)
        p1 = params.re_e[0, 0]
        grads = self.grads_for(params, [0], 0.3)
        adagrad_step(params, grads, state, lr=0.1)
        p2 = params.re_e[0, 0]
        assert abs(p2 - p1) < abs(p1 - p0)

    def test_accumulators_nondecreasing(self, rng):
        params = init_params(4, 2, 3, seed=1)
        state = AdaGradState.zeros_like(params)
        previous = state.acc_ent.copy()
        for _ in range(5):
            grads = self.grads_for(params, [0, 2], float(rng.normal()))
            adagrad_step(params, grads, state, lr=0.05)
            assert np.all(state.acc_ent >= previous)
            previous = state.acc_ent.copy()

    @pytest.mark.parametrize("chunk_rows", [None, 1, 5])
    @pytest.mark.parametrize("project", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_unchunked_form_exactly(self, seed, project, chunk_rows, monkeypatch):
        if chunk_rows is not None:  # a chunk of rows of 2 * 6 float64 entries
            monkeypatch.setattr(kgec.trainer, "_ADAGRAD_CHUNK_BYTES", chunk_rows * 12 * 8)
        rng = np.random.default_rng(seed)
        params = init_params(30, 5, 6, seed=seed)
        params.ent[:] *= 1.5  # some entries outside the box
        state = AdaGradState.zeros_like(params)
        state.acc_ent[:] = rng.uniform(0.0, 0.1, size=state.acc_ent.shape)
        want = params.copy()
        want_state = AdaGradState(state.acc_ent.copy(), state.acc_rel.copy())
        for _ in range(3):
            ent_ids = np.unique(rng.integers(0, 30, size=12))
            rel_ids = np.unique(rng.integers(0, 5, size=int(rng.integers(0, 4))))
            normal = lambda rows: rng.normal(size=(rows, 6)) + 1j * rng.normal(size=(rows, 6))
            grads = sparse_grads(ent_ids, normal(ent_ids.size), rel_ids, normal(rel_ids.size))
            adagrad_step(params, grads, state, lr=0.3, project=project)
            oracle_adagrad_step(want, grads, want_state, lr=0.3, project=project)
        np.testing.assert_array_equal(params.ent, want.ent)
        np.testing.assert_array_equal(params.rel, want.rel)
        np.testing.assert_array_equal(state.acc_ent, want_state.acc_ent)
        np.testing.assert_array_equal(state.acc_rel, want_state.acc_rel)

    @pytest.mark.parametrize("seed", range(5))
    def test_fused_clamp_equals_projection_after_the_step(self, seed):
        rng = np.random.default_rng(seed)
        fused = init_params(6, 3, 4, seed=seed)
        state = AdaGradState.zeros_like(fused)
        state.acc_ent[:] = rng.uniform(0.0, 0.1, size=state.acc_ent.shape)
        separate = fused.copy()
        separate_state = AdaGradState(state.acc_ent.copy(), state.acc_rel.copy())
        ent_ids, rel_ids = np.array([0, 2, 3, 5]), np.array([1, 2])
        normal = lambda rows: rng.normal(size=(rows, 4)) + 1j * rng.normal(size=(rows, 4))
        grads = sparse_grads(ent_ids, normal(4), rel_ids, normal(2))
        adagrad_step(fused, grads, state, lr=0.5, project=True)
        adagrad_step(separate, grads, separate_state, lr=0.5)
        for part in (separate.ent.real, separate.ent.imag):
            part[ent_ids] = np.clip(part[ent_ids], 0.0, 1.0)
        assert (fused.re_e == 0.0).any() and (fused.re_e == 1.0).any()
        np.testing.assert_array_equal(fused.ent, separate.ent)
        np.testing.assert_array_equal(fused.rel, separate.rel)
        np.testing.assert_array_equal(state.acc_ent, separate_state.acc_ent)
        np.testing.assert_array_equal(state.acc_rel, separate_state.acc_rel)


class TestGradNormCap:
    def test_clip_rescales_proportionally(self):
        ids = np.array([0, 1])
        block = np.full((2, 2), 3.0)
        grads = sparse_grads(ids, block + 1j * block, np.array([0]), np.full((1, 2), 3.0 + 3.0j))
        norm = grads.clip_global_norm_(1.0)
        assert norm == pytest.approx(np.sqrt(12 * 9.0))
        assert grads.clip_global_norm_(1.0) == pytest.approx(1.0, rel=1e-12)
        # Direction preserved: all entries still equal.
        assert np.allclose(grads.ent.real, grads.ent.real[0, 0])

    def test_small_gradients_untouched(self):
        ids = np.array([0])
        grads = sparse_grads(
            ids, np.full((1, 2), 0.1 + 0.1j), np.empty(0, np.int64), np.empty((0, 2), complex)
        )
        before = grads.ent.real.copy()
        grads.clip_global_norm_(1.0)
        np.testing.assert_array_equal(grads.ent.real, before)


class TestConfig:
    def test_round_trip(self, tmp_path):
        config = TrainConfig(d=32, eta=0.003, neg_ratio=2, lr=0.1, mu=1e-3, seed=9, project=False)
        path = tmp_path / "run.cfg"
        write_config(config, path)
        assert parse_config(path) == config

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("learning_rate = 0.1\n")
        with pytest.raises(ValueError, match="learning_rate"):
            parse_config(path)

    def test_rejects_an_unknown_key_naming_the_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d = 16\n\nlearning_rate = 0.1\n")
        with pytest.raises(ValueError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}:3: unknown config key 'learning_rate'"

    def test_rejects_bad_boolean(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("project = maybe\n")
        with pytest.raises(ValueError, match="maybe"):
            parse_config(path)

    @pytest.mark.parametrize("word", ["false", "False", "0", "no", "true", "1", "maybe", ""])
    def test_rejects_an_l2_full_line_as_an_unknown_key(self, tmp_path, word):
        # Configs written before full-parameter L2 was removed hold it.
        path = tmp_path / "run.cfg"
        path.write_text(f"d = 16\nl2_full = {word}\n")
        with pytest.raises(ValueError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}:2: unknown config key 'l2_full'"

    def test_rejects_a_repeated_key_naming_its_second_line(self, tmp_path):
        # Taking the last value would train at mu = 0.1 while the file also says 10.
        path = tmp_path / "run.cfg"
        path.write_text("mu = 10\nd = 16\nmu = 0.1\n")
        with pytest.raises(ValueError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}:3: repeated config key 'mu'"

    def test_rejects_a_line_without_equals_naming_the_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d = 16\nlr 0.2\n")
        with pytest.raises(ValueError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}:2: expected 'key = value'"

    @pytest.mark.parametrize("field, message", [
        ("n_batches", "n_batches and max_iters must be at least 1"),
        ("max_iters", "n_batches and max_iters must be at least 1"),
        ("eval_every", "eval_every must be at least 1"),
    ])
    def test_rejects_a_zero_count(self, field, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**{field: 0})

    def test_a_byte_order_mark_at_the_start_is_dropped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfd = 16\nseed = 3\n")
        assert parse_config(path) == TrainConfig(d=16, seed=3)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nd = 16\nlr = 0.2\n")
        config = parse_config(path)
        assert config.d == 16 and config.lr == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(neg_ratio=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(mu=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(grad_norm_cap=0.0)
        for field in ("lr", "eta", "mu", "grad_norm_cap"):
            with pytest.raises(ValueError, match=field):
                TrainConfig(**{field: float("nan")})
        for field in ("lr", "eta", "mu"):
            with pytest.raises(ValueError, match=field):
                TrainConfig(**{field: float("inf")})
        assert TrainConfig(grad_norm_cap=float("inf")).grad_norm_cap == float("inf")
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            TrainConfig(seed=-1)


def fast_config(**overrides) -> TrainConfig:
    base = dict(
        d=8, eta=0.01, neg_ratio=4, lr=0.5, mu=0.0, n_batches=4,
        max_iters=200, grad_norm_cap=1.0, seed=0, eval_every=50,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrain:
    def test_memorizes_tiny_kg(self):
        dataset = tiny_kg()
        params, log = train(dataset, [], fast_config())
        assert len(log) == 200
        train_set = set(dataset.train)
        rng = np.random.default_rng(99)
        separated = 0
        for positive in dataset.train:
            pos_score = triple_scores(params, [positive.head], [positive.rel], [positive.tail])[0]
            negatives = [
                negative
                for negative in sample_negatives(positive, 10, dataset.n_entities, rng)
                if negative not in train_set
            ]
            neg_scores = triple_scores(params, *np.array(negatives).reshape(-1, 3).T)
            if pos_score > neg_scores.max():
                separated += 1
        assert separated >= 0.9 * len(dataset.train)

    def test_projection_holds_after_every_step(self):
        dataset = tiny_kg()
        violations = []

        def check(params, epoch, batch_index):
            if params.re_e.min() < 0 or params.re_e.max() > 1:
                violations.append((epoch, batch_index, "re"))
            if params.im_e.min() < 0 or params.im_e.max() > 1:
                violations.append((epoch, batch_index, "im"))

        train(dataset, [], fast_config(max_iters=20), on_step=check)
        assert violations == []

    def test_no_projection_leaves_the_box(self):
        dataset = tiny_kg()
        params, _ = train(dataset, [], fast_config(max_iters=50, project=False))
        assert params.re_e.min() < 0 or params.re_e.max() > 1

    def test_deterministic_given_seed(self):
        dataset = tiny_kg()
        config = fast_config(max_iters=30, mu=0.5)
        ents = [Entailment(0, False, 1, 0.9)]
        a, log_a = train(dataset, ents, config)
        b, log_b = train(dataset, ents, config)
        np.testing.assert_array_equal(a.re_e, b.re_e)
        np.testing.assert_array_equal(a.im_e, b.im_e)
        np.testing.assert_array_equal(a.re_r, b.re_r)
        np.testing.assert_array_equal(a.im_r, b.im_r)
        assert [r.total for r in log_a] == [r.total for r in log_b]

    def test_large_mu_drives_penalty_down(self):
        dataset = tiny_kg()
        ents = [Entailment(0, False, 1, 1.0), Entailment(0, True, 1, 0.8)]
        config = fast_config(max_iters=400, mu=1e4, lr=0.1)
        params, _ = train(dataset, ents, config)
        assert rule_penalty(params.rel, pack_entailments(ents))[0] < 1e-3 * len(ents)

    def test_keeps_best_validation_checkpoint(self):
        rng = np.random.default_rng(3)
        dataset = tiny_kg(n_triples=30)
        valid = dataset.train[25:]
        dataset = Dataset(dataset.train[:25], valid, [], dataset.vocab)
        config = fast_config(max_iters=40, eval_every=10)
        params, log = train(dataset, [], config)
        evaluated = [row.valid_mrr for row in log if row.valid_mrr is not None]
        assert len(evaluated) == 4
        known = build_known_index(dataset)
        final_mrr = evaluate(params, dataset.valid, known).mrr
        assert final_mrr == pytest.approx(max(evaluated), abs=1e-12)

    def test_builds_no_filter_index_when_no_epoch_validates(self, tmp_path, monkeypatch):
        dataset = tiny_kg(n_triples=30)
        dataset = Dataset(dataset.train[:25], dataset.train[25:], [], dataset.vocab)
        config = fast_config(max_iters=20, eval_every=21)
        runs = []
        for patched in (False, True):
            if patched:
                def refuse(_):
                    raise AssertionError("the filter index was built")

                monkeypatch.setattr(kgec.trainer, "build_known_index", refuse)
            params, log = train(dataset, [], config)
            write_training_log(log, tmp_path / "log.csv")
            runs.append((params.ent.tobytes() + params.rel.tobytes(),
                         (tmp_path / "log.csv").read_bytes()))
        assert runs[1] == runs[0]

    def test_array_splits_train_as_list_splits_do(self, tmp_path):
        dataset = tiny_kg(n_triples=30)
        splits = (dataset.train[:25], dataset.train[25:], [])
        config = fast_config(max_iters=20, eval_every=5)
        runs = []
        for as_split in (list, triple_array):
            params, log = train(Dataset(*map(as_split, splits), dataset.vocab), [], config)
            assert [row.valid_mrr is not None for row in log].count(True) == 4
            write_training_log(log, tmp_path / "log.csv")
            runs.append((params.ent.tobytes() + params.rel.tobytes(),
                         (tmp_path / "log.csv").read_bytes()))
        assert runs[1] == runs[0]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_aborts_on_non_finite_loss(self):
        dataset = tiny_kg()
        config = fast_config(max_iters=3, lr=1e200, eta=0.01)
        with pytest.raises(RuntimeError, match="epoch"):
            train(dataset, [], config)

    def test_non_finite_gradient_stops_before_the_update(self, monkeypatch):

        real = kgec.trainer.loss_and_gradient_arrays
        seen = []

        def poisoned(params, *args, **kwargs):
            breakdown, grads = real(params, *args, **kwargs)
            seen.append((params, params.copy()))
            if len(seen) == 4:  # epoch 2, batch 1; the kernel's norm carries a NaN entry
                grads.ent[0, 0] = grads.sq_norm = np.nan
            return breakdown, grads

        monkeypatch.setattr(kgec.trainer, "loss_and_gradient_arrays", poisoned)
        with pytest.raises(RuntimeError, match="epoch 2, batch 1"):
            train(tiny_kg(), [], fast_config(max_iters=3, n_batches=2))
        params, before = seen[-1]
        assert len(seen) == 4
        np.testing.assert_array_equal(params.ent, before.ent)
        np.testing.assert_array_equal(params.rel, before.rel)

    def test_rejects_a_one_entity_dataset(self):
        dataset = Dataset([Triple(0, 0, 0)], [], [], make_vocab(1, 1))
        with pytest.raises(ValueError, match="^training needs at least 2 entities$"):
            train(dataset, [], fast_config(max_iters=1))

    def test_rejects_an_empty_training_split(self):
        dataset = Dataset([], [], [], make_vocab(4, 1))
        with pytest.raises(ValueError, match="^training split is empty$"):
            train(dataset, [], fast_config(max_iters=1))

    def test_more_batches_than_triples_skips_the_empty_ones(self, caplog):
        dataset = tiny_kg(n_triples=3)
        steps = []
        with caplog.at_level(logging.WARNING, logger="kgec"):
            params, log = train(dataset, [], fast_config(n_batches=5, max_iters=2),
                                on_step=lambda params, epoch, batch: steps.append(epoch))
        # Once a run, not once an epoch.
        assert caplog.messages.count("n_batches=5 exceeds the number of triples (3); some batches are empty") == 1
        assert steps == [1, 1, 1, 2, 2, 2]
        assert len(log) == 2 and all(row.logistic > 0.0 for row in log)
        assert np.isfinite(params.ent).all() and np.isfinite(params.rel).all()

    def test_rejects_entailment_with_unknown_relation(self):
        dataset = tiny_kg(n_relations=2)
        with pytest.raises(ValueError, match="unknown relation"):
            train(dataset, [Entailment(0, False, 5, 0.9)], fast_config(max_iters=1))

    @pytest.mark.parametrize("premise, conclusion", [(-1, 0), (0, -1)])
    def test_rejects_entailment_with_negative_relation(self, premise, conclusion):
        # A negative id would otherwise index, and penalise, the last relation.
        dataset = tiny_kg(n_relations=2)
        with pytest.raises(ValueError, match="unknown relation"):
            train(dataset, [Entailment(premise, False, conclusion, 0.9)], fast_config(max_iters=1))

    def test_log_csv_round_trip(self, tmp_path):
        rows = [EpochStats(1, 1.0, 0.5, 0.25, 1.53, None), EpochStats(2, 0.9, 0.4, 0.2, 1.31, 0.75)]
        path = tmp_path / "log.csv"
        write_training_log(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,logistic,penalty,l2,total,valid_mrr"
        assert lines[1].endswith(",")
        assert lines[2].endswith("0.750000")


# Trains a random 3,000-entity KG and prints the parameters' digest and the
# per-epoch log; run in a child process under a given BLAS thread count.
_THREAD_COUNT_SCRIPT = """
import hashlib, json
from conftest import random_dataset
from kgec.trainer import TrainConfig, train
dataset = random_dataset(3_000, 10, 6_000, 0, 0, seed=0)
config = TrainConfig(d=64, neg_ratio=2, n_batches=4, max_iters=3, mu=0.0, seed=0)
params, log = train(dataset, [], config)
digest = hashlib.sha256(params.ent.tobytes() + params.rel.tobytes()).hexdigest()
print(json.dumps([digest, [repr(row) for row in log]]))
"""


class TestBlockLoopsInParts:
    """The training step's block loops run in one part per usable CPU, and
    no result depends on the number of parts or of BLAS threads."""

    def test_fn_runs_once_per_block_in_block_order(self, monkeypatch):
        from kgec.objective import _per_block

        def block(a, e):
            calls.append((a, e))
            return a, e

        blocks = [(0, 3), (3, 6), (6, 9), (9, 10)]
        for workers in (1, 2, 3, 9):
            monkeypatch.setattr(kgec.objective, "_WORKERS", workers)
            for size, step, want in ((10, 3, blocks), (3, 3, [(0, 3)]), (2, 3, [(0, 2)]),
                                     (0, 3, [])):
                calls = []
                assert _per_block(block, size, step) == want
                assert sorted(calls) == want  # each block once, whichever part ran it

    def test_a_failing_part_raises_after_every_part_has_finished(self, monkeypatch):
        from kgec.objective import _per_block

        monkeypatch.setattr(kgec.objective, "_WORKERS", 2)
        finished = []

        def block(a, e):
            if a == 0:
                raise ValueError("first part")
            time.sleep(0.05)
            finished.append(a)

        with pytest.raises(ValueError, match="first part"):
            _per_block(block, 4, 2)
        assert finished == [2]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_parts_on_a_pool_of_its_own(self, monkeypatch):
        import signal

        from kgec.objective import _per_block

        monkeypatch.setattr(kgec.objective, "_WORKERS", 2)
        assert _per_block(lambda a, e: e, 4, 2) == [2, 4]  # the pool's thread now runs
        pid = os.fork()
        if pid == 0:  # the child: a part left to the parent's pool would never finish
            signal.alarm(20)
            os._exit(0 if _per_block(lambda a, e: e, 4, 2) == [2, 4] else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.parametrize("block_bytes", [64, 1_000, 2**21])
    def test_sq_norm_is_the_same_for_any_number_of_parts(self, block_bytes, monkeypatch):
        from oracles import oracle_sq_norm

        monkeypatch.setattr(kgec.objective, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(0)
        z = rng.normal(size=(300, 7)) + 1j * rng.normal(size=(300, 7))
        norms = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(kgec.objective, "_WORKERS", workers)
            norms.append(oracle_sq_norm(z))
        assert norms[0] == norms[1] == norms[2]
        assert norms[0] == pytest.approx(np.sum(np.abs(z) ** 2), rel=1e-13)

    def test_training_is_identical_for_one_two_and_three_workers(self, monkeypatch):
        # Small blocks and chunks cut every loop of a step into many blocks,
        # so the parts split each loop at block boundaries.
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(kgec.objective, "_BLOCK_BYTES", 1_024)
        monkeypatch.setattr(kgec.trainer, "_ADAGRAD_CHUNK_BYTES", 512)
        dataset = tiny_kg(n_entities=300, n_relations=4, n_triples=1_200, seed=3)
        rules = [Entailment(0, False, 1, 0.9), Entailment(2, True, 3, 0.8)]
        config = fast_config(d=16, neg_ratio=3, n_batches=4, max_iters=2, mu=0.5)
        submitted = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, run_part, fn, *args, **kwargs):
                submitted.append(fn.__name__)
                return super().submit(run_part, fn, *args, **kwargs)

        results = []
        with CountingPool(2) as pool:
            monkeypatch.setattr(kgec.objective, "_POOL", pool)
            for workers in (1, 2, 3):
                monkeypatch.setattr(kgec.objective, "_WORKERS", workers)
                params, log = train(dataset, rules, config)
                results.append((params.ent.tobytes() + params.rel.tobytes(), log))
        assert results[1] == results[0] and results[2] == results[0]
        assert {"_positive_block", "_grad_block", "_scale_rows", "_adagrad_chunk"} <= set(submitted)

    def test_training_is_identical_for_one_and_two_blas_threads(self):
        import json
        import subprocess
        import sys
        from pathlib import Path

        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        outputs = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run([sys.executable, "-c", _THREAD_COUNT_SCRIPT], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(json.loads(done.stdout))
        assert outputs[0] == outputs[1]

    def test_a_planted_shaped_step_runs_without_the_pool(self, monkeypatch):
        # At C06's shape every loop is one block, so no part reaches the pool.
        class RefusingPool:
            def submit(self, *args, **kwargs):
                raise AssertionError("a one-block loop reached the pool")

        monkeypatch.setattr(kgec.objective, "_POOL", RefusingPool())
        monkeypatch.setattr(kgec.objective, "_WORKERS", 2)
        rng = np.random.default_rng(0)
        n, m, d, b, k = 200, 10, 50, 136, 2
        params = init_params(n, m, d, seed=0)
        state = AdaGradState.zeros_like(params)
        heads, rels, tails = rng.integers(n, size=b), rng.integers(m, size=b), rng.integers(n, size=b)
        corrupt_head, replacement = _corrupt_batch(heads, tails, k, n, rng)
        rules = pack_entailments([Entailment(i, False, i + 3, 0.9) for i in range(3)])
        from kgec.objective import loss_and_gradient_arrays

        before = params.copy()
        _, grads = loss_and_gradient_arrays(
            params, heads, rels, tails, corrupt_head, replacement, rules, 1.0, 0.01
        )
        assert grads.clip_global_norm_(1.0) > 1.0
        adagrad_step(params, grads, state, lr=0.5, project=True)
        assert not np.array_equal(params.ent, before.ent)


@pytest.mark.skipif(
    not os.environ.get("KGEC_RUN_TIMING"),
    reason="wall-time scaling check is load-sensitive; set KGEC_RUN_TIMING=1",
)
def test_per_epoch_cost_scales_linearly_in_d():
    dataset = tiny_kg(n_entities=60, n_relations=4, n_triples=600, seed=1)

    def epoch_time(d):
        config = TrainConfig(d=d, neg_ratio=10, n_batches=4, max_iters=6, lr=0.5, seed=0, eval_every=1000)
        start = time.perf_counter()
        train(dataset, [], config)
        return (time.perf_counter() - start) / config.max_iters

    epoch_time(512)  # warm-up
    t1 = epoch_time(512)
    t2 = epoch_time(1024)
    assert 1.5 <= t2 / t1 <= 2.5
