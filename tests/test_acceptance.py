"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. Criteria needing benchmark datasets are skipped unless the
matching KGEC_*_DIR environment variable points at the data; the full-scale
reproduction (criterion 9) additionally requires KGEC_FULL_REPRO=1 since it
runs for hours.
"""

import multiprocessing
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kgec.analysis import TypeLabels, activation_heatmap, purity_curve
from kgec.data import (
    Dataset,
    Entailment,
    Triple,
    build_known_index,
    load_dataset,
    load_triples,
)
from kgec.evaluation import evaluate, filtered_rank
from kgec.mining import mine_entailments
from kgec.model import ModelParams, init_params, save_checkpoint
from kgec.objective import pack_entailments, rule_penalty
from kgec.trainer import TrainConfig, parse_config, train

from conftest import loss_and_gradients, make_vocab, names_of, random_dataset, triple_scores, wn18_train_path
from oracles import central_difference, oracle_filtered_rank, oracle_mine, slack_grid_minimum
from test_objective import random_instance


@contextmanager
def report(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s exceeds {budget_seconds}s"


def test_c01_gradient_matches_finite_differences():
    with report("C01 gradient correctness vs central differences", 10.0):
        params, batch, rules = random_instance(seed=2024, n=6, m=3, d=4, n_triples=20)
        mu, eta = 0.7, 0.01
        _, grads = loss_and_gradients(params, *batch, rules, mu, eta)

        def loss():
            return loss_and_gradients(params, *batch, rules, mu, eta)[0].total

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
        assert worst < 1e-5, f"max relative gradient error {worst:.2e}"


def test_c02_sufficient_condition_orders_scores():
    with report("C02 representation ordering implies score ordering", 5.0):
        rng = np.random.default_rng(7)
        n, d = 30, 6
        worst = -np.inf
        for _ in range(1000):
            re_e = rng.uniform(0.0, 1.0, (n, d))
            im_e = rng.uniform(0.0, 1.0, (n, d))
            re_q = rng.normal(size=d)
            re_p = re_q - rng.uniform(0.0, 1.0, size=d)
            im = rng.normal(size=d)
            params = ModelParams(re_e + 1j * im_e, np.vstack([re_p, re_q]) + 1j * np.vstack([im, im]))
            heads = rng.integers(0, n, size=100)
            tails = rng.integers(0, n, size=100)
            low = triple_scores(params, heads, np.zeros(100, int), tails)
            high = triple_scores(params, heads, np.ones(100, int), tails)
            worst = max(worst, float((low - high).max()))
        assert worst <= 1e-12, f"worst ordering violation {worst:.2e}"


def test_c03_penalty_equals_grid_minimized_slack():
    with report("C03 closed-form penalty equals slack grid minimum", 30.0):
        rng = np.random.default_rng(13)
        d, step = 4, 1e-3
        for _ in range(100):
            params = ModelParams(
                np.zeros((2, d), complex),
                rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d)),
            )
            inverted = bool(rng.integers(2))
            conf = float(rng.uniform(0.05, 1.0))
            ent = Entailment(0, inverted, 1, conf)
            closed = rule_penalty(params.rel, pack_entailments([ent]))[0]
            im_p = -params.im_r[0] if inverted else params.im_r[0]
            grid = slack_grid_minimum(
                params.re_r[0] - params.re_r[1], im_p - params.im_r[1], conf, step=step
            )
            assert closed <= grid + 1e-12
            assert grid - closed <= 2 * d * step, f"gap {grid - closed:.4f}"


def test_c04_filtered_ranks_match_sorting_oracle():
    with report("C04 filtered ranks match brute-force sorting oracle", 5.0):
        dataset = random_dataset(30, 5, 80, 20, 20, seed=31)
        assert len(dataset.train) + len(dataset.valid) + len(dataset.test) == 120
        params = init_params(30, 5, 8, seed=17)
        known = build_known_index(dataset)
        for triple in dataset.test:
            for side in ("head", "tail"):
                ours = filtered_rank(params, triple, side, known)
                reference = oracle_filtered_rank(params, triple, side, known)
                assert ours == reference, (triple, side, ours, reference)


def test_c05_mined_rules_match_enumeration_oracle():
    with report("C05 mined rules match enumeration oracle", 5.0):
        hand_kgs = [
            # Premise pair (c, d) lacks a conclusion fact for c: PCA body 1.
            [Triple(0, 0, 1), Triple(0, 1, 1), Triple(2, 0, 3)],
            # Only the inverted premise direction holds.
            [Triple(0, 0, 1), Triple(1, 1, 0)],
            # Symmetric relation entails itself through inversion.
            [Triple(0, 0, 1), Triple(1, 0, 0), Triple(2, 0, 2)],
        ]
        rng = np.random.default_rng(41)
        random_kg = list(
            {
                Triple(int(h), int(r), int(t))
                for h, r, t in zip(
                    rng.integers(0, 30, 700),
                    rng.integers(0, 6, 700),
                    rng.integers(0, 30, 700),
                )
            }
        )
        assert len(random_kg) <= 1000
        for kg, min_conf, min_support in (
            (hand_kgs[0], 0.5, 1),
            (hand_kgs[1], 0.5, 1),
            (hand_kgs[2], 0.5, 1),
            (random_kg, 0.3, 2),
            (random_kg, 0.8, 1),
        ):
            mined = {
                (
                    r.entailment.premise_rel,
                    r.entailment.premise_inverted,
                    r.entailment.conclusion_rel,
                ): (r.support, r.pca_body, r.entailment.confidence)
                for r in mine_entailments(kg, min_conf, min_support)
            }
            assert mined == oracle_mine(kg, min_conf, min_support)


def planted_subset_kg(seed=7, n=200, q_size=150, p_size=50, holdout=30):
    """Three relation pairs with premise facts a strict subset of conclusion
    facts; 20% of each conclusion relation's facts (all with premise twins)
    are held out as the test split."""
    rng = np.random.default_rng(seed)
    train, test = [], []

    def draw_pairs(k):
        pairs = set()
        while len(pairs) < k:
            h, t = rng.integers(0, n, size=2)
            if h != t:
                pairs.add((int(h), int(t)))
        return sorted(pairs)

    for p_rel, q_rel in ((0, 1), (2, 3), (4, 5)):
        q_pairs = draw_pairs(q_size)
        idx = rng.permutation(q_size)
        p_idx = idx[:p_size]
        held = set(p_idx[:holdout].tolist())
        for i, (h, t) in enumerate(q_pairs):
            (test if i in held else train).append(Triple(h, q_rel, t))
        for i in p_idx:
            h, t = q_pairs[i]
            train.append(Triple(h, p_rel, t))
    for rel in range(6, 10):
        for h, t in draw_pairs(100):
            train.append(Triple(h, rel, t))
    return Dataset(train, [], test, make_vocab(n, 10))


def _on_two_processes(fn, jobs):
    """``[fn(*job) for job in jobs]``, computed on two worker processes started
    with ``spawn`` (so no thread pool is forked) and gathered in job order;
    raises ``multiprocessing.TimeoutError`` after the tests' 300 s budget.

    Each worker sets ``OPENBLAS_NUM_THREADS=1`` in its own environment before
    its first job is unpickled, and so before that job's imports load numpy:
    two workers then run two BLAS threads, not four. This process's
    environment is not changed."""
    blas = ("OPENBLAS_NUM_THREADS", "1")
    with multiprocessing.get_context("spawn").Pool(2, initializer=os.putenv, initargs=blas) as pool:
        return pool.starmap_async(fn, jobs, chunksize=1).get(timeout=300)


def _c06_mrr(seed: int, constrained: bool) -> float:
    """Test MRR of one C06 training: NNE+AER on the planted rules, or plain ComplEx."""
    dataset = planted_subset_kg()
    ents = [
        Entailment(0, False, 1, 0.9),
        Entailment(2, False, 3, 0.9),
        Entailment(4, False, 5, 0.9),
    ]
    base = dict(
        d=50, eta=0.01, neg_ratio=2, lr=0.5, n_batches=20,
        max_iters=300, grad_norm_cap=1.0, eval_every=10_000,
    )
    if constrained:
        params, _ = train(dataset, ents, TrainConfig(mu=1.0, project=True, seed=seed, **base))
    else:
        params, _ = train(dataset, [], TrainConfig(mu=0.0, project=False, seed=seed, **base))
    return evaluate(params, dataset.test, build_known_index(dataset)).mrr


def test_c06_entailment_constraints_lift_test_mrr():
    with report("C06 constrained model beats plain ComplEx on planted rules", 300.0):
        mrrs = _on_two_processes(_c06_mrr, [(seed, aer) for seed in range(5) for aer in (False, True)])
        plain, constrained = mrrs[0::2], mrrs[1::2]
        mean_plain, mean_constrained = np.mean(plain), np.mean(constrained)
        print(
            f"    ComplEx MRR {mean_plain:.4f}, ComplEx-NNE+AER MRR {mean_constrained:.4f}"
        )
        assert mean_constrained > mean_plain


def typed_segregated_kg(seed=11, per_type=30, n_types=4, facts_per_rel=60):
    """Two relations per type, each with random facts strictly inside the
    type. The entailment constraints used on top of this KG pair the two
    relations of each type; they encode the within-type prior rather than an
    exact data regularity."""
    rng = np.random.default_rng(seed)
    n = per_type * n_types
    train = []
    for type_id in range(n_types):
        members = np.arange(type_id * per_type, (type_id + 1) * per_type)
        for j in range(2):
            pairs = set()
            while len(pairs) < facts_per_rel:
                h, t = rng.choice(members, size=2)
                if h != t:
                    pairs.add((int(h), int(t)))
            for h, t in sorted(pairs):
                train.append(Triple(h, 2 * type_id + j, t))
    labels = TypeLabels(np.arange(n), np.arange(n) // per_type, n_types)
    return Dataset(train, [], [], make_vocab(n, 2 * n_types)), labels


def _c07_entropy(seed: int, name: str) -> float:
    """Purity entropy at K=5 of one C07 training of variant ``name``."""
    dataset, labels = typed_segregated_kg()
    ents = [Entailment(2 * t, False, 2 * t + 1, 0.9) for t in range(4)]
    base = dict(
        d=16, eta=0.03, neg_ratio=10, lr=0.1, n_batches=10,
        max_iters=300, eval_every=10_000,
    )
    variants = {
        "complex": (TrainConfig(mu=0.0, project=False, seed=seed, **base), []),
        "nne": (TrainConfig(mu=0.0, project=True, seed=seed, **base), []),
        "aer": (TrainConfig(mu=1.0, project=True, seed=seed, **base), ents),
    }
    config, constraint_set = variants[name]
    params, _ = train(dataset, constraint_set, config)
    normalized = activation_heatmap(params.re_e, range(dataset.n_entities))
    return purity_curve(normalized, labels, (5.0,)).points[0][1]


def test_c07_purity_entropy_ordering():
    with report("C07 dimension purity orders AER <= NNE < ComplEx", 300.0):
        names = ("complex", "nne", "aer")
        values = _on_two_processes(_c07_entropy, [(seed, name) for seed in range(3) for name in names])
        entropies = {name: values[i::3] for i, name in enumerate(names)}
        means = {name: float(np.mean(vals)) for name, vals in entropies.items()}
        print(
            f"    mean entropy at K=5: ComplEx {means['complex']:.3f}, "
            f"NNE {means['nne']:.3f}, NNE+AER {means['aer']:.3f}"
        )
        assert means["aer"] <= means["nne"] < means["complex"]


@pytest.mark.skipif(
    wn18_train_path() is None,
    reason="WN18 not available; set KGEC_WN18_DIR to the dataset directory",
)
def test_c08_wn18_rule_spot_check():
    with report("C08 WN18 mined-rule confidence spot check", 120.0):
        triples, vocab = load_triples(wn18_train_path())
        rules = mine_entailments(triples, min_conf=0.8, min_support=10)

        def rel_id(name: str) -> int:
            for candidate in names_of(vocab.relations):
                if candidate.strip("_") == name:
                    return vocab.relations.id(candidate)
            raise AssertionError(f"relation {name} not in WN18 vocabulary")

        expected = [
            ("hypernym", "hyponym", 1.00),
            ("synset_domain_topic_of", "member_of_domain_topic", 0.99),
            ("instance_hypernym", "instance_hyponym", 0.98),
        ]
        by_key = {
            (
                r.entailment.premise_rel,
                r.entailment.premise_inverted,
                r.entailment.conclusion_rel,
            ): r.entailment.confidence
            for r in rules
        }
        for premise, conclusion, printed in expected:
            key = (rel_id(premise), True, rel_id(conclusion))
            assert key in by_key, f"{premise}^-1 -> {conclusion} not mined"
            assert abs(by_key[key] - printed) <= 0.02, (
                f"{premise}^-1 -> {conclusion}: confidence {by_key[key]:.3f} "
                f"vs printed {printed:.2f}"
            )


_FULL_REPRO_DATASETS = (
    ("KGEC_WN18_DIR", "wn18", 0.943, 0.005),
    ("KGEC_FB15K_DIR", "fb15k", 0.803, 0.010),
    ("KGEC_DB100K_DIR", "db100k", 0.306, 0.010),
)


@pytest.mark.skipif(
    not os.environ.get("KGEC_FULL_REPRO"),
    reason="multi-hour benchmark reproduction; set KGEC_FULL_REPRO=1 and the "
    "KGEC_*_DIR dataset variables to run",
)
def test_c09_full_scale_reproduction():
    from kgec.cli import _resolve_config

    for env, preset, expected_mrr, tolerance in _FULL_REPRO_DATASETS:
        root = os.environ.get(env)
        if not root:
            print(f"[acceptance] C09 {preset}: SKIP ({env} unset)")
            continue
        with report(f"C09 full-scale reproduction on {preset}", 48 * 3600.0):
            dataset = load_dataset(root)
            config = parse_config(_resolve_config(preset))
            rules = mine_entailments(dataset.train, min_conf=0.8, min_support=10)
            params, _ = train(dataset, [r.entailment for r in rules], config)
            known = build_known_index(dataset)
            result = evaluate(params, dataset.test, known, workers=4)
            print(f"    {preset} test MRR {result.mrr:.4f} (reported {expected_mrr})")
            assert abs(result.mrr - expected_mrr) <= tolerance


def test_c10_projection_and_determinism(tmp_path):
    with report("C10 per-step projection and bit-identical checkpoints", 60.0):
        rng = np.random.default_rng(3)
        triples = set()
        while len(triples) < 20:
            h, t = rng.integers(0, 8, size=2)
            if h != t:
                triples.add(Triple(int(h), int(rng.integers(2)), int(t)))
        dataset = Dataset(sorted(triples), [], [], make_vocab(8, 2))
        config = TrainConfig(
            d=8, eta=0.01, neg_ratio=4, lr=0.5, mu=0.5, n_batches=4,
            max_iters=50, seed=123, eval_every=1000,
        )
        ents = [Entailment(0, False, 1, 0.9)]

        box_ok = []

        def check(params, epoch, batch_index):
            inside = (
                params.re_e.min() >= 0.0
                and params.re_e.max() <= 1.0
                and params.im_e.min() >= 0.0
                and params.im_e.max() <= 1.0
            )
            box_ok.append(inside)

        params_a, _ = train(dataset, ents, config, on_step=check)
        assert box_ok and all(box_ok)
        params_b, _ = train(dataset, ents, config)
        path_a, path_b = tmp_path / "a.kgec", tmp_path / "b.kgec"
        save_checkpoint(params_a, path_a)
        save_checkpoint(params_b, path_b)
        assert params_a.re_e.dtype == np.float64
        assert path_a.read_bytes() == path_b.read_bytes()
