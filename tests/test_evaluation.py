"""Tests for filtered ranking, metric aggregation, and the paired t-test."""

import itertools
import os

import numpy as np
import pytest

import kgec.objective
from kgec.data import KnownIndex, Triple
from kgec.evaluation import (
    evaluate,
    filtered_rank,
    load_rank_dump,
    paired_ttest,
    rank_from_scores,
    significance_report,
    write_rank_dump,
)
from kgec.model import init_params, score_all_heads, score_all_tails

from conftest import random_dataset
from kgec.data import build_known_index
from oracles import oracle_filtered_rank


class TestRankFromScores:
    def test_counts_strictly_greater(self):
        scores = np.array([[0.9, 0.95, 0.8]])
        assert rank_from_scores(scores, gold=[0]).tolist() == [2]

    def test_filtering_removes_competitor(self):
        scores = np.array([[0.9, 0.95, 0.8]])
        assert rank_from_scores(scores, gold=[0], filtered=[[1]]).tolist() == [1]

    def test_gold_highest(self):
        scores = np.array([[0.99, 0.95, 0.8]])
        assert rank_from_scores(scores, gold=[0]).tolist() == [1]

    def test_gold_never_filtered_out(self):
        scores = np.array([[0.9, 0.95]])
        # Filtering the gold itself must not change its rank.
        assert rank_from_scores(scores, gold=[0], filtered=[[0, 1]]).tolist() == [1]

    def test_ties_rank_optimistically(self):
        scores = np.array([[0.5, 0.5, 0.5, 0.9]])
        assert rank_from_scores(scores, gold=[0]).tolist() == [2]

    def test_invariant_under_monotone_transforms(self, rng):
        for _ in range(50):
            scores = rng.normal(size=(1, 30))
            gold = [int(rng.integers(30))]
            filtered = [rng.choice(30, size=5, replace=False).tolist()]
            base = rank_from_scores(scores, gold, filtered).tolist()
            assert rank_from_scores(3.0 * scores + 1.0, gold, filtered).tolist() == base
            assert rank_from_scores(np.exp(scores), gold, filtered).tolist() == base

    @pytest.mark.parametrize("gold", [-1, 3])
    def test_rejects_gold_outside_the_columns(self, gold):
        # A negative gold id would otherwise wrap round to the last column.
        with pytest.raises(IndexError, match="entity id"):
            rank_from_scores(np.zeros((1, 3)), gold=[gold])

    @pytest.mark.parametrize("ids", [[-1], [3]])
    def test_rejects_filtered_ids_outside_the_columns(self, ids):
        # -1 would otherwise filter the last column, and 3 fail with numpy's text.
        scores = np.array([[0.5, 0.1, 0.9]])
        with pytest.raises(IndexError, match=f"entity id {ids[0]} out of range \\[0, 3\\)"):
            rank_from_scores(scores, gold=[0], filtered=[ids])

    def test_rows_rank_independently(self):
        scores = np.array([
            [0.9, 0.95, 0.8, 0.99],
            [0.9, 0.95, 0.8, 0.99],
            [0.1, 0.2, 0.3, 0.4],
        ])
        before = scores.copy()
        ranks = rank_from_scores(scores, [0, 2, 3], [{1}, {0, 2}, set()])
        assert ranks.tolist() == [2, 3, 1]
        np.testing.assert_array_equal(scores, before)


class TestFilteredRank:
    def test_matches_brute_force_oracle(self):
        dataset = random_dataset(20, 4, 60, 10, 15, seed=2)
        params = init_params(20, 4, 6, seed=3)
        known = build_known_index(dataset)
        for triple in dataset.test:
            for side in ("head", "tail"):
                assert filtered_rank(params, triple, side, known) == oracle_filtered_rank(
                    params, triple, side, known
                )

    def test_filtered_never_exceeds_raw(self):
        dataset = random_dataset(15, 3, 40, 5, 10, seed=4)
        params = init_params(15, 3, 5, seed=5)
        known = build_known_index(dataset)
        empty = KnownIndex()
        for triple in dataset.test:
            for side in ("head", "tail"):
                filtered = filtered_rank(params, triple, side, known)
                raw = filtered_rank(params, triple, side, empty)
                assert filtered <= raw

    def test_invariant_under_entity_relabeling(self, rng):
        n = 12
        params = init_params(n, 2, 4, seed=6)
        perm = rng.permutation(n)
        permuted = params.copy()
        permuted.re_e[perm] = params.re_e
        permuted.im_e[perm] = params.im_e
        triples = [Triple(0, 0, 1), Triple(3, 1, 7), Triple(5, 0, 5)]
        known = KnownIndex(triples)
        known_perm = KnownIndex(
            [Triple(int(perm[h]), r, int(perm[t])) for h, r, t in triples]
        )
        for triple in triples:
            mapped = Triple(int(perm[triple.head]), triple.rel, int(perm[triple.tail]))
            for side in ("head", "tail"):
                assert filtered_rank(params, triple, side, known) == filtered_rank(
                    permuted, mapped, side, known_perm
                )

    def test_rejects_bad_side(self):
        params = init_params(3, 1, 2, seed=0)
        with pytest.raises(ValueError):
            filtered_rank(params, Triple(0, 0, 1), "both", KnownIndex())

    @pytest.mark.parametrize("side", ["head", "tail"])
    @pytest.mark.parametrize("gold", [-1, 5])
    def test_out_of_range_gold_id(self, side, gold):
        # A negative id would otherwise index the last entity and rank it.
        triple = (gold, 0, 1) if side == "head" else (1, 0, gold)
        with pytest.raises(IndexError, match="entity id"):
            filtered_rank(init_params(5, 1, 3, seed=0), triple, side, KnownIndex())


class TestEvaluate:
    @pytest.mark.parametrize(
        "bad, kind", [((0, 0, 5), "entity"), ((-1, 0, 1), "entity"), ((0, 1, 1), "relation")]
    )
    def test_out_of_range_ids(self, bad, kind):
        test = [Triple(0, 0, 1), Triple(*bad)]
        with pytest.raises(IndexError, match=f"{kind} id"):
            evaluate(init_params(5, 1, 3, seed=0), test, KnownIndex())

    def test_aggregation_arithmetic(self, monkeypatch):
        import kgec.evaluation as evaluation

        # Each chunk ranks its head side, then its tail side.
        sides = itertools.cycle([2, 1])
        monkeypatch.setattr(
            evaluation, "rank_from_scores", lambda s, gold, f: np.full(len(gold), next(sides))
        )
        params = init_params(2, 1, 1, seed=0)
        result = evaluation.evaluate(params, [Triple(0, 0, 1)], KnownIndex())
        assert result.mrr == pytest.approx(0.75)
        assert result.hits[1] == pytest.approx(0.5)
        assert result.hits[3] == pytest.approx(1.0)
        assert result.hits[10] == pytest.approx(1.0)
        assert result.per_triple == [(2, 1)]

    def test_all_rank_one(self, monkeypatch):
        import kgec.evaluation as evaluation

        monkeypatch.setattr(evaluation, "rank_from_scores", lambda s, gold, f: np.ones(len(gold)))
        params = init_params(2, 1, 1, seed=0)
        result = evaluation.evaluate(params, [Triple(0, 0, 1)] * 4, KnownIndex())
        assert result.mrr == 1.0
        assert all(v == 1.0 for v in result.hits.values())

    def test_empty_test_set_rejected(self):
        params = init_params(3, 1, 2, seed=0)
        with pytest.raises(ValueError):
            evaluate(params, [], KnownIndex())

    def test_metric_invariants_on_random_model(self):
        dataset = random_dataset(18, 3, 50, 5, 12, seed=7)
        params = init_params(18, 3, 4, seed=8)
        known = build_known_index(dataset)
        result = evaluate(params, dataset.test, known)
        assert 0.0 < result.mrr <= 1.0
        assert result.hits[1] <= result.hits[3] <= result.hits[10]

    def test_workers_do_not_change_the_result(self):
        dataset = random_dataset(16, 3, 40, 5, 10, seed=9)
        params = init_params(16, 3, 4, seed=10)
        known = build_known_index(dataset)
        sequential = evaluate(params, dataset.test, known, workers=1)
        threaded = evaluate(params, dataset.test, known, workers=4)
        assert sequential.per_triple == threaded.per_triple
        assert sequential.mrr == threaded.mrr

    @pytest.mark.parametrize("workers", [1, 3])
    def test_leaves_the_index_unchanged(self, monkeypatch, workers):
        import kgec.evaluation as evaluation

        n = 16
        dataset = random_dataset(n, 3, 40, 5, 10, seed=16)
        params = init_params(n, 3, 4, seed=17)
        # Only the training split is indexed, so test lookups also miss.
        known = KnownIndex(dataset.train)
        indexes = [known._heads, known._tails]
        before = [{key: set(ids) for key, ids in index.items()} for index in indexes]
        monkeypatch.setattr(evaluation, "_CHUNK_BYTES", 3 * n * 8)
        evaluate(params, dataset.test, known, workers=workers)
        assert indexes == before

    def test_chunks_match_oracle(self, monkeypatch):
        import kgec.evaluation as evaluation

        n = 16
        dataset = random_dataset(n, 3, 40, 5, 10, seed=16)
        params = init_params(n, 3, 4, seed=17)
        # Test triples 3 and 4 fall in the same chunk and share (rel, tail).
        h, r, t = dataset.test[3]
        test = dataset.test[:4] + [Triple((h + 1) % n, r, t)] + dataset.test[4:]
        known = build_known_index(dataset)
        for triple in test:
            known.add(triple)
        # Three test triples per chunk, so the test set spans several chunks.
        monkeypatch.setattr(evaluation, "_CHUNK_BYTES", 3 * n * 8)
        result = evaluate(params, test, known, workers=3)
        expected = [
            (oracle_filtered_rank(params, triple, "head", known),
             oracle_filtered_rank(params, triple, "tail", known))
            for triple in test
        ]
        assert result.per_triple == expected

    def test_one_product_per_side_per_chunk(self, monkeypatch):
        import kgec.evaluation as evaluation

        n = 16
        dataset = random_dataset(n, 3, 40, 5, 10, seed=16)
        params = init_params(n, 3, 4, seed=17)
        monkeypatch.setattr(evaluation, "_CHUNK_BYTES", 3 * n * 8)
        calls = []

        def recording(scorer):
            def scores(*args):
                result = scorer(*args)
                calls.append((scorer.__name__, result.shape))
                return result

            return scores

        monkeypatch.setattr(evaluation, "score_all_heads", recording(score_all_heads))
        monkeypatch.setattr(evaluation, "score_all_tails", recording(score_all_tails))
        evaluate(params, dataset.test, build_known_index(dataset))
        # Ten test triples in chunks of three: a head product, then a tail product.
        shapes = [(3, n)] * 3 + [(1, n)]
        assert calls == [
            (name, shape) for shape in shapes for name in ("score_all_heads", "score_all_tails")
        ]


class TestChunksInParts:
    """``evaluate`` ranks its chunks through ``objective._per_block``, on the
    package's one pool, in at most ``workers`` parts."""

    @staticmethod
    def _case(monkeypatch, per_chunk=3):
        import kgec.evaluation as evaluation

        n = 16
        dataset = random_dataset(n, 3, 40, 5, 10, seed=16)
        # Ten test triples: four chunks of at most three, five chunks of two.
        monkeypatch.setattr(evaluation, "_CHUNK_BYTES", per_chunk * n * 8)
        return init_params(n, 3, 4, seed=17), dataset.test, build_known_index(dataset)

    def test_ranks_are_the_same_for_any_number_of_parts(self, monkeypatch):
        params, test, known = self._case(monkeypatch)
        want = evaluate(params, test, known)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(kgec.objective, "_WORKERS", cpus)
            for workers in (1, 2, 3, 8):
                result = evaluate(params, test, known, workers=workers)
                assert result.per_triple == want.per_triple
                assert result.mrr == want.mrr and result.hits == want.hits

    def test_chunks_reach_the_pool_only_with_two_workers_and_two_cpus(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        params, test, known = self._case(monkeypatch, per_chunk=2)
        submitted = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, run_part, fn, *args, **kwargs):
                submitted.append(fn.__name__)
                return super().submit(run_part, fn, *args, **kwargs)

        with CountingPool(2) as pool:
            monkeypatch.setattr(kgec.objective, "_POOL", pool)
            # (usable CPUs, workers, parts); a cap below 1 still makes one part.
            for cpus, workers, parts in ((1, 1, 1), (1, 8, 1), (3, 1, 1), (2, 0, 1), (2, 2, 2),
                                         (2, 8, 2), (3, 2, 2), (3, 3, 3), (3, 8, 3)):
                monkeypatch.setattr(kgec.objective, "_WORKERS", cpus)
                submitted.clear()
                evaluate(params, test, known, workers=workers)
                assert submitted == ["rank_chunk"] * (parts - 1), (cpus, workers)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_ranks_on_a_pool_of_its_own(self, monkeypatch):
        import signal

        params, test, known = self._case(monkeypatch)
        monkeypatch.setattr(kgec.objective, "_WORKERS", 2)
        want = evaluate(params, test, known, workers=2).per_triple  # the pool's thread now runs
        pid = os.fork()
        if pid == 0:  # the child: a chunk left to the parent's pool would never be ranked
            signal.alarm(20)
            code = 1
            try:
                code = 0 if evaluate(params, test, known, workers=2).per_triple == want else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestPairedTTest:
    def test_identical_samples(self):
        assert paired_ttest([0.5, 0.25, 1.0], [0.5, 0.25, 1.0]) == 1.0

    def test_known_case_df3(self):
        # differences [1,1,1,0]: mean .75, sd .5, t = 3, df = 3.
        # Closed-form t CDF for df=3: F(t) = 1/2 + (atan(x) + x/(1+x^2))/pi,
        # x = t/sqrt(3); two-sided p = 2*(1 - F(3)).
        x = 3.0 / np.sqrt(3.0)
        expected = 2.0 * (1.0 - (0.5 + (np.arctan(x) + x / (1 + x * x)) / np.pi))
        assert expected == pytest.approx(0.05766888, abs=1e-8)
        p = paired_ttest([1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0])
        assert p == pytest.approx(expected, abs=1e-10)

    def test_zero_mean_alternating(self):
        a = [0.1, -0.1] * 5
        assert paired_ttest(a, [0.0] * 10) == pytest.approx(1.0)

    def test_constant_nonzero_difference(self):
        assert paired_ttest([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]) == 0.0

    def test_rejects_mismatched_or_short_input(self):
        with pytest.raises(ValueError):
            paired_ttest([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            paired_ttest([1.0], [1.0])


class TestRankDumps:
    def test_round_trip_and_significance(self, tmp_path):
        dataset = random_dataset(14, 3, 40, 5, 10, seed=11)
        known = build_known_index(dataset)
        params_a = init_params(14, 3, 4, seed=12)
        params_b = init_params(14, 3, 4, seed=13)
        result_a = evaluate(params_a, dataset.test, known)
        result_b = evaluate(params_b, dataset.test, known)
        dump_a = tmp_path / "a.csv"
        dump_b = tmp_path / "b.csv"
        write_rank_dump(dataset.test, result_a, dump_a)
        write_rank_dump(dataset.test, result_b, dump_b)

        triples, head_ranks, tail_ranks = load_rank_dump(dump_a)
        assert triples == list(dataset.test)
        assert head_ranks.tolist() == [r for r, _ in result_a.per_triple]
        assert tail_ranks.tolist() == [r for _, r in result_a.per_triple]

        report = significance_report(dump_a, dump_b)
        assert set(report) == {"mrr", "hits@1", "hits@3", "hits@10"}
        for p in report.values():
            assert 0.0 <= p <= 1.0
        # Self-comparison is the degenerate all-zero-differences case.
        self_report = significance_report(dump_a, dump_a)
        assert all(p == 1.0 for p in self_report.values())

    def test_mismatched_dumps_rejected(self, tmp_path):
        dataset = random_dataset(10, 2, 20, 2, 6, seed=14)
        known = build_known_index(dataset)
        params = init_params(10, 2, 3, seed=15)
        result = evaluate(params, dataset.test, known)
        dump_a = tmp_path / "a.csv"
        dump_b = tmp_path / "b.csv"
        write_rank_dump(dataset.test, result, dump_a)
        write_rank_dump(dataset.test[::-1], result, dump_b)
        with pytest.raises(ValueError, match="different test triples"):
            significance_report(dump_a, dump_b)
