"""Tests for rule mining with PCA confidence and the relation-pair classes
that ``analysis.pair_residuals`` reads off the rules."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgec import mining
from kgec.analysis import pair_residuals
from kgec.data import Entailment, Triple, load_entailments
from kgec.mining import MinedRule, mine_entailments, write_rules

from conftest import make_vocab
from oracles import oracle_mine


def rules_by_key(rules):
    return {
        (r.entailment.premise_rel, r.entailment.premise_inverted, r.entailment.conclusion_rel): r
        for r in rules
    }


class TestMineEntailments:
    def test_pca_body_excludes_subjects_without_conclusion_facts(self):
        # a: 0, b: 1, c: 2, d: 3; p: 0, q: 1
        train = [Triple(0, 0, 1), Triple(0, 1, 1), Triple(2, 0, 3)]
        rules = rules_by_key(mine_entailments(train, min_conf=0.5, min_support=1))
        rule = rules[(0, False, 1)]
        assert rule.support == 1
        assert rule.pca_body == 1  # (c, d) excluded: c has no q-fact
        assert rule.entailment.confidence == 1.0

    def test_inverted_premise_rule(self):
        train = [Triple(0, 0, 1), Triple(1, 1, 0)]
        rules = rules_by_key(mine_entailments(train, min_conf=0.5, min_support=1))
        assert (0, True, 1) in rules
        assert rules[(0, True, 1)].entailment.confidence == 1.0
        assert (0, False, 1) not in rules  # support 0 in the forward direction

    def test_threshold_is_strict(self):
        train = [Triple(0, 0, 1), Triple(0, 1, 1), Triple(2, 0, 3), Triple(2, 1, 4)]
        # p -> q: support 1 (pair (0,1)), body 2 -> confidence 0.5.
        rules = rules_by_key(mine_entailments(train, min_conf=0.5, min_support=1))
        assert (0, False, 1) not in rules
        rules = rules_by_key(mine_entailments(train, min_conf=0.49, min_support=1))
        assert rules[(0, False, 1)].entailment.confidence == 0.5
        # A confidence-1.0 rule survives min_conf=0.8 but not min_conf=1.0.
        exact = [Triple(0, 0, 1), Triple(0, 1, 1)]
        assert rules_by_key(mine_entailments(exact, 0.8, 1))[(0, False, 1)]
        assert (0, False, 1) not in rules_by_key(mine_entailments(exact, 1.0, 1))

    def test_min_support_prunes(self):
        train = [Triple(0, 0, 1), Triple(0, 1, 1)]
        assert mine_entailments(train, min_conf=0.5, min_support=2) == []

    def test_forward_self_rule_excluded_inverted_kept(self):
        # Symmetric relation: r(0,1) and r(1,0).
        train = [Triple(0, 0, 1), Triple(1, 0, 0)]
        rules = rules_by_key(mine_entailments(train, min_conf=0.5, min_support=1))
        assert (0, False, 0) not in rules
        assert rules[(0, True, 0)].entailment.confidence == 1.0

    def test_duplicate_triples_do_not_change_confidence(self):
        train = [Triple(0, 0, 1), Triple(0, 1, 1), Triple(2, 0, 3)]
        base = mine_entailments(train, min_conf=0.5, min_support=1)
        doubled = mine_entailments(train * 3, min_conf=0.5, min_support=1)
        assert base == doubled

    def test_matches_enumeration_oracle_on_random_kg(self):
        rng = np.random.default_rng(21)
        triples = list(
            {
                Triple(int(h), int(r), int(t))
                for h, r, t in zip(
                    rng.integers(0, 25, 400),
                    rng.integers(0, 5, 400),
                    rng.integers(0, 25, 400),
                )
            }
        )
        mined = rules_by_key(mine_entailments(triples, min_conf=0.3, min_support=2))
        expected = oracle_mine(triples, min_conf=0.3, min_support=2)
        assert set(mined) == set(expected)
        for key, (support, body, confidence) in expected.items():
            rule = mined[key]
            assert rule.support == support
            assert rule.pca_body == body
            assert rule.entailment.confidence == confidence

    def test_output_is_sorted(self):
        rng = np.random.default_rng(22)
        triples = [
            Triple(int(h), int(r), int(t))
            for h, r, t in zip(
                rng.integers(0, 10, 120),
                rng.integers(0, 4, 120),
                rng.integers(0, 10, 120),
            )
        ]
        rules = mine_entailments(triples, min_conf=0.1, min_support=1)
        keys = [
            (r.entailment.premise_rel, r.entailment.premise_inverted, r.entailment.conclusion_rel)
            for r in rules
        ]
        assert keys == sorted(keys)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            mine_entailments([], min_conf=0.0)
        with pytest.raises(ValueError):
            mine_entailments([], min_conf=1.5)
        with pytest.raises(ValueError):
            mine_entailments([], min_conf=0.5, min_support=0)

    @pytest.mark.parametrize(
        "triple, message",
        [
            (Triple(-3, 0, 1), "negative entity id -3"),
            (Triple(0, 0, -2), "negative entity id -2"),
            (Triple(0, -1, 1), "negative relation id -1"),
        ],
    )
    def test_rejects_a_negative_id_naming_it(self, triple, message):
        train = [Triple(0, 0, 1), Triple(0, 1, 1), triple]
        with pytest.raises(ValueError, match=message):
            mine_entailments(train, min_conf=0.5, min_support=1)

    def test_rejects_ids_that_overflow_the_fact_keys(self):
        with pytest.raises(ValueError, match="overflow"):
            mine_entailments([Triple(2**31, 1, 0)], min_conf=0.5, min_support=1)

    def test_joins_expanded_in_many_slices_match_the_oracle(self, monkeypatch):
        # A one-match chunk gives every premise fact or key its own slice.
        monkeypatch.setattr(mining, "_JOIN_CHUNK", 1)
        rng = np.random.default_rng(23)
        ids = zip(rng.integers(0, 6, 150), rng.integers(0, 2, 150), rng.integers(0, 6, 150))
        triples = [Triple(int(h), int(r), int(t)) for h, r, t in ids]
        mined = rules_by_key(mine_entailments(triples, min_conf=0.1, min_support=1))
        expected = oracle_mine(triples, min_conf=0.1, min_support=1)
        assert expected
        assert {k: (r.support, r.pca_body, r.entailment.confidence) for k, r in mined.items()} == expected


# Relation ids with gaps: 1, 3, 4, 6 and 7 never occur, and a drawn split may
# miss any of the others too.
_RELATIONS = (0, 2, 5, 8)


@st.composite
def _splits(draw):
    """Triples over 6 entities, with duplicates, self-loops and symmetric relations."""
    raw = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from(_RELATIONS), st.integers(0, 5)),
            max_size=40,
        )
    )
    symmetric = draw(st.sets(st.sampled_from(_RELATIONS)))
    raw += [(t, r, h) for h, r, t in raw if r in symmetric]
    raw += draw(st.lists(st.sampled_from(raw), max_size=5)) if raw else []
    return [Triple(*t) for t in draw(st.permutations(raw))]


class TestMineMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(train=_splits(), min_support=st.integers(1, 3), data=st.data())
    @example(train=[], min_support=1, data=None)
    @example(
        # A self-loop on a symmetric relation, a duplicate, and r8 -> r0 at
        # confidence exactly 0.5 (support 1, body 2).
        train=[Triple(2, 5, 2), Triple(2, 5, 2), Triple(0, 0, 1), Triple(1, 0, 0),
               Triple(0, 8, 1), Triple(0, 8, 3)],
        min_support=1,
        data=None,
    )
    def test_rules_and_field_types_equal_the_oracle(self, train, min_support, data):
        # min_conf is, where possible, exactly the confidence of some candidate,
        # so the strict threshold is exercised at equality.
        candidates = oracle_mine(train, min_conf=1e-9, min_support=min_support)
        confidences = sorted({conf for _, _, conf in candidates.values()})
        if data is None:
            min_conf = 0.5
        elif confidences:
            min_conf = data.draw(st.sampled_from(confidences), label="min_conf")
        else:
            min_conf = data.draw(st.floats(0.01, 1.0), label="min_conf")
        mined = mine_entailments(train, min_conf=min_conf, min_support=min_support)
        expected = oracle_mine(train, min_conf=min_conf, min_support=min_support)

        found = [
            (k, (r.support, r.pca_body, r.entailment.confidence)) for k, r in rules_by_key(mined).items()
        ]
        assert len(found) == len(mined)
        # Equal, and in (premise, direction, conclusion) order.
        assert found == sorted(expected.items())
        for rule in mined:
            ent = rule.entailment
            assert type(rule.support) is int and type(rule.pca_body) is int
            assert type(ent.confidence) is float
            assert type(ent.premise_inverted) is bool
            assert type(ent.premise_rel) is int and type(ent.conclusion_rel) is int


def classify_pairs(rules, thresh):
    """pair_residuals' rows by class: (p, q) for the pairs, the others as rules."""
    kinds, rows, _ = pair_residuals(np.zeros((2, 1), complex), rules, thresh)
    classes = SimpleNamespace(equivalence=[], inversion=[], others=[])
    fields = zip(kinds.tolist(), rows.premise.tolist(), rows.inverted.tolist(),
                 rows.conclusion.tolist(), rows.confidence.tolist())
    for kind, p, inverted, q, conf in fields:
        row = Entailment(p, inverted, q, conf) if kind == "others" else (p, q)
        getattr(classes, kind).append(row)
    return classes


class TestClassifyPairs:
    def rule(self, p, inverted, q, conf):
        return Entailment(p, inverted, q, conf)

    def test_equivalence_pair(self):
        classes = classify_pairs(
            [self.rule(0, False, 1, 0.9), self.rule(1, False, 0, 0.85)], thresh=0.8
        )
        assert classes.equivalence == [(0, 1)]
        assert classes.inversion == []
        assert classes.others == []

    def test_inversion_pair(self):
        classes = classify_pairs(
            [self.rule(0, True, 1, 0.95), self.rule(1, True, 0, 0.9)], thresh=0.8
        )
        assert classes.inversion == [(0, 1)]
        assert classes.equivalence == []
        assert classes.others == []

    def test_one_directional_rule_is_others(self):
        classes = classify_pairs([self.rule(0, False, 1, 0.9)], thresh=0.8)
        assert classes.equivalence == []
        assert classes.others == [Entailment(0, False, 1, 0.9)]

    def test_low_confidence_does_not_pair(self):
        classes = classify_pairs(
            [self.rule(0, False, 1, 0.9), self.rule(1, False, 0, 0.5)], thresh=0.8
        )
        assert classes.equivalence == []
        assert len(classes.others) == 2

    def test_symmetric_relation_is_its_own_inverse(self):
        classes = classify_pairs([self.rule(0, True, 0, 0.9)], thresh=0.8)
        assert classes.inversion == [(0, 0)]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            classify_pairs([], thresh=1.0)


class TestWriteRules:
    def test_tsv_round_trips_through_loader(self, tmp_path):
        vocab = make_vocab(0, 3)
        rules = [
            MinedRule(Entailment(0, True, 1, 1.0), 12, 12),
            MinedRule(Entailment(2, False, 0, 0.875), 7, 8),
        ]
        rules_path = tmp_path / "rules.tsv"
        diag_path = tmp_path / "rules.diagnostics.csv"
        write_rules(rules, vocab, rules_path, diag_path)
        assert rules_path.read_text().splitlines()[0] == "r0^-1\tr1\t1.000000"
        loaded = load_entailments(rules_path, vocab)
        assert loaded == [r.entailment for r in rules]
        diag_lines = diag_path.read_text().splitlines()
        assert diag_lines[0].startswith("premise,")
        assert "12,12" in diag_lines[1]
