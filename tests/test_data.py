"""Tests for dataset loading, vocabularies, entailments, and the known-triple index."""

import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgec.analysis import load_type_labels
from kgec.data import (
    Dataset,
    Entailment,
    IdMap,
    KnownIndex,
    ParseError,
    RangeError,
    Triple,
    Vocab,
    VocabularyError,
    build_known_index,
    load_dataset,
    load_entailments,
    load_triples,
    write_entailments,
    write_triples,
)

from conftest import make_vocab, wn18_train_path

# Each TSV reader with one valid line of its format and its field count.
TSV_READERS = [
    (load_triples, "a\tp\tb", 3),
    (lambda path: load_entailments(path, make_vocab(0, 2)), "r0\tr1\t0.5", 3),
    (lambda path: load_type_labels(path, make_vocab(1, 0)), "e0\tT0", 2),
]


def _field_count_error(path, lineno, expected, got):
    return re.escape(f"{path}:{lineno}: expected {expected} tab-separated fields, got {got}")


class TestLoadTriples:
    def test_first_seen_ordering(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tp\tb\n")
        triples, vocab = load_triples(path)
        assert triples == [Triple(0, 0, 1)]
        assert vocab.entities.id("a") == 0
        assert vocab.entities.id("b") == 1
        assert vocab.relations.id("p") == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("")
        vocab = make_vocab(2, 1)
        triples, vocab_out = load_triples(path, vocab)
        assert triples == []
        assert vocab_out is vocab
        assert len(vocab.entities) == 2

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tp\n")
        with pytest.raises(ParseError, match="1"):
            load_triples(path)
        for read, _, n_fields in TSV_READERS:
            path.write_text("a\tp\tb\tc\n")
            with pytest.raises(ParseError, match=_field_count_error(path, 1, n_fields, 4)):
                read(path)

    def test_malformed_line_later_in_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tp\tb\nx\ty\n")
        with pytest.raises(ParseError, match="2"):
            load_triples(path)
        # Blank lines are skipped but still counted, with either terminator.
        for read, line, n_fields in TSV_READERS:
            for eol in ("\n", "\r\n"):
                path.write_text(f"{line}{eol}{eol}x{eol}")
                with pytest.raises(ParseError, match=_field_count_error(path, 3, n_fields, 1)):
                    read(path)
        # A byte that is not UTF-8 names its file and line, also in a vocabulary dump.
        not_utf8 = re.escape(f"{path}:2: 'utf-8' codec can't decode byte 0xff")
        for read, line, _ in TSV_READERS + [(IdMap.load, "a", 1)]:
            path.write_bytes(line.encode() + b"\nx\xff\n")
            with pytest.raises(ValueError, match=not_utf8):
                read(path)

    def test_grow_false_rejects_unseen_name(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tp\tzzz\n")
        vocab = Vocab()
        vocab.entities.add("a")
        vocab.relations.add("p")
        with pytest.raises(VocabularyError, match="zzz"):
            load_triples(path, vocab, grow=False)

    def test_names_are_opaque(self, tmp_path):
        # Leading/trailing spaces inside a field are part of the name.
        path = tmp_path / "t.tsv"
        path.write_text(" a \tp\tb\n")
        triples, vocab = load_triples(path)
        assert vocab.entities.name(triples[0].head) == " a "
        # Only the LF or CRLF terminator is removed; a lone CR ends no line.
        path.write_text(" a \tp\t b \r\n a \tp\tb\rc\n")
        triples, vocab = load_triples(path)
        assert [vocab.entities.name(t.tail) for t in triples] == [" b ", "b\rc"]
        lf = tmp_path / "lf.tsv"
        for read, line, _ in TSV_READERS:
            lf.write_text(f"{line}\n")
            path.write_text(f"\r\n\n{line}\r\n\r\n")
            assert read(path) == read(lf)

    def test_round_trip_preserves_ids(self, tmp_path):
        rng = np.random.default_rng(0)
        vocab = make_vocab(20, 4)
        triples = [
            Triple(int(rng.integers(20)), int(rng.integers(4)), int(rng.integers(20)))
            for _ in range(50)
        ]
        path = tmp_path / "out.tsv"
        write_triples(path, triples, vocab)
        reloaded, _ = load_triples(path, vocab, grow=False)
        assert reloaded == triples

    def test_duplicates_are_kept(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tp\tb\na\tp\tb\n")
        triples, _ = load_triples(path)
        assert len(triples) == 2


class TestVocab:
    def test_dump_and_load_round_trip(self, tmp_path):
        vocab = make_vocab(5, 3)
        vocab.dump(tmp_path / "ent.txt", tmp_path / "rel.txt")
        reloaded = Vocab.load(tmp_path / "ent.txt", tmp_path / "rel.txt")
        assert reloaded.entities == vocab.entities
        assert reloaded.relations == vocab.relations
        assert (tmp_path / "ent.txt").read_text().splitlines()[2] == "e2"
        # Names are opaque: empty, padded, or holding a lone CR.
        vocab = Vocab(IdMap(["", " a ", "b\rc"]), IdMap(["r"]))
        vocab.dump(tmp_path / "ent.txt", tmp_path / "rel.txt")
        reloaded = Vocab.load(tmp_path / "ent.txt", tmp_path / "rel.txt")
        assert list(reloaded.entities) == ["", " a ", "b\rc"]

    def test_repeated_name_in_a_dump_fails_naming_the_line(self, tmp_path):
        # A repeat would shift the id of every later name by one.
        ent, rel = tmp_path / "ent.txt", tmp_path / "rel.txt"
        ent.write_text("a\nb\na\nc\n")
        rel.write_text("r\n")
        with pytest.raises(ValueError, match=re.escape(f"{ent}:3: name 'a' repeats line 1")):
            Vocab.load(ent, rel)
        rel.write_text("\nr\n\n")
        with pytest.raises(ValueError, match=re.escape(f"{rel}:3: name '' repeats line 1")):
            IdMap.load(rel)

    def test_ids_dense_and_stable(self):
        vocab = Vocab()
        ids = [vocab.entities.add(name) for name in ("x", "y", "x", "z")]
        assert ids == [0, 1, 0, 2]


class TestLoadDataset:
    def test_warns_on_names_missing_from_train(self, tmp_path, caplog):
        (tmp_path / "train.txt").write_text("a\tp\tb\n")
        (tmp_path / "valid.txt").write_text("a\tp\tc\n")
        (tmp_path / "test.txt").write_text("a\tq\tb\n")
        with caplog.at_level(logging.WARNING):
            dataset = load_dataset(tmp_path)
        assert dataset.n_entities == 3
        assert dataset.n_relations == 2
        text = caplog.text
        assert "'c'" in text
        assert "'q'" in text

    def test_missing_split_gives_empty(self, tmp_path, caplog):
        (tmp_path / "train.txt").write_text("a\tp\tb\n")
        with caplog.at_level(logging.WARNING):
            dataset = load_dataset(tmp_path)
        assert dataset.valid == [] and dataset.test == []


class TestEntailments:
    def test_inverted_premise(self, tmp_path):
        vocab = Vocab()
        vocab.relations.add("hypernym")
        vocab.relations.add("hyponym")
        path = tmp_path / "ents.tsv"
        path.write_text("hypernym^-1\thyponym\t1.00\n")
        ents = load_entailments(path, vocab)
        assert ents == [Entailment(0, True, 1, 1.0)]

    def test_plain_premise(self, tmp_path):
        vocab = Vocab()
        vocab.relations.add("owner")
        vocab.relations.add("owning_company")
        path = tmp_path / "ents.tsv"
        path.write_text("owner\towning_company\t0.95\n")
        ents = load_entailments(path, vocab)
        assert ents == [Entailment(0, False, 1, 0.95)]

    def test_confidence_out_of_range(self, tmp_path):
        vocab = make_vocab(0, 2)
        path = tmp_path / "ents.tsv"
        path.write_text("r0\tr1\t1.5\n")
        with pytest.raises(RangeError):
            load_entailments(path, vocab)
        path.write_text("r0\tr1\t0\n")
        with pytest.raises(RangeError):
            load_entailments(path, vocab)

    def test_unknown_relation(self, tmp_path):
        vocab = make_vocab(0, 1)
        path = tmp_path / "ents.tsv"
        path.write_text("r0\tnope\t0.9\n")
        with pytest.raises(VocabularyError, match="nope"):
            load_entailments(path, vocab)

    def test_identical_signed_relation_rejected(self):
        with pytest.raises(ValueError):
            Entailment(0, False, 0, 0.9)
        # Inverted self-premise is allowed (symmetric relations).
        Entailment(0, True, 0, 0.9)

    def test_write_read_round_trip(self, tmp_path):
        vocab = make_vocab(0, 3)
        ents = [Entailment(0, True, 1, 1.0), Entailment(2, False, 0, 0.85)]
        path = tmp_path / "ents.tsv"
        write_entailments(path, ents, vocab)
        assert load_entailments(path, vocab) == ents


class TestKnownIndex:
    def test_membership_and_partial_queries(self):
        dataset = Dataset(
            train=[Triple(0, 0, 1)],
            valid=[],
            test=[Triple(2, 0, 1)],
            vocab=make_vocab(3, 1),
        )
        index = build_known_index(dataset)
        assert (0, 0, 1) in index
        assert (2, 0, 1) in index
        assert (1, 0, 0) not in index
        assert index.heads(0, 1) == {0, 2}
        assert index.tails(0, 0) == {1}
        assert index.tails(1, 0) == set()

    def test_empty_dataset(self):
        index = build_known_index(Dataset([], [], [], make_vocab(0, 0)))
        assert len(index) == 0
        assert (0, 0, 0) not in index

    def test_duplicates_collapse(self):
        index = KnownIndex([Triple(0, 0, 1), Triple(0, 0, 1)])
        assert len(index) == 1

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 8), st.integers(0, 3), st.integers(0, 8)
            ),
            max_size=60,
        ),
        st.integers(0, 2),
    )
    def test_matches_brute_force_scan(self, raw, split_mod):
        triples = [Triple(*t) for t in raw]
        splits = [[], [], []]
        for i, t in enumerate(triples):
            splits[(i + split_mod) % 3].append(t)
        dataset = Dataset(*splits, vocab=make_vocab(9, 4))
        index = build_known_index(dataset)
        universe = set(triples)
        assert len(index) == len(universe)
        for h in range(9):
            for r in range(4):
                for t in range(9):
                    expected = Triple(h, r, t) in universe
                    assert ((h, r, t) in index) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 2), st.integers(0, 6)),
            max_size=40,
        )
    )
    def test_partial_queries_match_enumeration(self, raw):
        triples = [Triple(*t) for t in raw]
        index = KnownIndex(triples)
        universe = set(triples)
        for r in range(3):
            for t in range(7):
                expected = {h for h in range(7) if Triple(h, r, t) in universe}
                assert index.heads(r, t) == expected


@pytest.mark.skipif(
    wn18_train_path() is None,
    reason="WN18 not available; set KGEC_WN18_DIR to the dataset directory",
)
def test_wn18_split_counts():
    path = wn18_train_path()
    triples, vocab = load_triples(path)
    assert len(triples) == 141_442
    assert len(vocab.entities) <= 40_943
    assert len(vocab.relations) == 18


@pytest.mark.parametrize(
    "env,n_entities,n_relations,n_train",
    [
        ("KGEC_WN18_DIR", 40_943, 18, 141_442),
        ("KGEC_FB15K_DIR", 14_951, 1_345, 483_142),
        ("KGEC_DB100K_DIR", 99_604, 470, 597_572),
    ],
)
def test_benchmark_dataset_statistics(env, n_entities, n_relations, n_train):
    import os

    root = os.environ.get(env)
    if not root:
        pytest.skip(f"{env} not set")
    dataset = load_dataset(root)
    assert len(dataset.train) == n_train
    assert dataset.n_entities == n_entities
    assert dataset.n_relations == n_relations
