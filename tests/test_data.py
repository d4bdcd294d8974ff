"""Tests for dataset loading, vocabularies, entailments, and the known-triple index."""

import contextlib
import gc
import itertools
import json
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgec.analysis import load_type_labels
from kgec.data import (
    Dataset,
    Entailment,
    IdMap,
    KnownIndex,
    Triple,
    Vocab,
    VocabularyError,
    build_known_index,
    load_dataset,
    load_entailments,
    load_triples,
    read_json,
    read_lines,
    triple_array,
    write_entailments,
)
from kgec.trainer import parse_config

from conftest import id_map, make_vocab, names_of, random_dataset, wn18_train_path, write_triples
from oracles import oracle_load_triples, oracle_read_lines


def _load_triples_and_names(path):
    """``load_triples`` with the vocabulary as its name lists, which compare by value."""
    triples, vocab = load_triples(path)
    return triples, names_of(vocab.entities), names_of(vocab.relations)


# Each TSV reader with one valid line of its format and its field count.
TSV_READERS = [
    (_load_triples_and_names, "a\tp\tb", 3),
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
        with pytest.raises(ValueError, match="1"):
            load_triples(path)
        for read, _, n_fields in TSV_READERS:
            path.write_text("a\tp\tb\tc\n")
            with pytest.raises(ValueError, match=_field_count_error(path, 1, n_fields, 4)):
                read(path)

    def test_malformed_line_later_in_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tp\tb\nx\ty\n")
        with pytest.raises(ValueError, match="2"):
            load_triples(path)
        # Blank lines are skipped but still counted, with either terminator.
        for read, line, n_fields in TSV_READERS:
            for eol in ("\n", "\r\n"):
                path.write_text(f"{line}{eol}{eol}x{eol}")
                with pytest.raises(ValueError, match=_field_count_error(path, 3, n_fields, 1)):
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
        vocab = Vocab(id_map("a"), id_map("p"))
        with pytest.raises(VocabularyError, match="zzz"):
            load_triples(path, vocab, grow=False)

    def test_names_are_opaque(self, tmp_path):
        # Leading/trailing spaces inside a field are part of the name.
        path = tmp_path / "t.tsv"
        path.write_text(" a \tp\tb\n")
        triples, vocab = load_triples(path)
        assert vocab.entities.name(triples[0][0]) == " a "
        # Only the LF or CRLF terminator is removed; a lone CR ends no line.
        path.write_text(" a \tp\t b \r\n a \tp\tb\rc\n")
        triples, vocab = load_triples(path)
        assert [vocab.entities.name(t[2]) for t in triples] == [" b ", "b\rc"]
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


def _outcome(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def _load_outcome(load, path, vocab, grow):
    """The rows or error of ``load``, with the vocabulary it leaves behind."""
    return _outcome(lambda: load(path, vocab, grow)[0]), names_of(vocab.entities), names_of(vocab.relations)


class TestOnePassRead:
    """The file is decoded in one pass, but rows, vocabulary order and every
    error come out as a reader that decodes one line at a time gives them."""

    def test_unknown_name_before_a_bad_byte_raises_the_vocabulary_error(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"a\tp\tb\na\tp\tzzz\nx\xff\tp\tb\n")
        vocab = Vocab(id_map("a", "b"), id_map("p"))
        with pytest.raises(VocabularyError) as info:
            load_triples(path, vocab, grow=False)
        assert str(info.value) == f"{path}:2: unknown name: 'zzz'"

    def test_truncated_character_at_the_end_names_the_last_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"a\tp\tb\nc\tp\td\xc3")
        message = f"{path}:2: 'utf-8' codec can't decode byte 0xc3 in position 5: unexpected end of data"
        for read in (lambda: list(read_lines(path)), lambda: load_triples(path)):
            with pytest.raises(ValueError) as info:
                read()
            assert str(info.value) == message

    def test_one_cr_goes_with_each_lf_and_with_a_last_line_without_one(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"a\r\nb\r\r\nc\rd\ne\r")
        assert list(read_lines(path)) == [(1, "a"), (2, "b\r"), (3, "c\rd"), (4, "e")]
        path.write_bytes(b"a\n\r")
        assert list(read_lines(path)) == [(1, "a"), (2, "")]

    def test_one_byte_order_mark_at_the_start_is_dropped(self, tmp_path):
        # Kept, it would make "\ufeffa" an entity of its own beside "a".
        bom = b"\xef\xbb\xbf"
        path = tmp_path / "train.txt"
        path.write_bytes(bom + b"a\tp\tb\na\tp\tc\n")
        triples, vocab = load_triples(path)
        assert triples == [(0, 0, 1), (0, 0, 2)] and names_of(vocab.entities) == ["a", "b", "c"]
        # Only one, only at the start of the file, on the line-by-line path too.
        path.write_bytes(bom + bom + b"a\n" + bom + b"b\n")
        assert list(read_lines(path)) == [(1, "\ufeffa"), (2, "\ufeffb")]
        path.write_bytes(bom + b"a\n\xff\n")
        read = []
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
            read.extend(read_lines(path))
        assert read == [(1, "a")]

    def test_a_file_of_newlines_is_blank_lines_and_no_rows(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"\n\n\n")
        assert list(read_lines(path)) == [(1, ""), (2, ""), (3, "")]
        triples, vocab = load_triples(path)
        assert triples == [] and len(vocab.entities) == len(vocab.relations) == 0

    @pytest.mark.parametrize(
        "text,unknown",
        [("x\tq\ty\n", "x"), ("a\tq\ty\n", "q"), ("a\tp\ty\n", "y"), ("a\tp\tb\nb\tp\ta\ny\tq\ta\n", "y")],
    )
    def test_names_resolve_head_then_relation_then_tail(self, tmp_path, text, unknown):
        path = tmp_path / "t.tsv"
        path.write_text(text)
        vocab = Vocab(id_map("a", "b"), id_map("p"))
        last_line = text.count("\n")
        with pytest.raises(VocabularyError, match=re.escape(f"{path}:{last_line}: unknown name: {unknown!r}")):
            load_triples(path, vocab, grow=False)
        assert names_of(vocab.entities) == ["a", "b"] and names_of(vocab.relations) == ["p"]
        # Grown, the first unknown name takes the first new id of its map.
        _, vocab = load_triples(path, vocab)
        assert unknown in names_of(vocab.entities)[2:3] + names_of(vocab.relations)[1:2]

    @pytest.mark.parametrize("bad", [b"y\tq\n", b"y\xff\tq\tz\n"], ids=["fields", "utf-8"])
    def test_a_grown_load_failing_part_way_keeps_the_names_read_before(self, tmp_path, bad):
        # The maps hold the names of the lines before the bad one, in id
        # order, and a later load goes on from there.
        path = tmp_path / "t.tsv"
        path.write_bytes(b"a\tp\tx\nw\tq\tb\n" + bad + b"v\tr\tu\n")
        vocab = Vocab(id_map("a", "b"), id_map("p"))
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
            load_triples(path, vocab)
        assert names_of(vocab.entities) == ["a", "b", "x", "w"] and names_of(vocab.relations) == ["p", "q"]
        path.write_bytes(b"u\tr\tx\n")
        assert load_triples(path, vocab)[0] == [(4, 2, 2)]
        assert names_of(vocab.entities) == ["a", "b", "x", "w", "u"] and names_of(vocab.relations) == ["p", "q", "r"]

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.sampled_from([
                b"a", b"b", b"x", b"p", b"q", b" ", b"\t", b"\t", b"\r", b"\n", b"\n", b"\xff", b"\xc3", b"\xc3\xa9",
                b"\xef\xbb\xbf",  # a byte-order mark
            ]),
            max_size=40,
        ),
        st.booleans(),
    )
    def test_matches_the_line_by_line_reader(self, tmp_path, tokens, grow):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"".join(tokens))
        assert _outcome(lambda: list(read_lines(path))) == _outcome(lambda: list(oracle_read_lines(path)))
        new, old = (Vocab(id_map("a", "b"), id_map("p")) for _ in range(2))
        assert _load_outcome(load_triples, path, new, grow) == _load_outcome(oracle_load_triples, path, old, grow)


class TestReadJson:
    @pytest.mark.parametrize("text, key", [
        ('{"d": [4], "d": [8]}', "d"),
        ('{"a": 1, "b": 1, "b": 2, "a": 2}', "b"),
        ('{"grid": {"mu": [1], "eta": [2], "mu": [3]}}', "mu"),
        ('[{"x": 1}, {"y": null, "y": null}]', "y"),
    ], ids=["top-level", "first-key-seen-twice", "nested", "in-a-list"])
    def test_a_repeated_key_in_any_object_raises_naming_the_file(self, tmp_path, text, key):
        path = tmp_path / "grid.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_json(path)
        assert str(info.value) == f"{path}: invalid JSON: repeated key {key!r}"

    def test_objects_without_a_repeated_key_read_as_json_loads_reads_them(self, tmp_path):
        text = '{"b": [1, {"a": null, "c": 2.5}], "a": {"": true}, "B": "b"}'
        path = tmp_path / "state.json"
        path.write_text(text)
        assert read_json(path) == json.loads(text)
        assert list(read_json(path)) == ["b", "a", "B"]

    # JSON inputs are text inputs (read_lines): one byte-order mark is
    # dropped, CRLF reads as LF, and a bad byte is named by its line.
    def test_a_byte_order_mark_is_dropped(self, tmp_path):
        text = '{\n  "d": [4, 8],\n  "lr": [0.5]\n}\n'
        path = tmp_path / "grid.json"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert read_json(path) == json.loads(text)

    def test_a_crlf_file_reads_as_its_lf_form(self, tmp_path):
        # Malformed too: the error counts the characters of the LF form.
        path = tmp_path / "grid.json"
        valid, malformed = '{\n  "a": {"b": [1, 2.5]},\n  "c": "x y"\n}\n', '{\n  "a": 1,\n  "b": 2\n  "c": 3\n}\n'
        outcomes = []
        for text in (valid, malformed):
            for newline in ("\r\n", "\n"):
                path.write_bytes(text.replace("\n", newline).encode())
                outcomes.append(_outcome(lambda: read_json(path)))
        error = (ValueError, f"{path}: invalid JSON: Expecting ',' delimiter: line 4 column 3 (char 23)")
        assert outcomes == [json.loads(valid)] * 2 + [error] * 2

    def test_a_bad_byte_is_named_by_its_line(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_bytes(b'{\n  "a": 1,\n  "b\xff": 2\n}\n')
        with pytest.raises(ValueError) as info:
            read_json(path)
        assert str(info.value) == f"{path}:3: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"


class TestVocab:
    def test_dump_and_load_round_trip(self, tmp_path):
        vocab = make_vocab(5, 3)
        vocab.entities.save(tmp_path / "ent.txt")
        vocab.relations.save(tmp_path / "rel.txt")
        assert names_of(IdMap.load(tmp_path / "ent.txt")) == names_of(vocab.entities)
        assert names_of(IdMap.load(tmp_path / "rel.txt")) == names_of(vocab.relations)
        assert (tmp_path / "ent.txt").read_text().splitlines()[2] == "e2"
        # Names are opaque: empty, padded, or holding a lone CR, also at the
        # end, where the line ends in CRLF so that the reader strips only that.
        names = ["", " a ", "b\rc", "b\r", "b"]
        id_map(*names).save(tmp_path / "ent.txt")
        assert (tmp_path / "ent.txt").read_bytes() == b"\n a \nb\rc\nb\r\r\nb\n"
        assert names_of(IdMap.load(tmp_path / "ent.txt")) == names
        # A first name starting with U+FEFF gets one more, which the reader drops.
        names = ["\ufeffa", "\ufeff", "b"]
        id_map(*names).save(tmp_path / "ent.txt")
        assert (tmp_path / "ent.txt").read_bytes() == b"\xef\xbb\xbf\xef\xbb\xbfa\n\xef\xbb\xbf\nb\n"
        assert names_of(IdMap.load(tmp_path / "ent.txt")) == names

    def test_repeated_name_in_a_dump_fails_naming_the_line(self, tmp_path):
        # A repeat would shift the id of every later name by one.
        ent, rel = tmp_path / "ent.txt", tmp_path / "rel.txt"
        ent.write_text("a\nb\na\nc\n")
        with pytest.raises(ValueError, match=re.escape(f"{ent}:3: name 'a' repeats line 1")):
            IdMap.load(ent)
        rel.write_text("\nr\n\n")
        with pytest.raises(ValueError, match=re.escape(f"{rel}:3: name '' repeats line 1")):
            IdMap.load(rel)

    @pytest.mark.parametrize("names, cut, last", [(["p0", "q1"], 1, 2), (["p0", "q1"], 2, 2),
                                                  (["p0", "q\r"], 1, 2), (["p0"], 1, 1)],
                             ids=["lf", "inside-a-name", "crlf-lf", "one-name"])
    def test_a_dump_cut_inside_a_line_fails_naming_its_last_line(self, tmp_path, names, cut, last):
        # kgec ends every line of a dump, so a dump without a final LF was cut,
        # and reading it would shorten its last name ("q1" to "q").
        path = tmp_path / "rel.txt"
        id_map(*names).save(path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=re.escape(f"{path}:{last}: the file ends inside this line")):
            IdMap.load(path)
        # Users write splits, rules, types and configs, which may end without a break.
        for read, line, _ in TSV_READERS:
            path.write_text(line)
            read(path)
        path.write_text("d = 4")
        assert parse_config(path).d == 4

    def test_ids_dense_and_stable(self, tmp_path):
        # Ids are dense in first-seen order; names read before a map grows
        # keep their ids, and the new names follow them.
        path = tmp_path / "t.tsv"
        path.write_text("x\tp\ty\ny\tp\tx\n")
        triples, vocab = load_triples(path)
        assert triples == [(0, 0, 1), (1, 0, 0)]
        assert names_of(vocab.entities) == ["x", "y"]
        path.write_text("z\tq\tx\n")
        assert load_triples(path, vocab)[0] == [(2, 1, 0)]
        assert names_of(vocab.entities) == ["x", "y", "z"] and names_of(vocab.relations) == ["p", "q"]


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

    @pytest.mark.parametrize("shared", [None, ("train", "valid"), ("train", "test"), ("valid", "test")])
    def test_warns_only_when_two_splits_share_a_triple(self, tmp_path, caplog, shared):
        lines = {"train": "a\tp\tb\n", "valid": "b\tp\ta\n", "test": "a\tp\ta\n"}
        if shared:
            lines[shared[1]] += lines[shared[0]]
        for name, text in lines.items():
            (tmp_path / f"{name}.txt").write_text(text)
        with caplog.at_level(logging.WARNING):
            load_dataset(tmp_path)
        assert caplog.messages == (["dataset splits are not pairwise disjoint"] if shared else [])

    def test_a_triple_repeated_within_one_split_is_no_overlap(self, tmp_path, caplog):
        for name, line in (("train", "a\tp\tb\n"), ("valid", "b\tp\ta\n"), ("test", "a\tp\ta\n")):
            (tmp_path / f"{name}.txt").write_text(line * 3)
        with caplog.at_level(logging.WARNING):
            dataset = load_dataset(tmp_path)
        assert caplog.messages == []
        assert len(dataset.train) == len(dataset.valid) == len(dataset.test) == 3


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestTripleArray:
    def test_sequence_becomes_an_int64_id_array(self):
        arr = triple_array([Triple(0, 1, 2), Triple(3, 4, 5)])
        assert arr.dtype == np.int64
        assert arr.tolist() == [[0, 1, 2], [3, 4, 5]]

    def test_empty_sequence_has_three_columns(self):
        assert triple_array([]).shape == (0, 3)

    def test_int64_array_passes_through(self):
        arr = np.array([[0, 1, 2]], dtype=np.int64)
        assert triple_array(arr) is arr
        assert triple_array(arr.astype(np.int32)).dtype == np.int64

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (1, 3, 1)])
    def test_array_of_another_shape_fails(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            triple_array(np.zeros(shape, dtype=np.int64))


class TestCollectorPause:
    """A load leaves the cyclic collector on or paused as it found it, and
    its rows are plain int tuples, which the collector stops tracking."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize(
        "text,error",
        [
            ("a\tp\tb\na\tp\tc\n", None),
            ("a\tp\tb\nx\ty\na\tp\tc\n", ValueError),
            ("a\tp\tb\na\tp\tzzz\na\tp\tc\n", VocabularyError),
        ],
        ids=["loads", "parse-error", "vocabulary-error"],
    )
    def test_load_leaves_the_collector_as_it_found_it(self, tmp_path, restore_gc, enabled, text, error):
        path = tmp_path / "t.tsv"
        path.write_text(text)
        vocab = Vocab(id_map("a", "b", "c"), id_map("p"))
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(error) if error else contextlib.nullcontext():
            load_triples(path, vocab, grow=False)
        assert gc.isenabled() is enabled

    def test_loaded_rows_are_untracked_and_start_no_full_collection(self, tmp_path, restore_gc):
        generated = random_dataset(2_000, 10, 20_000, 1_000, 1_000, seed=3)
        for name in ("train", "valid", "test"):
            write_triples(tmp_path / f"{name}.txt", getattr(generated, name), generated.vocab)
        gc.enable()
        gc.collect()  # every generation's count starts at zero
        held = load_dataset(tmp_path)
        gc.collect(0)  # a young collection untracks every tuple of ints it scans
        splits = (held.train, held.valid, held.test)
        assert sum(gc.is_tracked(row) for split in splits for row in split) == 0

        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.callbacks.append(count)
        try:
            dataset = load_dataset(tmp_path)
            build_known_index(dataset)
        finally:
            gc.callbacks.remove(count)
        # Untracked rows never reach the old generation, so loading a second
        # copy beside the first makes no full collection rescan both.
        assert starts and 2 not in starts, f"generations collected: {starts}"
        assert (dataset.train, dataset.valid, dataset.test) == splits
        assert names_of(dataset.vocab.entities) == names_of(held.vocab.entities)
        assert names_of(dataset.vocab.relations) == names_of(held.vocab.relations)


class TestEntailments:
    def test_inverted_premise(self, tmp_path):
        vocab = Vocab(relations=id_map("hypernym", "hyponym"))
        path = tmp_path / "ents.tsv"
        path.write_text("hypernym^-1\thyponym\t1.00\n")
        ents = load_entailments(path, vocab)
        assert ents == [Entailment(0, True, 1, 1.0)]

    def test_plain_premise(self, tmp_path):
        vocab = Vocab(relations=id_map("owner", "owning_company"))
        path = tmp_path / "ents.tsv"
        path.write_text("owner\towning_company\t0.95\n")
        ents = load_entailments(path, vocab)
        assert ents == [Entailment(0, False, 1, 0.95)]

    def test_confidence_out_of_range(self, tmp_path):
        vocab = make_vocab(0, 2)
        path = tmp_path / "ents.tsv"
        path.write_text("r0\tr1\t1.5\n")
        with pytest.raises(ValueError):
            load_entailments(path, vocab)
        path.write_text("r0\tr1\t0\n")
        with pytest.raises(ValueError):
            load_entailments(path, vocab)

    def test_non_number_confidence_names_the_line(self, tmp_path):
        path = tmp_path / "ents.tsv"
        path.write_text("r0\tr1\t0.5\nr1\tr0\thigh\n")
        with pytest.raises(ValueError) as exc:
            load_entailments(path, make_vocab(0, 2))
        assert exc.type is ValueError
        assert str(exc.value) == f"{path}:2: confidence is not a number: 'high'"

    @pytest.mark.parametrize(
        "first, repeat",
        [("r0\tr1\t0.9", "r0\tr1\t0.9"), ("r0\tr1\t0.9", "r0\tr1\t0.5"), ("r1^-1\tr1\t0.9", "r1^-1\tr1\t1")],
        ids=["same-confidence", "other-confidence", "inverted"],
    )
    def test_a_repeated_rule_names_both_lines(self, tmp_path, first, repeat):
        # Two lines of one rule would weigh its penalty by the sum of their confidences.
        path = tmp_path / "ents.tsv"
        path.write_text(f"{first}\nr1\tr0\t0.9\n\n{repeat}\n")
        with pytest.raises(ValueError) as exc:
            load_entailments(path, make_vocab(0, 2))
        assert str(exc.value) == f"{path}:4: repeated rule: line 1 gives the same premise and conclusion"

    def test_rules_that_differ_only_in_sign_or_direction_are_no_repeat(self, tmp_path):
        path = tmp_path / "ents.tsv"
        path.write_text("r0\tr1\t0.9\nr0^-1\tr1\t0.9\nr1\tr0\t0.9\nr1^-1\tr0\t0.9\n")
        ents = load_entailments(path, make_vocab(0, 2))
        assert [(e.premise_rel, e.premise_inverted, e.conclusion_rel) for e in ents] == [
            (0, False, 1), (0, True, 1), (1, False, 0), (1, True, 0)
        ]

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

    @pytest.mark.parametrize("premise, inverted, conclusion", [(-1, False, 0), (0, True, -2)])
    def test_negative_relation_id_rejected(self, premise, inverted, conclusion):
        # pair_residuals and rule_deltas would read it as a row from the end.
        bad = min(premise, conclusion)
        with pytest.raises(ValueError, match=f"unknown relation: id {bad} is negative"):
            Entailment(premise, inverted, conclusion, 0.9)

    def test_write_read_round_trip(self, tmp_path):
        vocab = make_vocab(0, 3)
        ents = [Entailment(0, True, 1, 1.0), Entailment(2, False, 0, 0.85)]
        path = tmp_path / "ents.tsv"
        write_entailments(path, ents, vocab)
        assert load_entailments(path, vocab) == ents

    def test_every_written_rule_reads_back_equal(self, tmp_path):
        vocab = Vocab(relations=id_map("x", "x^-1", "y^-1^-1", "z"))
        path = tmp_path / "ents.tsv"
        for premise, inverted, conclusion in itertools.product(range(4), (False, True), range(4)):
            if premise == conclusion and not inverted:
                continue
            ent = Entailment(premise, inverted, conclusion, 0.5)
            name = vocab.relations.name(premise)
            if not inverted and name.endswith("^-1"):
                with pytest.raises(ValueError, match=re.escape(f"relation {name!r}")):
                    write_entailments(path, [ent], vocab)
                assert not path.exists()
                continue
            write_entailments(path, [ent], vocab)
            assert load_entailments(path, vocab) == [ent]
            path.unlink()


def split_ids(counts, ids) -> list[set[int]]:
    """The per-query id sets of a ``(counts, ids)`` lookup result."""
    assert counts.sum() == ids.size
    parts = np.split(ids, np.cumsum(counts)[:-1]) if len(counts) else []
    assert all(np.all(np.diff(part) > 0) for part in parts), "ids ascend within a query"
    return [set(part.tolist()) for part in parts]


def lookups(index, n, m) -> tuple[list[set[int]], list[set[int]]]:
    """Every heads(r, e) and tails(e, r) answer for e < n and r < m, batched."""
    e, r = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(m)))
    return split_ids(*index.heads(r, e)), split_ids(*index.tails(e, r))


def enumerated(universe, n, m) -> tuple[list[set[int]], list[set[int]]]:
    """What :func:`lookups` must return for the triple set ``universe``."""
    e, r = (a.ravel().tolist() for a in np.meshgrid(np.arange(n), np.arange(m)))
    heads = [{h for h in range(n) if (h, r_, e_) in universe} for e_, r_ in zip(e, r)]
    tails = [{t for t in range(n) if (e_, r_, t) in universe} for e_, r_ in zip(e, r)]
    return heads, tails


class TestKnownIndex:
    def test_membership_and_partial_queries(self):
        dataset = Dataset(
            train=[Triple(0, 0, 1)],
            valid=[],
            test=[Triple(2, 0, 1)],
            vocab=make_vocab(3, 1),
        )
        index = build_known_index(dataset)
        assert split_ids(*index.tails([0, 2, 1], [0, 0, 0])) == [{1}, {1}, set()]
        assert split_ids(*index.heads([0, 0], [1, 0])) == [{0, 2}, set()]

    def test_empty_dataset(self):
        index = build_known_index(Dataset([], [], [], make_vocab(0, 0)))
        for lookup in (index.heads, index.tails):
            counts, ids = lookup([0, 1], [0, 0])
            assert counts.tolist() == [0, 0] and ids.size == 0
            counts, ids = lookup([], [])
            assert counts.size == 0 and ids.size == 0

    def test_duplicates_collapse(self):
        index = KnownIndex([Triple(0, 0, 1), Triple(0, 0, 1)])
        assert split_ids(*index.tails([0], [0])) == [{1}]
        assert split_ids(*index.heads([0], [1])) == [{0}]

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
        heads, tails = lookups(index, 9, 4)
        assert sum(map(len, tails)) == sum(map(len, heads)) == len(universe)
        for h in range(9):
            for r in range(4):
                for t in range(9):
                    expected = Triple(h, r, t) in universe
                    assert (t in tails[r * 9 + h]) == expected
                    assert (h in heads[r * 9 + t]) == expected

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 2), st.integers(0, 6)),
            max_size=60,
        ),
        st.integers(0, 2),
        st.integers(0, 60),
    )
    def test_partial_queries_match_enumeration(self, raw, split_mod, n_repeated):
        # Some triples occur twice, in the same split or in two of them.
        triples = [Triple(*t) for t in raw + raw[:n_repeated]]
        splits = [[], [], []]
        for i, t in enumerate(triples):
            splits[(i + split_mod) % 3].append(t)
        index = build_known_index(Dataset(*splits, vocab=make_vocab(7, 3)))
        assert lookups(index, 7, 3) == enumerated(set(triples), 7, 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_batched_lookups_match_enumeration_on_random_splits(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 12, 4
        rows = rng.integers(0, [n, m, n], size=(150, 3))
        rows = np.concatenate([rows, rows[rng.integers(0, 150, size=40)]])  # repeats
        rng.shuffle(rows)
        triples = [Triple(*map(int, row)) for row in rows]
        index = build_known_index(Dataset(triples[:120], triples[120:150], triples[150:], make_vocab(n, m)))
        assert lookups(index, n, m) == enumerated(set(triples), n, m)
        # One batch of random queries, some repeated, in any order.
        e, r = rng.integers(0, n, size=300), rng.integers(0, m, size=300)
        tails = split_ids(*index.tails(e, r))
        heads = split_ids(*index.heads(r, e))
        universe = set(triples)
        for i in range(300):
            assert tails[i] == {t for t in range(n) if (e[i], r[i], t) in universe}
            assert heads[i] == {h for h in range(n) if (h, r[i], e[i]) in universe}

    def test_generator_input_equals_list_and_array_input(self):
        triples = [Triple(0, 1, 2), Triple(2, 0, 0), Triple(0, 1, 2), Triple(1, 1, 1)]
        from_list = lookups(KnownIndex(triples), 3, 2)
        assert lookups(KnownIndex(t for t in triples), 3, 2) == from_list
        assert lookups(KnownIndex(np.array(triples)), 3, 2) == from_list
        assert from_list == enumerated(set(triples), 3, 2)
        assert lookups(KnownIndex(iter([])), 3, 2) == enumerated(set(), 3, 2)

    def test_query_ids_at_the_edges_and_beyond_the_range(self):
        # Ids span 0..4 (entities) and 0..2 (relations); the corner triples
        # make every neighbour of an out-of-range key a stored one.
        triples = [Triple(0, 0, 0), Triple(4, 2, 4), Triple(0, 2, 4), Triple(4, 0, 0), Triple(1, 1, 3)]
        index = KnownIndex(triples)
        assert split_ids(*index.tails([0, 4, 0, 4], [0, 2, 2, 0])) == [{0}, {4}, {4}, {0}]
        assert split_ids(*index.heads([0, 2, 2, 0], [0, 4, 4, 0])) == [{0, 4}, {4, 0}, {4, 0}, {0, 4}]
        # Beyond the range: an entity 5, a relation 3, and negative ids would
        # alias a stored key if they were folded into the composite key.
        beyond = ([5, 0, -1, 0, 1, 2**40], [0, 3, 1, -1, 3, 0])
        for lookup in (index.tails, lambda e, r: index.heads(r, e)):
            counts, ids = lookup(*beyond)
            assert counts.tolist() == [0] * 6 and ids.size == 0

    @pytest.mark.parametrize("triple", [Triple(-1, 0, 0), Triple(0, -1, 0), Triple(0, 0, -1)])
    def test_rejects_negative_ids(self, triple):
        with pytest.raises(ValueError, match="non-negative"):
            KnownIndex([Triple(1, 1, 1), triple])

    def test_splits_with_different_id_ranges(self):
        # Train uses entities 0..3 and relation 0; test reaches entity 9 and
        # relation 2, so only the union fixes the key strides.
        train = [Triple(0, 0, 1), Triple(2, 0, 3)]
        valid = [Triple(3, 1, 0)]
        test = [Triple(9, 2, 0), Triple(0, 2, 9), Triple(5, 1, 5)]
        index = build_known_index(Dataset(train, valid, test, make_vocab(10, 3)))
        assert lookups(index, 10, 3) == enumerated(set(train + valid + test), 10, 3)
        only_train = KnownIndex(train)
        assert lookups(only_train, 10, 3) == enumerated(set(train), 10, 3)

    def test_a_150k_triple_index_holds_under_16_mb(self):
        rng = np.random.default_rng(0)
        n, m = 40_943, 18
        rows = np.stack([rng.integers(0, n, 150_000), rng.integers(0, m, 150_000), rng.integers(0, n, 150_000)], 1)
        tracemalloc.start()
        try:
            index = KnownIndex(rows)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 16 * 2**20, f"the index holds {held / 2**20:.1f} MB"
        counts, _ = index.tails(rows[:100, 0], rows[:100, 1])
        assert (counts >= 1).all()


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
