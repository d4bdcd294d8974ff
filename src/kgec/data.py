"""Triple datasets, vocabularies, entailment constraints, the membership
index used by the filtered evaluation protocol, and how kgec reads and writes
files: every output is replaced atomically through :func:`atomic_write`, CSV
outputs through :func:`write_csv`, text inputs through :func:`read_lines`,
JSON inputs through :func:`read_json`, and :func:`sha256_file` hashes a file.

File formats (all UTF-8, tab-separated):
  triples:      head<TAB>relation<TAB>tail, one per line
  entailments:  premise<TAB>conclusion<TAB>confidence, where the premise name
                may carry the suffix ``^-1`` to mark an inverted premise
  vocab dumps:  one name per line, the line number is the id

Loaded rows are plain ``(head, rel, tail)`` int tuples, not :class:`Triple`:
the cyclic garbage collector stops tracking an exact tuple of ints at its
first young collection, but tracks a tuple subclass for good, and 151k
tracked rows at WN18 shape made collection after collection rescan the load.
Reading the splits is most of set-up at that shape, so each file is decoded
in one pass and each name costs one dict lookup.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

logger = logging.getLogger(__name__)

_INVERSE_SUFFIX = "^-1"


class ParseError(ValueError):
    """A data file line does not match the expected format."""


class VocabularyError(ValueError):
    """A name cannot be resolved against a fixed vocabulary."""


class RangeError(ValueError):
    """A numeric field falls outside its allowed range."""


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kwargs):
    """Open ``<path>.tmp`` for writing, then fsync it and move it onto ``path``.

    If the body raises, the temp file is deleted and ``path`` keeps its old
    content, so a crash never leaves a truncated output behind.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Replace ``path`` atomically by a CSV file whose lines end in CRLF."""
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` for each line of a UTF-8 text file.

    Only the LF or CRLF terminator is removed; a lone CR stays in the line.
    One byte-order mark (U+FEFF) at the very start of the file is dropped.
    The file is read and decoded in one pass. A file that is not UTF-8 is
    decoded again line by line, so its lines up to the first bad one are
    yielded as before and that line raises ValueError naming the file and
    line, with the error of that line alone.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        lines = data.decode("utf-8").replace("\r\n", "\n").split("\n")
    except UnicodeDecodeError:
        for lineno, raw in enumerate(io.BytesIO(data), start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield lineno, line.removesuffix("\n").removesuffix("\r")
        return
    if lines[-1]:  # a last line with no LF loses one CR too
        lines[-1] = lines[-1].removesuffix("\r")
    else:  # the empty text after the final LF is no line
        lines.pop()
    yield from enumerate(lines, start=1)


def _unique_keys(pairs: list) -> dict:
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):  # json.load would keep the last value
        raise ValueError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return dict(pairs)


def read_json(path: str | Path):
    """Parse a JSON file; a malformed one raises ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_tsv(path: str | Path, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each non-blank line of a TSV file.

    Only the line terminator (LF or CRLF) is removed, so fields keep any
    other whitespace. A line with another number of fields raises
    :class:`ParseError` naming the file and line.
    """
    for lineno, line in read_lines(path):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise ParseError(
                f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                f"got {len(fields)}"
            )
        yield lineno, fields


def write_tsv(path: str | Path, rows: Iterable[Sequence[str]]) -> None:
    """Replace ``path`` atomically by one tab-joined line per row.

    A line ends in LF, or in CRLF when its last field ends in CR: a reader
    removes one CR before each LF (:func:`read_tsv`), so the field reads back
    whole. For the same reason a first line that starts with U+FEFF gets one
    more in front, since a reader drops one at the start of a file.
    """
    lines = (line + ("\r\n" if line.endswith("\r") else "\n") for line in map("\t".join, rows))
    with atomic_write(path, encoding="utf-8") as fh:
        first = next(lines, "")
        fh.write("\ufeff" + first if first.startswith("\ufeff") else first)
        fh.writelines(lines)


class Triple(NamedTuple):
    """Integer-coded (head entity, relation, tail entity) fact."""

    head: int
    rel: int
    tail: int


def triple_array(triples: Sequence[tuple[int, int, int]] | np.ndarray) -> np.ndarray:
    """The triples as an (N, 3) int64 array of (head, relation, tail) ids.

    A sequence is read in one ``np.fromiter`` pass over its flattened ids;
    an ndarray passes through, as int64, once its shape is checked.
    """
    if isinstance(triples, np.ndarray):
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise ValueError(f"expected an (N, 3) array of triples, got shape {triples.shape}")
        return triples.astype(np.int64, copy=False)
    flat = np.fromiter(chain.from_iterable(triples), np.int64, count=3 * len(triples))
    return flat.reshape(-1, 3)


@dataclass(frozen=True)
class Entailment:
    """Weighted entailment between two relations.

    The premise relation (optionally read in its inverse direction) implies
    the conclusion relation with the given confidence in (0, 1].
    """

    premise_rel: int
    premise_inverted: bool
    conclusion_rel: int
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence <= 1.0:
            raise RangeError(
                f"entailment confidence must lie in (0, 1], got {self.confidence}"
            )
        bad = min(self.premise_rel, self.conclusion_rel)
        if bad < 0:  # it would index the relation table from the end
            raise RangeError(f"entailment names an unknown relation: id {bad} is negative")
        if not self.premise_inverted and self.premise_rel == self.conclusion_rel:
            raise ValueError(
                "premise and conclusion name the same signed relation "
                f"(relation id {self.conclusion_rel})"
            )


class IdMap:
    """Bidirectional name<->id map with dense, insertion-ordered ids.

    Its one table is the name -> id dict, which a name joins only at the next
    id (``setdefault(name, len(dict))``), so the keys are the names in id order.
    """

    _names: tuple[str, ...] = ()  # the dict's keys, rebuilt by name() once the dict has grown

    def __init__(self):
        self._name_to_id: dict[str, int] = {}

    def id(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise VocabularyError(f"unknown name: {name!r}") from None

    def name(self, idx: int) -> str:
        if len(self._names) != len(self._name_to_id):
            self._names = tuple(self._name_to_id)
        return self._names[idx]

    def __len__(self) -> int:
        return len(self._name_to_id)

    def save(self, path: str | Path) -> None:
        """Write one name per line; the line number is the id."""
        write_tsv(path, ((name,) for name in self._name_to_id))

    @classmethod
    def load(cls, path: str | Path) -> "IdMap":
        """Read a dump written by :meth:`save`; as in :func:`read_tsv`, only
        the LF or CRLF terminator is removed, and a blank line is an empty name.
        A repeated name raises ValueError naming the file and line, since it
        would shift the id of every later name."""
        idmap = cls()
        ids = idmap._name_to_id
        for lineno, name in read_lines(path):
            idx = ids.setdefault(name, lineno - 1)
            if idx != lineno - 1:
                raise ValueError(f"{path}:{lineno}: name {name!r} repeats line {idx + 1}")
        return idmap


@dataclass
class Vocab:
    """Entity and relation vocabularies of a dataset."""

    entities: IdMap = field(default_factory=IdMap)
    relations: IdMap = field(default_factory=IdMap)


def load_triples(
    path: str | Path,
    vocab: Vocab | None = None,
    grow: bool = True,
) -> tuple[list[tuple[int, int, int]], Vocab]:
    """Read a triple TSV file into integer-coded triples.

    Parameters
    ----------
    path:
        TSV file with one ``head<TAB>relation<TAB>tail`` triple per line.
    vocab:
        Vocabulary to resolve names against. A fresh empty one is created
        when omitted. The vocabulary object is mutated in place when it grows.
    grow:
        If true, unseen names are assigned new ids in first-seen order.
        If false, unseen names raise :class:`VocabularyError`.

    Returns
    -------
    (triples, vocab):
        The ``(head, rel, tail)`` id tuples in file order, and the
        (possibly grown) vocabulary.

    Names are treated as opaque strings; no whitespace normalization is
    applied beyond removing the line terminator. Blank lines are skipped.
    The file is decoded in one pass (:func:`read_lines`) and each name,
    head, relation, then tail, is one dict lookup: a ``setdefault`` at the
    map's next id when growing, so a file that fails part-way leaves the
    names of the lines before the bad one; else a subscript, with a miss
    resolved again in that order through :meth:`IdMap.id` to raise.
    """
    if vocab is None:
        vocab = Vocab()
    entity_ids, relation_ids = vocab.entities._name_to_id, vocab.relations._name_to_id
    triples: list[tuple[int, int, int]] = []
    rows = read_tsv(path, 3)
    if grow:
        entity, relation = entity_ids.setdefault, relation_ids.setdefault
        for _, (head_name, rel_name, tail_name) in rows:
            triples.append((
                entity(head_name, len(entity_ids)),
                relation(rel_name, len(relation_ids)),
                entity(tail_name, len(entity_ids)),
            ))
        return triples, vocab
    for lineno, (head_name, rel_name, tail_name) in rows:
        try:
            triples.append((entity_ids[head_name], relation_ids[rel_name], entity_ids[tail_name]))
        except KeyError:
            try:  # raises for the first name the vocabulary lacks
                vocab.entities.id(head_name), vocab.relations.id(rel_name), vocab.entities.id(tail_name)
            except VocabularyError as exc:
                raise VocabularyError(f"{path}:{lineno}: {exc}") from None
    return triples, vocab


def load_entailments(path: str | Path, vocab: Vocab) -> list[Entailment]:
    """Read entailment constraints from a TSV file.

    Each line is ``premise<TAB>conclusion<TAB>confidence``. A premise name
    ending in ``^-1`` marks an inverted premise. Relation names must already
    be present in ``vocab``; the confidence must lie in (0, 1]. A rule given
    twice, whatever its confidences, raises ValueError naming both lines,
    since its penalty would count twice.
    """
    entailments: list[Entailment] = []
    first_lines: dict[tuple[int, bool, int], int] = {}
    for lineno, (premise_name, conclusion_name, conf_text) in read_tsv(path, 3):
        inverted = premise_name.endswith(_INVERSE_SUFFIX)
        if inverted:
            premise_name = premise_name[: -len(_INVERSE_SUFFIX)]
        try:  # every error names the line
            premise = vocab.relations.id(premise_name)
            conclusion = vocab.relations.id(conclusion_name)
            first = first_lines.setdefault((premise, inverted, conclusion), lineno)
            if first != lineno:
                raise ValueError(f"repeated rule: line {first} gives the same premise and conclusion")
            try:
                confidence = float(conf_text)
            except ValueError:
                raise ParseError(f"confidence is not a number: {conf_text!r}") from None
            entailments.append(Entailment(premise, inverted, conclusion, confidence))
        except ValueError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
    return entailments


def write_entailments(
    path: str | Path, entailments: Iterable[Entailment], vocab: Vocab
) -> None:
    """Write entailments to the TSV format accepted by :func:`load_entailments`;
    a forward premise whose name ends in ``^-1``, which would read back as
    another relation inverted, raises ValueError naming it and writes no file."""
    def row(ent: Entailment) -> tuple[str, str, str]:
        premise = vocab.relations.name(ent.premise_rel)
        if ent.premise_inverted:
            premise += _INVERSE_SUFFIX
        elif premise.endswith(_INVERSE_SUFFIX):
            raise ValueError(f"relation {premise!r}: a forward premise cannot end in {_INVERSE_SUFFIX!r}")
        return premise, vocab.relations.name(ent.conclusion_rel), f"{ent.confidence:.6f}"

    write_tsv(path, map(row, entailments))


@dataclass
class Dataset:
    """Train/valid/test triple splits sharing one vocabulary."""

    train: list[tuple[int, int, int]]
    valid: list[tuple[int, int, int]]
    test: list[tuple[int, int, int]]
    vocab: Vocab

    @property
    def n_entities(self) -> int:
        return len(self.vocab.entities)

    @property
    def n_relations(self) -> int:
        return len(self.vocab.relations)


def _warn_unseen(kind: str, id_map: IdMap, n_before: int, split: str) -> None:
    n_new = len(id_map) - n_before
    if n_new > 0:
        sample = [id_map.name(i) for i in range(n_before, min(n_before + 5, len(id_map)))]
        logger.warning("%d %s in the %s split do not appear in train (embeddings will be untrained), e.g. %s",
                       n_new, kind, split, ", ".join(repr(s) for s in sample))


def load_dataset(directory: str | Path, vocab: Vocab | None = None) -> Dataset:
    """Load train.txt, valid.txt and test.txt from a dataset directory.

    Without ``vocab`` the vocabulary is built from the training split; names
    that appear only in valid/test still get ids but a warning is logged,
    since their embeddings cannot be trained. With ``vocab`` (a trained
    run's dumps) every split is read against it, and a name it lacks raises
    :class:`VocabularyError` naming the file and line. Missing valid/test
    files yield empty splits.
    """
    directory = Path(directory)
    grow = vocab is None
    train, vocab = load_triples(directory / "train.txt", vocab, grow)

    valid: list[tuple[int, int, int]] = []
    test: list[tuple[int, int, int]] = []
    for name, out in (("valid.txt", valid), ("test.txt", test)):
        path = directory / name
        if not path.exists():
            logger.warning("split file %s is missing; using an empty split", path)
            continue
        n_ent, n_rel = len(vocab.entities), len(vocab.relations)
        triples, _ = load_triples(path, vocab, grow)
        out.extend(triples)
        _warn_unseen("entities", vocab.entities, n_ent, name)
        _warn_unseen("relations", vocab.relations, n_rel, name)

    valid_set, test_set = set(valid), set(test)  # train, the largest split, is only iterated
    if not (valid_set.isdisjoint(test_set) and (valid_set | test_set).isdisjoint(train)):
        logger.warning("dataset splits are not pairwise disjoint")
    return Dataset(train, valid, test, vocab)


class KnownIndex:
    """Index of all known triples for the filter, built once and then only read.

    Threads may share it; :meth:`heads` and :meth:`tails` are its whole
    interface, and duplicate triples collapse. With n entities and m
    relations (one past the largest ids), a triple (h, r, t) has two keys
    ((s*m + r)*n + e)*n + p: s, e, p = 0, h, t for the tail side and 1, t, h
    for the head side. The keys sit sorted, stored as their quotient and
    remainder by n, so the partners p of a query (s, r, e) are one run, found
    by two binary searches; an id outside the index's range finds none.
    """

    def __init__(self, triples: Iterable[tuple[int, int, int]] | np.ndarray = ()):
        array = triple_array(triples if isinstance(triples, np.ndarray) else list(triples))
        heads, rels, tails = array.T
        self._n = n = int(array[:, ::2].max(initial=-1)) + 1
        self._m = m = int(rels.max(initial=-1)) + 1
        if array.min(initial=0) < 0 or 2 * m * n * n >= 2**63:
            raise ValueError(f"triple ids must be non-negative and fit int64 keys ({n} entities, {m} relations)")
        keys = np.sort(np.concatenate([(rels * n + heads) * n + tails, ((m + rels) * n + tails) * n + heads]))
        self._queries, self._partners = np.divmod(keys[np.diff(keys, prepend=-1) != 0], max(n, 1))

    def _find(self, side: int, rels, entities) -> tuple[np.ndarray, np.ndarray]:
        """The partners of the queries (side, rels[i], entities[i]), as :meth:`tails` returns them."""
        r, e = np.asarray(rels, dtype=np.int64), np.asarray(entities, dtype=np.int64)
        query = (side * self._m + r) * self._n + e  # a key's quotient by n; -1 matches no key
        query[(e.view(np.uint64) >= self._n) | (r.view(np.uint64) >= self._m)] = -1  # uint64: negatives fail
        lo = self._queries.searchsorted(query)  # array methods: a chunk's lookup is small, calls dominate
        found = self._queries.searchsorted(query, "right") - lo
        starts = (lo - found.cumsum() + found).repeat(found)
        return found, self._partners[starts + np.arange(starts.size)]

    def heads(self, rels, tails) -> tuple[np.ndarray, np.ndarray]:
        """The ids h with (h, rels[i], tails[i]) known, for each query i, as :meth:`tails` returns them."""
        return self._find(1, rels, tails)

    def tails(self, heads, rels) -> tuple[np.ndarray, np.ndarray]:
        """The ids t with (heads[i], rels[i], t) known, for each query i, as
        ``(counts, ids)``: query i's ids are the next ``counts[i]`` of ``ids``, ascending."""
        return self._find(0, rels, heads)


def build_known_index(dataset: Dataset) -> KnownIndex:
    """Index the union of train, valid, and test for filtered ranking."""
    return KnownIndex(np.concatenate([triple_array(s) for s in (dataset.train, dataset.valid, dataset.test)]))
