"""Triple datasets, vocabularies, entailment constraints, and the membership
index used by the filtered evaluation protocol.

File formats (all UTF-8, tab-separated):
  triples:      head<TAB>relation<TAB>tail, one per line
  entailments:  premise<TAB>conclusion<TAB>confidence, where the premise name
                may carry the suffix ``^-1`` to mark an inverted premise
  vocab dumps:  one name per line, the line number is the id
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Sequence

from .manifest import atomic_write, read_lines

logger = logging.getLogger(__name__)

_INVERSE_SUFFIX = "^-1"
_NONE: frozenset[int] = frozenset()  # the answer to a partial key with no triples


class ParseError(ValueError):
    """A data file line does not match the expected format."""


class VocabularyError(ValueError):
    """A name cannot be resolved against a fixed vocabulary."""


class RangeError(ValueError):
    """A numeric field falls outside its allowed range."""


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
    """Replace ``path`` atomically by one tab-joined line per row."""
    with atomic_write(path, encoding="utf-8") as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows)


class Triple(NamedTuple):
    """Integer-coded (head entity, relation, tail entity) fact."""

    head: int
    rel: int
    tail: int


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
        if not self.premise_inverted and self.premise_rel == self.conclusion_rel:
            raise ValueError(
                "premise and conclusion name the same signed relation "
                f"(relation id {self.conclusion_rel})"
            )


class IdMap:
    """Bidirectional name<->id map with dense, insertion-ordered ids."""

    def __init__(self, names: Iterable[str] = ()):
        self._name_to_id: dict[str, int] = {}
        self._id_to_name: list[str] = []
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        """Return the id of ``name``, assigning the next free id if unseen."""
        idx = self._name_to_id.setdefault(name, len(self._id_to_name))
        if idx == len(self._id_to_name):
            self._id_to_name.append(name)
        return idx

    def id(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise VocabularyError(f"unknown name: {name!r}") from None

    def name(self, idx: int) -> str:
        return self._id_to_name[idx]

    def __len__(self) -> int:
        return len(self._id_to_name)

    def __contains__(self, name: str) -> bool:
        return name in self._name_to_id

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdMap):
            return NotImplemented
        return self._id_to_name == other._id_to_name

    def save(self, path: str | Path) -> None:
        """Write one name per line; the line number is the id."""
        write_tsv(path, ((name,) for name in self._id_to_name))

    @classmethod
    def load(cls, path: str | Path) -> "IdMap":
        """Read a dump written by :meth:`save`; as in :func:`read_tsv`, only
        the LF or CRLF terminator is removed, and a blank line is an empty name.
        A repeated name raises ValueError naming the file and line, since it
        would shift the id of every later name."""
        idmap = cls()
        for lineno, name in read_lines(path):
            idx = idmap.add(name)
            if idx != lineno - 1:
                raise ValueError(f"{path}:{lineno}: name {name!r} repeats line {idx + 1}")
        return idmap


@dataclass
class Vocab:
    """Entity and relation vocabularies of a dataset."""

    entities: IdMap = field(default_factory=IdMap)
    relations: IdMap = field(default_factory=IdMap)

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def dump(self, entities_path: str | Path, relations_path: str | Path) -> None:
        self.entities.save(entities_path)
        self.relations.save(relations_path)

    @classmethod
    def load(cls, entities_path: str | Path, relations_path: str | Path) -> "Vocab":
        return cls(IdMap.load(entities_path), IdMap.load(relations_path))


def load_triples(
    path: str | Path,
    vocab: Vocab | None = None,
    grow: bool = True,
) -> tuple[list[Triple], Vocab]:
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
        The integer-coded triples in file order, and the (possibly grown)
        vocabulary.

    Names are treated as opaque strings; no whitespace normalization is
    applied beyond removing the line terminator. Blank lines are skipped.
    """
    if vocab is None:
        vocab = Vocab()
    entity, relation = (
        (vocab.entities.add, vocab.relations.add) if grow else (vocab.entities.id, vocab.relations.id)
    )
    triples: list[Triple] = []
    for lineno, (head_name, rel_name, tail_name) in read_tsv(path, 3):
        try:
            triples.append(Triple(entity(head_name), relation(rel_name), entity(tail_name)))
        except VocabularyError as exc:
            raise VocabularyError(f"{path}:{lineno}: {exc}") from None
    return triples, vocab


def write_triples(path: str | Path, triples: Iterable[Triple], vocab: Vocab) -> None:
    """Write triples back to the TSV format accepted by :func:`load_triples`."""
    entity, relation = vocab.entities.name, vocab.relations.name
    write_tsv(path, ((entity(h), relation(r), entity(t)) for h, r, t in triples))


def load_entailments(path: str | Path, vocab: Vocab) -> list[Entailment]:
    """Read entailment constraints from a TSV file.

    Each line is ``premise<TAB>conclusion<TAB>confidence``. A premise name
    ending in ``^-1`` marks an inverted premise. Relation names must already
    be present in ``vocab``; the confidence must lie in (0, 1].
    """
    entailments: list[Entailment] = []
    for lineno, (premise_name, conclusion_name, conf_text) in read_tsv(path, 3):
        inverted = premise_name.endswith(_INVERSE_SUFFIX)
        if inverted:
            premise_name = premise_name[: -len(_INVERSE_SUFFIX)]
        try:
            premise = vocab.relations.id(premise_name)
            conclusion = vocab.relations.id(conclusion_name)
        except VocabularyError as exc:
            raise VocabularyError(f"{path}:{lineno}: {exc}") from None
        try:
            confidence = float(conf_text)
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: confidence is not a number: {conf_text!r}"
            ) from None
        try:
            entailments.append(Entailment(premise, inverted, conclusion, confidence))
        except ValueError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
    return entailments


def write_entailments(
    path: str | Path, entailments: Iterable[Entailment], vocab: Vocab
) -> None:
    """Write entailments to the TSV format accepted by :func:`load_entailments`."""
    def row(ent: Entailment) -> tuple[str, str, str]:
        premise = vocab.relations.name(ent.premise_rel)
        if ent.premise_inverted:
            premise += _INVERSE_SUFFIX
        return premise, vocab.relations.name(ent.conclusion_rel), f"{ent.confidence:.6f}"

    write_tsv(path, map(row, entailments))


@dataclass
class Dataset:
    """Train/valid/test triple splits sharing one vocabulary."""

    train: list[Triple]
    valid: list[Triple]
    test: list[Triple]
    vocab: Vocab

    @property
    def n_entities(self) -> int:
        return self.vocab.n_entities

    @property
    def n_relations(self) -> int:
        return self.vocab.n_relations


def _warn_unseen(kind: str, id_map: IdMap, n_before: int, split: str) -> None:
    n_new = len(id_map) - n_before
    if n_new > 0:
        sample = [id_map.name(i) for i in range(n_before, min(n_before + 5, len(id_map)))]
        logger.warning(
            "%d %s in the %s split do not appear in train (embeddings will be "
            "untrained), e.g. %s",
            n_new,
            kind,
            split,
            ", ".join(repr(s) for s in sample),
        )


def load_dataset(directory: str | Path) -> Dataset:
    """Load train.txt, valid.txt and test.txt from a dataset directory.

    The vocabulary is built from the training split; names that appear only
    in valid/test still get ids but a warning is logged, since their
    embeddings cannot be trained. Missing valid/test files yield empty splits.
    """
    directory = Path(directory)
    train, vocab = load_triples(directory / "train.txt", None, grow=True)

    valid: list[Triple] = []
    test: list[Triple] = []
    for name, out in (("valid.txt", valid), ("test.txt", test)):
        path = directory / name
        if not path.exists():
            logger.warning("split file %s is missing; using an empty split", path)
            continue
        n_ent, n_rel = len(vocab.entities), len(vocab.relations)
        triples, _ = load_triples(path, vocab, grow=True)
        out.extend(triples)
        _warn_unseen("entities", vocab.entities, n_ent, name)
        _warn_unseen("relations", vocab.relations, n_rel, name)

    train_set, valid_set, test_set = set(train), set(valid), set(test)
    if train_set & valid_set or train_set & test_set or valid_set & test_set:
        logger.warning("dataset splits are not pairwise disjoint")
    return Dataset(train, valid, test, vocab)


class KnownIndex:
    """Membership index over all known triples, with partial-key queries.

    Duplicate triples are collapsed: the index is a set by definition.
    Lookups return the index's own sets, read-only, and never add a key.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._heads: dict[tuple[int, int], set[int]] = defaultdict(set)
        self._tails: dict[tuple[int, int], set[int]] = defaultdict(set)
        for triple in triples:
            self.add(triple)

    def add(self, triple: Triple) -> None:
        head, rel, tail = triple
        self._tails[(head, rel)].add(tail)
        self._heads[(rel, tail)].add(head)

    def __contains__(self, triple: tuple[int, int, int]) -> bool:
        head, rel, tail = triple
        return tail in self._tails.get((head, rel), _NONE)

    def __len__(self) -> int:
        return sum(map(len, self._tails.values()))

    def heads(self, rel: int, tail: int) -> AbstractSet[int]:
        """Entity ids h such that (h, rel, tail) is a known triple (read-only)."""
        return self._heads.get((rel, tail), _NONE)

    def tails(self, head: int, rel: int) -> AbstractSet[int]:
        """Entity ids t such that (head, rel, t) is a known triple (read-only)."""
        return self._tails.get((head, rel), _NONE)


def build_known_index(dataset: Dataset) -> KnownIndex:
    """Index the union of train, valid, and test for filtered ranking."""
    return KnownIndex(chain(dataset.train, dataset.valid, dataset.test))
