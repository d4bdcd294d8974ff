"""Length-1 rule mining with PCA confidence, over both relation directions.

A candidate rule pairs a signed premise (a relation, read forward or
inverted) with a conclusion relation. Its support is the number of entity
pairs on which both hold; its PCA body restricts the premise pairs to those
whose subject has at least one conclusion fact (the partial completeness
assumption), so confidence = support / pca_body.

Mining works on int64 keys, with no loop over relations. One sort of
``(h * n + t) * m + r`` (n entities, m relations) gives the distinct facts,
grouped by entity pair. Two joins then fill (m, 2, m) tables indexed by
(premise, direction, conclusion):

* support: each fact's pair, and its reversed pair, is looked up among the
  sorted pairs, and every relation of the matched pair counts once;
* PCA body: each distinct (subject, signed premise) key, with its number of
  facts, is joined against a CSR index from subject to the relations it is
  a head of, and the counts are summed per cell.

Each join expands its matches a slice of about ``_JOIN_CHUNK`` at a time,
so its temporaries stay small whatever the split's size.

The rules are the cells that pass both thresholds, read off in C order,
which is (premise, direction, conclusion) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Entailment, Triple, Vocab, triple_array, write_entailments
from .manifest import write_csv

# Matches one join step expands at once; see _join_count.
_JOIN_CHUNK = 1 << 18


@dataclass(frozen=True)
class MinedRule:
    """A mined entailment with its counting evidence."""

    entailment: Entailment
    support: int
    pca_body: int
    pca_confidence: float


def _join_count(
    left: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    right: np.ndarray,
    size: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Count the cells ``left[i] + right[j]`` for every i and every j in
    ``[starts[i], starts[i] + lengths[i])``, each weighted by ``weights[i]``
    if given, into an array of ``size`` cells.

    The matches are expanded a slice of i at a time, about ``_JOIN_CHUNK``
    of them, which bounds the temporaries.
    """
    ends = np.cumsum(lengths)
    steps = range(_JOIN_CHUNK, int(ends[-1]), _JOIN_CHUNK)
    cuts = sorted({0, ends.size, *np.searchsorted(ends, steps).tolist()})
    counts = np.zeros(size, np.int64 if weights is None else np.float64)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        matches = lengths[lo:hi]
        first = ends[lo:hi] - matches  # where i's matches start in the whole expansion
        cells = np.repeat(starts[lo:hi] - (first - first[0]), matches)
        cells += np.arange(cells.size)
        cells = right[cells]
        cells += np.repeat(left[lo:hi], matches)
        chunk_weights = None if weights is None else np.repeat(weights[lo:hi], matches)
        counts += np.bincount(cells, chunk_weights, minlength=size)
    return counts


def mine_entailments(
    train: Sequence[Triple],
    min_conf: float = 0.8,
    min_support: int = 10,
) -> list[MinedRule]:
    """Mine weighted relation entailments from the training triples.

    Every signed premise (each relation, forward and inverted) is paired with
    every conclusion relation except the identical signed relation; an
    inverted premise on the same relation is kept, since it captures symmetric
    relations. Rules with PCA confidence strictly above ``min_conf`` and
    support at least ``min_support`` are returned, sorted by premise id,
    direction, and conclusion id. Duplicate input triples are collapsed, so
    confidences are set-based. A negative id raises ``ValueError``.
    """
    if not 0.0 < min_conf <= 1.0:
        raise ValueError(f"min_conf must lie in (0, 1], got {min_conf}")
    if min_support < 1:
        raise ValueError("min_support must be at least 1")
    arr = triple_array(train)
    if arr.shape[0] == 0:
        return []
    heads, rels, tails = arr.T
    for kind, ids in (("entity", arr[:, ::2]), ("relation", rels)):
        if ids.min() < 0:
            raise ValueError(f"negative {kind} id {ids.min()} in the mined triples")
    n = int(max(heads.max(), tails.max())) + 1
    m = int(rels.max()) + 1
    if n * n * m > np.iinfo(np.int64).max:
        raise ValueError(f"{n} entities and {m} relations overflow the int64 fact keys")
    cells = 2 * m * m

    # Distinct facts, sorted by (pair, relation); a pair's facts are contiguous.
    # Asking for counts keeps np.unique on its sorting path: without them,
    # numpy 2.3+ uses a hash table, about ten times slower on these keys.
    facts, _ = np.unique((heads * n + tails) * m + rels, return_counts=True)
    pair, rel = np.divmod(facts, m)
    group_pair, group_size = np.unique(pair, return_counts=True)
    group_start = np.cumsum(group_size) - group_size
    head, tail = np.divmod(pair, n)
    del facts, pair

    # Support: a forward premise fact meets the conclusions on its own pair,
    # an inverted one those on its reversed pair, if that pair holds any fact.
    reverse, reverse_rel = np.divmod(np.sort((tail * n + head) * m + rel), m)
    found = np.searchsorted(group_pair, reverse)
    found[found == group_pair.size] = 0
    hit = group_pair[found] == reverse
    found = found[hit]
    premise = np.concatenate([rel * (2 * m), reverse_rel[hit] * (2 * m) + m])
    starts = np.concatenate([np.repeat(group_start, group_size), group_start[found]])
    lengths = np.concatenate([np.repeat(group_size, group_size), group_size[found]])
    del reverse, reverse_rel, found, hit, group_pair, group_start, group_size
    support = _join_count(premise, starts, lengths, rel, cells)

    # PCA body: the facts of each (subject, signed premise), summed over the
    # subject's conclusions, which a CSR index from head to relations lists.
    head_rel, head_count = np.unique(head * m + rel, return_counts=True)
    tail_rel, tail_count = np.unique(tail * m + rel, return_counts=True)
    del head, tail, rel
    subject, subject_rel = np.divmod(head_rel, m)
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(subject, minlength=n), out=indptr[1:])
    x = np.concatenate([subject, tail_rel // m])
    premise = np.concatenate([subject_rel * (2 * m), tail_rel % m * (2 * m) + m])
    weight = np.concatenate([head_count, tail_count])
    starts, lengths = indptr[x], indptr[x + 1] - indptr[x]
    del head_rel, head_count, tail_rel, tail_count, subject, indptr, x
    body = _join_count(premise, starts, lengths, subject_rel, cells, weight)

    support = support.reshape(m, 2, m)
    support[np.arange(m), 0, np.arange(m)] = 0  # p -> p is no rule
    p, inverted, q = np.nonzero(support >= min_support)
    count = support[p, inverted, q]
    pca_body = body.reshape(m, 2, m)[p, inverted, q].astype(np.int64)
    confidence = count / pca_body
    keep = confidence > min_conf
    fields = zip(
        p[keep].tolist(),
        inverted[keep].astype(bool).tolist(),
        q[keep].tolist(),
        count[keep].tolist(),
        pca_body[keep].tolist(),
        confidence[keep].tolist(),
    )
    return [
        MinedRule(Entailment(p, inv, q, conf), support, body, conf)
        for p, inv, q, support, body, conf in fields
    ]


@dataclass
class PairClasses:
    """Relation pairs grouped by the logical regularity they exhibit.

    ``equivalence`` holds (p, q) pairs entailed in both forward directions;
    ``inversion`` holds (p, q) pairs entailed in both inverted directions;
    ``others`` keeps the entailments not absorbed by either class.
    """

    equivalence: list[tuple[int, int]]
    inversion: list[tuple[int, int]]
    others: list[Entailment]


def classify_pairs(
    rules: Sequence[MinedRule | Entailment],
    thresh: float,
) -> PairClasses:
    """Partition rules into equivalence / inversion pairs and the rest.

    (p, q) is an equivalence pair when p -> q and q -> p both appear
    (non-inverted) with confidence above ``thresh``; an inversion pair when
    the two inverted-premise directions both appear above ``thresh``.
    """
    if not 0.0 < thresh < 1.0:
        raise ValueError(f"thresh must lie in (0, 1), got {thresh}")
    ents = [r.entailment if isinstance(r, MinedRule) else r for r in rules]

    forward: set[tuple[int, int]] = set()
    inverted: set[tuple[int, int]] = set()
    for ent in ents:
        if ent.confidence > thresh:
            key = (ent.premise_rel, ent.conclusion_rel)
            (inverted if ent.premise_inverted else forward).add(key)

    equivalence = sorted(
        {(p, q) for p, q in forward if p < q and (q, p) in forward}
    )
    inversion = sorted(
        {(min(p, q), max(p, q)) for p, q in inverted if (q, p) in inverted}
    )
    eq_set, inv_set = set(equivalence), set(inversion)

    others = []
    for ent in ents:
        key = (
            min(ent.premise_rel, ent.conclusion_rel),
            max(ent.premise_rel, ent.conclusion_rel),
        )
        absorbed = key in (inv_set if ent.premise_inverted else eq_set)
        if not absorbed:
            others.append(ent)
    return PairClasses(equivalence, inversion, others)


def write_rules(
    rules: Sequence[MinedRule],
    vocab: Vocab,
    rules_path: str | Path,
    diagnostics_path: str | Path | None = None,
) -> None:
    """Write the entailment TSV and, optionally, a counting diagnostics CSV."""
    write_entailments(rules_path, [r.entailment for r in rules], vocab)
    if diagnostics_path is None:
        return
    name = vocab.relations.name
    rows = (
        [name(rule.entailment.premise_rel), int(rule.entailment.premise_inverted),
         name(rule.entailment.conclusion_rel), rule.support, rule.pca_body,
         f"{rule.pca_confidence:.6f}"]
        for rule in rules
    )
    header = ["premise", "premise_inverted", "conclusion", "support", "pca_body", "pca_confidence"]
    write_csv(diagnostics_path, header, rows)
