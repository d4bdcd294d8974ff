"""Length-1 rule mining with PCA confidence, over both relation directions.

A candidate rule pairs a signed premise (a relation, read forward or
inverted) with a conclusion relation. Its support is the number of entity
pairs on which both hold; its PCA body restricts the premise pairs to those
whose subject has at least one conclusion fact (the partial completeness
assumption), so confidence = support / pca_body.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .data import Entailment, Triple, Vocab, write_entailments
from .manifest import write_csv


@dataclass(frozen=True)
class MinedRule:
    """A mined entailment with its counting evidence."""

    entailment: Entailment
    support: int
    pca_body: int
    pca_confidence: float


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
    confidences are set-based.
    """
    if not 0.0 < min_conf <= 1.0:
        raise ValueError(f"min_conf must lie in (0, 1], got {min_conf}")
    if min_support < 1:
        raise ValueError("min_support must be at least 1")

    facts: dict[int, set[tuple[int, int]]] = defaultdict(set)
    for head, rel, tail in train:
        facts[rel].add((head, tail))
    relations = sorted(facts)
    subjects = {rel: {pair[0] for pair in pairs} for rel, pairs in facts.items()}

    # The loops run in (premise, direction, conclusion) order, which sorts the rules.
    rules: list[MinedRule] = []
    for premise in relations:
        forward = facts[premise]
        inverse = {(tail, head) for head, tail in forward}
        for inverted, pairs in ((False, forward), (True, inverse)):
            for conclusion in relations:
                if premise == conclusion and not inverted:
                    continue
                support = len(pairs & facts[conclusion])
                if support < min_support:
                    continue
                conclusion_subjects = subjects[conclusion]
                # Positive: each supporting pair's subject is a conclusion subject.
                pca_body = sum(1 for x, _ in pairs if x in conclusion_subjects)
                confidence = support / pca_body
                if confidence > min_conf:
                    entailment = Entailment(premise, inverted, conclusion, confidence)
                    rules.append(MinedRule(entailment, support, pca_body, confidence))
    return rules


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
