"""Shared helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from kgec.data import Dataset, Triple, Vocab
from kgec.model import score_all_tails


def make_vocab(n_entities: int, n_relations: int) -> Vocab:
    vocab = Vocab()
    for i in range(n_entities):
        vocab.entities.add(f"e{i}")
    for k in range(n_relations):
        vocab.relations.add(f"r{k}")
    return vocab


def triple_scores(params, heads, rels, tails) -> np.ndarray:
    """Scores of the triples (heads[i], rels[i], tails[i]), read off the
    (B, n) matrix that ``score_all_tails`` computes."""
    return score_all_tails(params, heads, rels)[np.arange(len(heads)), tails]


def random_dataset(
    n_entities: int,
    n_relations: int,
    n_train: int,
    n_valid: int,
    n_test: int,
    seed: int = 0,
) -> Dataset:
    """Distinct random triples split into train/valid/test."""
    rng = np.random.default_rng(seed)
    triples: set[Triple] = set()
    while len(triples) < n_train + n_valid + n_test:
        h, t = rng.integers(0, n_entities, size=2)
        r = rng.integers(0, n_relations)
        triples.add(Triple(int(h), int(r), int(t)))
    ordered = sorted(triples)
    rng.shuffle(ordered)
    return Dataset(
        train=ordered[:n_train],
        valid=ordered[n_train : n_train + n_valid],
        test=ordered[n_train + n_valid :],
        vocab=make_vocab(n_entities, n_relations),
    )


def wn18_train_path() -> Path | None:
    """Training split of WN18, if provided via KGEC_WN18_DIR."""
    root = os.environ.get("KGEC_WN18_DIR")
    if not root:
        return None
    root = Path(root)
    if root.is_file():
        return root
    for name in ("train.txt", "wordnet-mlj12-train.txt"):
        candidate = root / name
        if candidate.exists():
            return candidate
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
