"""Shared helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

import numpy as np
import pytest

from kgec.data import Dataset, IdMap, Triple, Vocab, read_json, sha256_file, write_tsv
from kgec.model import score_all_tails
from kgec.objective import SparseGrads, loss_and_gradient_arrays

from oracles import grow_id, oracle_sq_norm


def id_map(*names: str) -> IdMap:
    """A map giving ``names`` the ids 0, 1, ... in order."""
    idmap = IdMap()
    for name in names:
        grow_id(idmap, name)
    return idmap


def names_of(idmap: IdMap) -> list[str]:
    """The map's names in id order."""
    return [idmap.name(i) for i in range(len(idmap))]


def make_vocab(n_entities: int, n_relations: int) -> Vocab:
    return Vocab(id_map(*(f"e{i}" for i in range(n_entities))), id_map(*(f"r{k}" for k in range(n_relations))))


def write_triples(path: str | Path, triples: Iterable[Triple], vocab: Vocab) -> None:
    """Write triples back to the TSV format accepted by ``load_triples``."""
    entity, relation = vocab.entities.name, vocab.relations.name
    write_tsv(path, ((entity(h), relation(r), entity(t)) for h, r, t in triples))


def load_manifest(path: str | Path) -> dict:
    """Read the ``manifest.json`` a training run writes, checking its keys."""
    manifest = read_json(path)
    assert set(manifest) == {"command", "version", "seed", "config", "inputs", "outputs", "created"}
    return manifest


def verify_inputs(manifest: dict) -> None:
    """Recompute the manifest's input hashes; raise ValueError on any mismatch."""
    for path, recorded in manifest["inputs"].items():
        actual = sha256_file(path)
        if actual != recorded:
            raise ValueError(
                f"input {path} changed since the manifest was written "
                f"(recorded {recorded[:12]}, found {actual[:12]})"
            )


def triple_scores(params, heads, rels, tails) -> np.ndarray:
    """Scores of the triples (heads[i], rels[i], tails[i]), read off the
    (B, n) matrix that ``score_all_tails`` computes."""
    return score_all_tails(params, params.ent[heads], params.rel[rels])[np.arange(len(heads)), tails]


def gradient_buffer(params) -> np.ndarray:
    """An (n + m, d) array of the parameters' dtype, like the one ``train``
    makes once and every step's gradient rows are written into."""
    return np.empty((params.n_entities + params.n_relations, params.d), params.ent.dtype)


def loss_and_gradients(params, *args):
    """``loss_and_gradient_arrays(params, *args)`` into a new :func:`gradient_buffer`,
    so each call's gradients stay valid after the next."""
    return loss_and_gradient_arrays(params, *args, out=gradient_buffer(params))


def sparse_grads(ent_ids, ent, rel_ids, rel) -> SparseGrads:
    """Hand-made gradient rows as :class:`SparseGrads`, with the squared norm
    that the training kernel would carry."""
    return SparseGrads(ent_ids, ent, rel_ids, rel, oracle_sq_norm(ent) + oracle_sq_norm(rel))


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
