"""Interpretability analyses: activation normalization for heatmaps,
dimension purity entropy against entity type labels, and residual
diagnostics for relation pairs.

Real and imaginary embedding components are analyzed by the same operations;
entropies use the natural log (declared in output headers). The heatmap
normalizes blocks of rows and the purity curve sorts blocks of columns, both
through ``objective._per_block``; every row and column is computed on its own,
so results do not depend on the number of CPUs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Entailment, Vocab, VocabularyError, read_tsv, write_csv
from .model import _check_ids
from . import objective
from .objective import RuleArrays, _block_rows, _per_block, pack_entailments, rule_deltas

logger = logging.getLogger(__name__)


@dataclass
class TypeLabels:
    """One type label per labeled entity, as aligned arrays: ``entities``
    holds the labeled ids in ascending order, ``types`` their type ids, which
    lie in [0, ``n_types``)."""

    entities: np.ndarray
    types: np.ndarray
    n_types: int


def load_type_labels(path: str | Path, vocab: Vocab) -> TypeLabels:
    """Read an ``entity<TAB>type`` TSV; entities missing from the vocabulary
    are skipped with a warning, later lines override earlier ones, and types
    are numbered in first-seen order. A file that labels no entity of the
    vocabulary raises ValueError naming it."""
    labels: dict[int, int] = {}
    type_ids: dict[str, int] = {}
    skipped = 0
    for _, (entity_name, type_name) in read_tsv(path, 2):
        try:
            entity = vocab.entities.id(entity_name)
        except VocabularyError:
            skipped += 1
            continue
        labels[entity] = type_ids.setdefault(type_name, len(type_ids))
    if not labels:
        raise ValueError(f"{path}: no type label names an entity of the vocabulary")
    if skipped:
        logger.warning("skipped %d type labels for entities not in the vocabulary", skipped)
    entities, types = (np.fromiter(ids, np.int64, len(labels)) for ids in (labels, labels.values()))
    order = np.argsort(entities)
    return TypeLabels(entities[order], types[order], len(type_ids))


def minmax_normalize(x: np.ndarray) -> np.ndarray:
    """Affine rescale of a vector, or of each row of a matrix, to [0, 1];
    constant rows map to zeros. The ends are taken on the input's dtype, and
    the float64 output is the only array of the input's size that is made."""
    x = np.asarray(x)
    lo = x.min(axis=-1, keepdims=True).astype(float)
    hi = x.max(axis=-1, keepdims=True)
    keep = hi != lo
    out = x.astype(float)
    out -= lo
    np.divide(out, hi - lo, out=out, where=keep)
    out[~keep[..., 0]] = 0.0  # a constant infinite row is inf - inf = NaN until here
    return out


def shannon_entropy(counts: Sequence[int] | np.ndarray) -> float | np.ndarray:
    """Natural-log entropy of a count distribution, or of each one along the
    last axis of a count array."""
    counts = np.asarray(counts, dtype=float)
    seen = counts > 0
    total = counts.sum(axis=-1, keepdims=True)
    p = np.divide(counts, total, out=np.zeros_like(counts), where=seen)
    log_p = np.log(p, out=np.zeros_like(p), where=seen)
    return -(p * log_p).sum(axis=-1)


@dataclass
class PurityCurve:
    """Mean per-dimension type entropy at each top-K percentage."""

    points: list[tuple[float, float]]


def purity_curve(
    component: np.ndarray,
    labels: TypeLabels,
    k_percents: Sequence[float] = (1, 2, 5, 10, 20, 50, 100),
) -> PurityCurve:
    """Mean type entropy across dimensions at each top-K percentage.

    For each dimension, the ceil(K * L / 100) of the L labeled entities with the
    highest activation are selected (ties broken toward the lower entity id)
    and the natural-log entropy of their type distribution is computed; the
    mean over dimensions is the (K, entropy) point. Low entropy means the
    dimension is semantically pure. A labeled id outside the component's rows
    raises IndexError.
    """
    for k_percent in k_percents:
        if not 0.0 < k_percent <= 100.0:
            raise ValueError(f"k_percent must lie in (0, 100], got {k_percent}")
    if not labels.entities.size:
        raise ValueError("no labeled entities")
    component = np.asarray(component)
    _check_ids(labels.entities, len(component), "entity")
    n_dims, n_types = component.shape[1], labels.n_types
    ks = [math.ceil(k_percent * labels.entities.size / 100) for k_percent in k_percents]

    def top_k_counts(a, e):
        # Rows are in ascending id. The default (quicksort) argsort leaves ties
        # in any order; numbering the runs of equal sorted values (-0.0 ties
        # 0.0, and the NaNs, which sort last, are one run) and sorting
        # run * L + position once more puts each run back in ascending id
        # order. Row j of `ranked` holds dimension a + j's types in rank order,
        # offset by n_types * j so one bincount counts the block.
        values = np.negative(component[labels.entities, a:e].T, dtype=float, order="C")
        order = np.argsort(values, axis=1)
        values.sort(axis=1)
        run = np.zeros_like(order)
        np.cumsum((values[:, 1:] != values[:, :-1]) & ~np.isnan(values[:, :-1]), axis=1, out=run[:, 1:])
        run *= labels.entities.size
        order += run
        order.sort(axis=1)
        order -= run
        ranked = labels.types[order]
        ranked += n_types * np.arange(e - a)[:, None]
        counts = [np.bincount(ranked[:, :k].ravel(), minlength=(e - a) * n_types) for k in ks]
        return np.reshape(counts, (len(ks), e - a, n_types))

    # A block column holds activations, their order, run ids and types: 4 x 8 bytes a label.
    step = _block_rows(labels.entities[None], objective._BLOCK_BYTES, 4)
    counts = np.concatenate(_per_block(top_k_counts, n_dims, step), axis=1)  # (K, dims, types)
    entropies = shannon_entropy(counts).mean(axis=1)
    return PurityCurve([(k, float(h)) for k, h in zip(k_percents, entropies)])


def write_purity_csv(curve: PurityCurve, path: str | Path) -> None:
    rows = ([f"{k:g}", f"{entropy:.6f}"] for k, entropy in curve.points)
    write_csv(path, ["k_percent", "mean_entropy_nats"], rows)


def activation_heatmap(component: np.ndarray, entity_ids: Sequence[int]) -> np.ndarray:
    """Row-normalized activation matrix for the selected entities; each block
    of rows is gathered and normalized into its own rows of the output. An id
    outside the component's rows raises IndexError."""
    entity_ids = np.asarray(entity_ids, dtype=np.int64)
    _check_ids(entity_ids, len(component), "entity")
    out = np.empty((entity_ids.size, component.shape[1]))

    def normalize_rows(a, e):
        out[a:e] = minmax_normalize(component[entity_ids[a:e]])

    _per_block(normalize_rows, entity_ids.size, _block_rows(out, objective._BLOCK_BYTES))
    return out


def write_heatmap_csv(
    matrix: np.ndarray, row_names: Sequence[str], path: str | Path
) -> None:
    """Matrix of normalized activations; rows are entities, columns dimensions."""
    header = ["entity"] + [f"dim_{j}" for j in range(matrix.shape[1])]
    rows = ([name] + [f"{v:.6f}" for v in row] for name, row in zip(row_names, matrix))
    write_csv(path, header, rows)


def pair_residuals(
    rel: np.ndarray, ents: Sequence[Entailment], thresh: float
) -> tuple[np.ndarray, RuleArrays, np.ndarray]:
    """Classify the rules' relation pairs at ``thresh`` and compute every
    row's residuals in one :func:`~kgec.objective.rule_deltas` pass.

    (p, q) is an equivalence pair when p -> q and q -> p both have confidence
    strictly above ``thresh``, and an inversion pair when p^-1 -> q and
    q^-1 -> p do (a strong p^-1 -> p makes p self-inverse). The rows are the
    equivalence pairs, read as p -> q with p < q, then the inversion pairs,
    read as p^-1 -> q with p <= q, each sorted, then as ``others`` every rule,
    in input order, that no pair of its own sign absorbs, whatever its
    confidence. Returns each row's class name, the rows as rules, and (n, 3)
    columns max(|Re delta|, |Im delta|) (ideally 0 for equivalence and
    inversion), max(Re delta, 0) and max |Im delta| (ideally 0 for the
    others), NaN where the class leaves a column undefined.
    """
    if not 0.0 < thresh < 1.0:
        raise ValueError(f"thresh must lie in (0, 1), got {thresh}")
    rules = pack_entailments(ents)
    p, q, inverted = rules.premise, rules.conclusion, rules.inverted
    # One key per signed, unordered pair, inverted last; m spans every id, so none aliases.
    m = int(np.max(np.concatenate([p, q]), initial=len(rel) - 1)) + 1
    key = (inverted * m + np.minimum(p, q)) * m + np.maximum(p, q)
    strong = rules.confidence > thresh
    reverse_is_strong = np.isin((inverted * m + q) * m + p, ((inverted * m + p) * m + q)[strong])
    pairs = np.unique(key[strong & reverse_is_strong])
    others = ~np.isin(key, pairs)
    pair_inverted, low, high = np.unravel_index(pairs, (2, m, m))
    rows = RuleArrays(
        premise=np.concatenate([low, p[others]]),
        conclusion=np.concatenate([high, q[others]]),
        inverted=np.concatenate([pair_inverted == 1, inverted[others]]),
        confidence=np.concatenate([np.ones(pairs.size), rules.confidence[others]]),
    )
    counts = np.bincount(pair_inverted, minlength=2).tolist() + [int(others.sum())]
    kinds = np.repeat(["equivalence", "inversion", "others"], counts)
    delta = rule_deltas(rel, rows)
    abs_im = np.abs(delta.imag).max(axis=1)
    residuals = np.full((kinds.size, 3), np.nan)
    k = pairs.size  # the pairs' rows come first
    residuals[:k, 0] = np.maximum(np.abs(delta[:k].real).max(axis=1), abs_im[:k])
    residuals[k:, 1] = np.maximum(delta[k:].real, 0.0).max(axis=1)
    residuals[k:, 2] = abs_im[k:]
    return kinds, rows, residuals


def write_pair_diagnostics_csv(
    kinds: np.ndarray, rules: RuleArrays, residuals: np.ndarray, vocab: Vocab, path: str | Path
) -> None:
    """One row per pair from :func:`pair_residuals`; undefined columns are empty."""
    rows = (
        [kind, vocab.relations.name(p), vocab.relations.name(q)]
        + ["" if np.isnan(value) else f"{value:.6f}" for value in row]
        for kind, p, q, row in zip(kinds, rules.premise, rules.conclusion, residuals)
    )
    header = ["class", "rel_p", "rel_q", "max_abs_diff", "re_violation", "im_max_abs_diff"]
    write_csv(path, header, rows)
