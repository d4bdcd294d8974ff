"""Interpretability analyses: activation normalization for heatmaps,
dimension purity entropy against entity type labels, and residual
diagnostics for relation pairs.

Real and imaginary embedding components are analyzed by the same operations;
entropies use the natural log (declared in output headers).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import IdMap, Vocab, VocabularyError, read_tsv
from .manifest import write_csv
from .model import ModelParams

logger = logging.getLogger(__name__)

PAIR_KINDS = ("equivalence", "inversion", "others")


@dataclass
class TypeLabels:
    """Single type label per (labeled) entity id."""

    labels: dict[int, int]
    type_names: IdMap

    @property
    def n_types(self) -> int:
        return len(self.type_names)

    @property
    def n_labeled(self) -> int:
        return len(self.labels)


def load_type_labels(path: str | Path, vocab: Vocab) -> TypeLabels:
    """Read an ``entity<TAB>type`` TSV; entities missing from the vocabulary
    are skipped with a warning, later lines override earlier ones."""
    labels: dict[int, int] = {}
    type_names = IdMap()
    skipped = 0
    for _, (entity_name, type_name) in read_tsv(path, 2):
        try:
            entity = vocab.entities.id(entity_name)
        except VocabularyError:
            skipped += 1
            continue
        labels[entity] = type_names.add(type_name)
    if skipped:
        logger.warning("skipped %d type labels for entities not in the vocabulary", skipped)
    return TypeLabels(labels, type_names)


def minmax_normalize(x: np.ndarray) -> np.ndarray:
    """Affine rescale of a vector, or of each row of a matrix, to [0, 1];
    constant rows map to zeros."""
    x = np.asarray(x, dtype=float)
    lo = x.min(axis=-1, keepdims=True)
    hi = x.max(axis=-1, keepdims=True)
    out = np.zeros_like(x)
    np.divide(x - lo, hi - lo, out=out, where=hi != lo)
    return out


def shannon_entropy(counts: Sequence[int] | np.ndarray) -> float | np.ndarray:
    """Natural-log entropy of a count distribution, or of each row of a
    count matrix."""
    counts = np.asarray(counts, dtype=float)
    seen = counts > 0
    total = counts.sum(axis=-1, keepdims=True)
    p = np.divide(counts, total, out=np.zeros_like(counts), where=seen)
    log_p = np.log(p, out=np.zeros_like(p), where=seen)
    entropy = -(p * log_p).sum(axis=-1)
    return float(entropy) if entropy.ndim == 0 else entropy


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

    For each dimension, the ceil(K/100 * n_labeled) labeled entities with the
    highest activation are selected (ties broken toward the lower entity id)
    and the natural-log entropy of their type distribution is computed; the
    mean over dimensions is the (K, entropy) point. Low entropy means the
    dimension is semantically pure.
    """
    for k_percent in k_percents:
        if not 0.0 < k_percent <= 100.0:
            raise ValueError(f"k_percent must lie in (0, 100], got {k_percent}")
    if labels.n_labeled == 0:
        raise ValueError("no labeled entities")
    labeled_ids = np.asarray(sorted(labels.labels), dtype=np.int64)
    type_ids = np.asarray([labels.labels[i] for i in labeled_ids], dtype=np.int64)
    activations = np.asarray(component, dtype=float)[labeled_ids, :]
    n_dims, n_types = activations.shape[1], labels.n_types
    # One stable sort per column: rows are in ascending id, so ties keep the
    # lower id first. Row i of `ranked` holds each dimension's i-th type,
    # offset by n_types * dim so one bincount counts every dimension.
    order = np.argsort(-activations, axis=0, kind="stable")
    ranked = type_ids[order] + n_types * np.arange(n_dims)
    points = []
    for k_percent in k_percents:
        k = math.ceil(k_percent / 100.0 * labeled_ids.size)
        counts = np.bincount(ranked[:k].ravel(), minlength=n_dims * n_types)
        entropies = shannon_entropy(counts.reshape(n_dims, n_types))
        points.append((k_percent, float(entropies.mean())))
    return PurityCurve(points)


def dimension_purity(
    component: np.ndarray,
    labels: TypeLabels,
    k_percent: float,
) -> tuple[float, float]:
    """The (K, mean entropy) point of :func:`purity_curve` at one K."""
    return purity_curve(component, labels, (k_percent,)).points[0]


def write_purity_csv(curve: PurityCurve, path: str | Path) -> None:
    rows = ([f"{k:g}", f"{entropy:.6f}"] for k, entropy in curve.points)
    write_csv(path, ["k_percent", "mean_entropy_nats"], rows)


def activation_heatmap(component: np.ndarray, entity_ids: Sequence[int]) -> np.ndarray:
    """Row-normalized activation matrix for the selected entities."""
    return minmax_normalize(component[np.asarray(entity_ids, dtype=np.int64)])


def write_heatmap_csv(
    matrix: np.ndarray, row_names: Sequence[str], path: str | Path
) -> None:
    """Matrix of normalized activations; rows are entities, columns dimensions."""
    header = ["entity"] + [f"dim_{j}" for j in range(matrix.shape[1])]
    rows = ([name] + [f"{v:.6f}" for v in row] for name, row in zip(row_names, matrix))
    write_csv(path, header, rows)


@dataclass
class PairDiagnostic:
    """Residuals measuring how well a relation pair realizes its class."""

    kind: str
    rels: tuple[int, int]
    residuals: dict[str, float]


def relation_pair_diagnostic(
    params: ModelParams,
    pair: tuple[int, int],
    kind: str,
    premise_inverted: bool = False,
) -> PairDiagnostic:
    """Residuals of an (r_p, r_q) pair under its class's ideal structure.

    Equivalence pairs should have identical representations; inversion pairs
    should be complex conjugates; for the rest the premise real part should
    stay entrywise below the conclusion's with matching imaginary parts.
    ``premise_inverted`` conjugates r_p first (only meaningful for "others").
    """
    if kind not in PAIR_KINDS:
        raise ValueError(f"kind must be one of {PAIR_KINDS}, got {kind!r}")
    p, q = pair
    rep_p = np.conj(params.rel[p]) if premise_inverted else params.rel[p]
    rep_q = np.conj(params.rel[q]) if kind == "inversion" else params.rel[q]
    diff = rep_p - rep_q

    if kind in ("equivalence", "inversion"):
        residual = max(float(np.abs(diff.real).max()), float(np.abs(diff.imag).max()))
        return PairDiagnostic(kind, pair, {"max_abs_diff": residual})
    return PairDiagnostic(
        kind,
        pair,
        {
            "re_violation": float(np.maximum(diff.real, 0.0).max()),
            "im_max_abs_diff": float(np.abs(diff.imag).max()),
        },
    )


def write_pair_diagnostics_csv(
    diagnostics: Sequence[PairDiagnostic], vocab: Vocab, path: str | Path
) -> None:
    keys = ("max_abs_diff", "re_violation", "im_max_abs_diff")
    rows = []
    for diag in diagnostics:
        p, q = diag.rels
        values = (diag.residuals.get(key) for key in keys)
        rows.append(
            [diag.kind, vocab.relations.name(p), vocab.relations.name(q)]
            + ["" if value is None else f"{value:.6f}" for value in values]
        )
    write_csv(path, ["class", "rel_p", "rel_q", *keys], rows)
