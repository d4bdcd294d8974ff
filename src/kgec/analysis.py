"""Interpretability analyses: activation normalization for heatmaps,
dimension purity entropy against entity type labels, and residual
diagnostics for relation pairs.

Real and imaginary embedding components are analyzed by the same operations;
entropies use the natural log (declared in output headers).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import IdMap, Vocab, VocabularyError
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
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.endswith("\r"):
                line = line[:-1]
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 2 tab-separated fields, got {len(fields)}"
                )
            entity_name, type_name = fields
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


def shannon_entropy(counts: Sequence[int]) -> float:
    """Natural-log entropy of a count distribution."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


@dataclass
class PurityCurve:
    """Mean per-dimension type entropy at each top-K percentage."""

    points: list[tuple[float, float]]


def dimension_purity(
    component: np.ndarray,
    labels: TypeLabels,
    k_percent: float,
) -> tuple[float, float]:
    """Mean type entropy across dimensions at one top-K percentage.

    For each dimension, the ceil(K/100 * n_labeled) labeled entities with the
    highest activation are selected (ties broken toward the lower entity id)
    and the natural-log entropy of their type distribution is computed; the
    mean over dimensions is returned as a (K, entropy) point. Low entropy
    means the dimension is semantically pure.
    """
    if not 0.0 < k_percent <= 100.0:
        raise ValueError(f"k_percent must lie in (0, 100], got {k_percent}")
    if labels.n_labeled == 0:
        raise ValueError("no labeled entities")
    labeled_ids = np.asarray(sorted(labels.labels), dtype=np.int64)
    type_ids = np.asarray([labels.labels[i] for i in labeled_ids], dtype=np.int64)
    k = math.ceil(k_percent / 100.0 * labeled_ids.size)

    activations = np.asarray(component, dtype=float)[labeled_ids, :]
    n_types = labels.n_types
    entropies = np.empty(activations.shape[1])
    for dim in range(activations.shape[1]):
        # lexsort: last key is primary -> descending activation, then id.
        order = np.lexsort((labeled_ids, -activations[:, dim]))
        top_types = type_ids[order[:k]]
        entropies[dim] = shannon_entropy(np.bincount(top_types, minlength=n_types))
    return (k_percent, float(entropies.mean()))


def purity_curve(
    component: np.ndarray,
    labels: TypeLabels,
    k_percents: Sequence[float] = (1, 2, 5, 10, 20, 50, 100),
) -> PurityCurve:
    """Purity entropy swept over several top-K percentages."""
    return PurityCurve([dimension_purity(component, labels, k) for k in k_percents])


def write_purity_csv(curve: PurityCurve, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k_percent", "mean_entropy_nats"])
        for k, entropy in curve.points:
            writer.writerow([f"{k:g}", f"{entropy:.6f}"])


def activation_heatmap(component: np.ndarray, entity_ids: Sequence[int]) -> np.ndarray:
    """Row-normalized activation matrix for the selected entities."""
    return minmax_normalize(component[np.asarray(entity_ids, dtype=np.int64)])


def write_heatmap_csv(
    matrix: np.ndarray, row_names: Sequence[str], path: str | Path
) -> None:
    """Matrix of normalized activations; rows are entities, columns dimensions."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity"] + [f"dim_{j}" for j in range(matrix.shape[1])])
        for name, row in zip(row_names, matrix):
            writer.writerow([name] + [f"{v:.6f}" for v in row])


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["class", "rel_p", "rel_q", "max_abs_diff", "re_violation", "im_max_abs_diff"]
        )
        for diag in diagnostics:
            p, q = diag.rels
            row = [diag.kind, vocab.relations.name(p), vocab.relations.name(q)]
            for key in ("max_abs_diff", "re_violation", "im_max_abs_diff"):
                value = diag.residuals.get(key)
                row.append("" if value is None else f"{value:.6f}")
            writer.writerow(row)
