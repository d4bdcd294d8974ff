"""Training objective: logistic triple loss, entailment penalties on relation
representations, batch-local L2, and their exact sparse gradients.

The entailment constraints enter as closed-form penalties: for a constraint
p -> q with confidence c, the penalty is
``c * sum(max(0, Re(p*) - Re(q))) + c * sum((Im(p*) - Im(q))**2)``
where p* is p itself, or its complex conjugate when the premise is inverted.
This is the analytic optimum of the slack-variable formulation, so no slack
variables are materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.special import expit

from .data import Entailment, Triple
from .model import (
    ModelParams,
    head_partial,
    real_dot,
    real_view,
    rel_partial,
    score_batch,
    tail_partial,
)


@dataclass(frozen=True)
class TrainingExample:
    """A triple with a +1 (observed) or -1 (corrupted) label."""

    triple: Triple
    label: int

    def __post_init__(self) -> None:
        if self.label not in (1, -1):
            raise ValueError(f"label must be +1 or -1, got {self.label}")


@dataclass
class LossBreakdown:
    """Loss components of one batch.

    ``entailment_penalty`` and ``l2`` are stored unweighted; ``total``
    applies the penalty coefficient and the L2 coefficient.
    """

    logistic: float
    entailment_penalty: float
    l2: float
    total: float


@dataclass
class SparseGrads:
    """Gradients restricted to the touched entity and relation rows.

    ``ent_ids``/``rel_ids`` are sorted unique id vectors; ``ent``/``rel`` hold
    one complex gradient row per id, whose real and imaginary parts are the
    derivatives with respect to the real and imaginary components.
    """

    ent_ids: np.ndarray
    ent: np.ndarray
    rel_ids: np.ndarray
    rel: np.ndarray

    def global_norm(self) -> float:
        """Euclidean norm over every stored gradient entry."""
        return float(np.sqrt(_sq_norm(self.ent) + _sq_norm(self.rel)))

    def clip_global_norm_(self, cap: float) -> float:
        """Rescale in place so the global norm is at most ``cap``.

        Returns the norm before clipping.
        """
        norm = self.global_norm()
        if norm > cap:
            factor = cap / norm
            for block in (self.ent, self.rel):
                view = real_view(block)
                view *= factor
        return norm


@dataclass(frozen=True)
class RuleArrays:
    """Entailments packed as parallel arrays, one entry per rule.

    ``sign`` is -1.0 where the premise is inverted (and so conjugated), +1.0
    otherwise.
    """

    premise: np.ndarray
    conclusion: np.ndarray
    sign: np.ndarray
    confidence: np.ndarray


def pack_entailments(ents: Iterable[Entailment] | RuleArrays) -> RuleArrays:
    """Pack entailments into :class:`RuleArrays`; packed rules pass through."""
    if isinstance(ents, RuleArrays):
        return ents
    ents = list(ents)
    return RuleArrays(
        premise=np.array([e.premise_rel for e in ents], dtype=np.int64),
        conclusion=np.array([e.conclusion_rel for e in ents], dtype=np.int64),
        sign=np.array([-1.0 if e.premise_inverted else 1.0 for e in ents]),
        confidence=np.array([e.confidence for e in ents], dtype=float),
    )


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) without overflow for large |z|."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _examples_to_arrays(examples: Sequence[TrainingExample]):
    heads = np.fromiter((ex.triple.head for ex in examples), dtype=np.int64, count=len(examples))
    rels = np.fromiter((ex.triple.rel for ex in examples), dtype=np.int64, count=len(examples))
    tails = np.fromiter((ex.triple.tail for ex in examples), dtype=np.int64, count=len(examples))
    labels = np.fromiter((ex.label for ex in examples), dtype=np.float64, count=len(examples))
    return heads, rels, tails, labels


def logistic_term(params: ModelParams, examples: Sequence[TrainingExample]) -> float:
    """Sum of log(1 + exp(-label * score)) over the examples."""
    if not examples:
        return 0.0
    heads, rels, tails, labels = _examples_to_arrays(examples)
    phi = score_batch(params, heads, rels, tails)
    return float(softplus(-labels * phi).sum())


def _sq_norm(z: np.ndarray) -> float:
    """Sum of squared real and imaginary parts."""
    return float(np.vdot(z, z).real)


def rule_penalty(
    rel: np.ndarray, rules: RuleArrays
) -> tuple[float, np.ndarray, np.ndarray]:
    """Unweighted entailment penalty of packed rules, and its gradient.

    Rule k compares its premise p (``rel[premise[k]]``, conjugated when
    ``sign[k]`` is -1) with its conclusion q: with delta = p - q and c the
    confidence, it costs ``c * sum(max(0, Re delta) + (Im delta)**2)``.
    Returns the total, then relation ids ``[premise, conclusion]`` and one
    gradient row per id, to be added at that id. The hinge's subgradient at
    the kink is 0, so satisfied constraints stay inert.
    """
    sign = rules.sign[:, None]
    delta = rel[rules.premise]
    delta.imag *= sign
    delta -= rel[rules.conclusion]
    conf = rules.confidence[:, None]
    penalty = float(np.sum(conf * (np.maximum(delta.real, 0.0) + delta.imag**2)))
    grad = conf * ((delta.real > 0.0) + 2j * delta.imag)
    grad_premise = np.where(sign < 0.0, np.conj(grad), grad)
    ids = np.concatenate([rules.premise, rules.conclusion])
    return penalty, ids, np.concatenate([grad_premise, -grad])


def entailment_penalty(params: ModelParams, ents: Iterable[Entailment]) -> float:
    """Total constraint violation over the entailment set (unweighted).

    Zero exactly when every constraint satisfies the sufficient ordering
    condition: premise real part entrywise at most the conclusion real part,
    imaginary parts equal (after conjugating inverted premises).
    """
    return rule_penalty(params.rel, pack_entailments(ents))[0]


def l2_term(
    params: ModelParams,
    entity_rows: Iterable[int],
    relation_rows: Iterable[int],
) -> float:
    """Sum of squares over the given entity and relation rows (unweighted)."""
    ent_ids = np.asarray(sorted(set(entity_rows)), dtype=np.int64)
    rel_ids = np.asarray(sorted(set(relation_rows)), dtype=np.int64)
    return _sq_norm(params.ent[ent_ids]) + _sq_norm(params.rel[rel_ids])


def loss_and_gradient(
    params: ModelParams,
    batch: Sequence[TrainingExample],
    ents: Sequence[Entailment],
    mu: float,
    eta: float,
) -> tuple[LossBreakdown, SparseGrads]:
    """Batch loss and its exact gradient over the touched parameter rows.

    The touched set is every entity/relation row appearing in the batch plus
    every relation row named by an entailment; L2 regularization covers
    exactly that set. Rows outside it are absent from the sparse gradient.
    The hinge-like real-part penalty uses subgradient 0 at the kink, so
    satisfied constraints stay inert.
    """
    heads, rels, tails, labels = _examples_to_arrays(batch)
    return loss_and_gradient_arrays(params, heads, rels, tails, labels, ents, mu, eta)


def loss_and_gradient_arrays(
    params: ModelParams,
    heads: np.ndarray,
    rels: np.ndarray,
    tails: np.ndarray,
    labels: np.ndarray,
    ents: Sequence[Entailment] | RuleArrays,
    mu: float,
    eta: float,
) -> tuple[LossBreakdown, SparseGrads]:
    """Array-native core of :func:`loss_and_gradient` (hot path).

    The L2 gradient is added last, so ``eta=0`` gives the gradient of the
    logistic and entailment terms alone.
    """
    rules = pack_entailments(ents)
    b = heads.size
    ent_ids, ent_pos = np.unique(np.concatenate([heads, tails]), return_inverse=True)
    rel_ids, rel_pos = np.unique(
        np.concatenate([rels, rules.premise, rules.conclusion]), return_inverse=True
    )

    h, r, t = params.ent[heads], params.rel[rels], params.ent[tails]
    # Relation rows: the data partials, then the rule rows in the
    # [premise, conclusion] order of rule_penalty, as rel_pos has them.
    rel_rows = np.empty((rel_pos.size, params.d), dtype=params.rel.dtype)
    d_rel = rel_partial(h, t, out=rel_rows[:b])
    z = -labels * real_dot(r, d_rel)
    logistic = float(softplus(z).sum())
    dphi = (-labels * expit(z))[:, None]
    # Entity rows: head partials, then tail partials.
    ent_rows = np.empty((2 * b, params.d), dtype=params.ent.dtype)
    head_partial(r, t, out=ent_rows[:b])
    tail_partial(h, r, out=ent_rows[b:])
    del h, r, t
    for block in (real_view(ent_rows).reshape(2, b, 2 * params.d), real_view(d_rel)):
        block *= dphi

    penalty, _, rule_grads = rule_penalty(params.rel, rules)
    np.multiply(mu, rule_grads, out=rel_rows[b:])
    g_ent = _segment_sum(ent_pos, ent_rows, ent_ids.size)
    g_rel = _segment_sum(rel_pos, rel_rows, rel_ids.size)
    del ent_rows, rel_rows, d_rel

    ent_rows, rel_rows = params.ent[ent_ids], params.rel[rel_ids]
    l2 = _sq_norm(ent_rows) + _sq_norm(rel_rows)
    if eta != 0.0:
        g_ent += 2.0 * eta * ent_rows
        g_rel += 2.0 * eta * rel_rows

    breakdown = LossBreakdown(
        logistic=logistic,
        entailment_penalty=penalty,
        l2=l2,
        total=logistic + mu * penalty + eta * l2,
    )
    return breakdown, SparseGrads(ent_ids, g_ent, rel_ids, g_rel)


def _segment_sum(pos: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """Complex (size, d) sums ``out[k] = sum(rows[pos == k])``.

    One product of a one-hot CSR matrix with the real view of ``rows``. Each
    output row adds its terms in the order of ``rows``, as ``np.add.at``
    does on a zeroed array, so the sums are the same to the bit.
    """
    real = real_view(rows)
    one_hot = sparse.csr_array(
        (np.ones(pos.size, real.dtype), (pos, np.arange(pos.size))), shape=(size, pos.size)
    )
    return (one_hot @ real).view(rows.dtype)
