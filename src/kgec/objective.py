"""Training objective: logistic triple loss, entailment penalties on relation
representations, batch-local L2, and their exact sparse gradients.

The entailment constraints enter as closed-form penalties: for a constraint
p -> q with confidence c, the penalty is
``c * sum(max(0, Re(p*) - Re(q))) + c * sum((Im(p*) - Im(q))**2)``
where p* is p itself, or its complex conjugate when the premise is inverted.
This is the analytic optimum of the slack-variable formulation, so no slack
variables are materialized. ``rule_deltas`` computes the residual p* - q of
every rule at once; the penalty and the relation-pair diagnostics of
``analysis`` both read it.

The training kernel scores each negative, which replaces its positive's head
or tail, against the positive's partial for that slot, so it gathers B
positive rows and B·k replacement rows rather than a full triple per negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse
from scipy.special import expit

from .data import Entailment
from .model import ModelParams, _check_ids, head_partial, real_dot, real_view
from .model import rel_partial, tail_partial


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

    def clip_global_norm_(self, cap: float) -> float:
        """Rescale in place so the Euclidean norm over every stored entry is
        at most ``cap``. Returns the norm before clipping.
        """
        norm = float(np.sqrt(_sq_norm(self.ent) + _sq_norm(self.rel)))
        if norm > cap:
            factor = cap / norm
            for block in (self.ent, self.rel):
                real_view(block)[:] *= factor
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


def pack_entailments(ents: Iterable[Entailment]) -> RuleArrays:
    """Pack entailments into :class:`RuleArrays`."""
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


def _sq_norm(z: np.ndarray) -> float:
    """Sum of squared real and imaginary parts."""
    return float(np.vdot(z, z).real)


def rule_deltas(rel: np.ndarray, rules: RuleArrays) -> np.ndarray:
    """Residual rows delta = p* - q, one per rule: the premise row, conjugated
    where ``sign`` is -1, minus the conclusion row."""
    delta = rel[rules.premise]
    delta.imag *= rules.sign[:, None]
    delta -= rel[rules.conclusion]
    return delta


def rule_penalty(rel: np.ndarray, rules: RuleArrays) -> tuple[float, np.ndarray]:
    """Unweighted entailment penalty of packed rules, and its gradient.

    With delta from :func:`rule_deltas` and c the confidence, rule k costs
    ``c * sum(max(0, Re delta) + (Im delta)**2)``.
    Returns the total and one gradient row per relation id of
    ``[premise, conclusion]``, to be added at that id. The hinge's
    subgradient at the kink is 0, so satisfied constraints stay inert.
    """
    sign = rules.sign[:, None]
    delta = rule_deltas(rel, rules)
    conf = rules.confidence[:, None]
    penalty = float(np.sum(conf * (np.maximum(delta.real, 0.0) + delta.imag**2)))
    grad = conf * ((delta.real > 0.0) + 2j * delta.imag)
    grad_premise = np.where(sign < 0.0, np.conj(grad), grad)
    return penalty, np.concatenate([grad_premise, -grad])


def loss_and_gradient_arrays(
    params: ModelParams,
    heads: np.ndarray,
    rels: np.ndarray,
    tails: np.ndarray,
    corrupt_head: np.ndarray,
    replacement: np.ndarray,
    rules: RuleArrays,
    mu: float,
    eta: float,
) -> tuple[LossBreakdown, SparseGrads]:
    """Batch loss and its exact gradient over the touched parameter rows.

    Positive i is (heads[i], rels[i], tails[i]), labelled +1. Its negative j,
    labelled -1, replaces its head where ``corrupt_head[i, j]`` and its tail
    otherwise by entity ``replacement[i, j]`` (both arrays are (B, k)). The
    touched set is every entity/relation row in the batch plus every relation
    row named by a rule; L2 regularization covers exactly that set, and rows
    outside it are absent from the sparse gradient. The L2 gradient is added
    last, so ``eta=0`` gives the gradient of the logistic and entailment
    terms alone.
    """
    b, k = replacement.shape
    # The entity and relation id of each gradient row, in row order.
    row_ents = np.concatenate([heads, tails, replacement.ravel()])
    row_rels = np.concatenate([rels, rules.premise, rules.conclusion])
    if row_ents.size:
        _check_ids([row_ents.min(), row_ents.max()], params.n_entities, "entity")

    h, r, t = params.ent[heads], params.rel[rels], params.ent[tails]
    # Row (i, 0) of ``partials`` is positive i's head partial, (i, 1) its tail
    # partial. A negative scores against the partial of the slot it replaces.
    partials = np.empty((b, 2, params.d), dtype=params.ent.dtype)
    head_partial(r, t, out=partials[:, 0])
    tail_partial(h, r, out=partials[:, 1])
    slot = np.where(corrupt_head, 0, 1)
    # Entity rows: heads, tails, then one per negative, holding its replacement's
    # embedding, later its gradient. "wrap" takes (ids checked) skip a copy.
    ent_rows = np.empty((2 * b + b * k, params.d), dtype=params.ent.dtype)
    replaced = ent_rows[2 * b :]
    np.take(params.ent, replacement.ravel(), axis=0, out=replaced, mode="wrap")
    e = real_view(replaced).reshape(b, k, 2 * params.d)
    neg_scores = np.take_along_axis(e @ real_view(partials).transpose(0, 2, 1), slot[..., None], 2)
    z = np.concatenate([-real_dot(partials[:, 1], t), neg_scores.ravel()])
    logistic = float(softplus(z).sum())
    w = expit(z)
    w_pos, w = -w[:b, None], w[b:].reshape(b, k)

    # s[:, 0] and s[:, 1]: the weighted sums of each positive's head and tail
    # replacements. A replacement's gradient is its weight times its partial.
    weights = np.stack([np.where(corrupt_head, w, 0.0), np.where(corrupt_head, 0.0, w)], axis=1)
    s = (weights @ e).view(params.ent.dtype)
    np.take(partials.reshape(2 * b, params.d), 2 * np.arange(b)[:, None] + slot,
            axis=0, out=replaced.reshape(b, k, params.d), mode="wrap")
    real_view(replaced)[:] *= w.reshape(-1, 1)
    # The shared slots, with the positive's own term folded into s: the head
    # gets conj(r)·s_tail, the tail r·s_head, the relation conj(h)·s_tail +
    # conj(s_head)·t (before the fold), then the rule rows in the
    # [premise, conclusion] order of rule_penalty, as row_rels has them.
    s[:, 1] += w_pos * t
    rel_rows = np.empty((row_rels.size, params.d), dtype=params.rel.dtype)
    rel_partial(h, s[:, 1], out=rel_rows[:b])
    rel_rows[:b] += rel_partial(s[:, 0], t)
    s[:, 0] += w_pos * h
    head_partial(r, s[:, 1], out=ent_rows[:b])
    tail_partial(s[:, 0], r, out=ent_rows[b : 2 * b])
    del h, r, t, e, partials, s

    penalty, rule_grads = rule_penalty(params.rel, rules)
    np.multiply(mu, rule_grads, out=rel_rows[b:])
    ent_ids, g_ent = _segment_sum(row_ents, ent_rows)
    rel_ids, g_rel = _segment_sum(row_rels, rel_rows)

    # The touched entity rows go into the spent row buffer for the L2 term.
    ent_rows = np.take(params.ent, ent_ids, axis=0, out=ent_rows[: ent_ids.size], mode="wrap")
    rel_rows = params.rel[rel_ids]
    l2 = _sq_norm(ent_rows) + _sq_norm(rel_rows)
    if eta != 0.0:
        for grad, rows in ((g_ent, ent_rows), (g_rel, rel_rows)):
            rows *= 2.0 * eta
            grad += rows

    breakdown = LossBreakdown(
        logistic=logistic,
        entailment_penalty=penalty,
        l2=l2,
        total=logistic + mu * penalty + eta * l2,
    )
    return breakdown, SparseGrads(ent_ids, g_ent, rel_ids, g_rel)


def _segment_sum(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unique ``ids`` and, per id, the complex row sum
    ``sum(rows[ids == id])``.

    One stable argsort of ``ids`` gives both, and the sums come from one
    product of a one-hot CSR matrix with the real view of ``rows``. Each
    output row adds its terms in the order of ``rows``, as ``np.add.at`` does
    on a zeroed array, so the sums are the same to the bit.
    """
    real = real_view(rows)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.empty(ids.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=starts[1:])
    indptr = np.append(np.flatnonzero(starts), ids.size)
    unique = sorted_ids[starts]
    one_hot = sparse.csr_array((np.ones(ids.size, real.dtype), order, indptr), (unique.size, ids.size))
    return unique, (one_hot @ real).view(rows.dtype)
