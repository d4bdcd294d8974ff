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
or tail, against the positive's partial for that slot. It gathers the B·k
replacement rows in cache-sized blocks of positives, scores and sums them
while cached, and keeps no array with a row per negative. Both gradient
tables come from one weighted segment sum over the entity rows (heads, tails
and partials) and the relation rows, relation ids offset by n. Without rules
no rule work is done.
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

_BLOCK_BYTES = 2**21  # entity-row bytes per scoring or L2 block; a block stays in cache


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
    terms alone. Raises IndexError unless every entity and relation id,
    rules' included, is in range.
    """
    b, k = replacement.shape
    n, m, d = params.n_entities, params.n_relations, params.d
    row_ents = np.concatenate([heads, tails, replacement.ravel()])
    row_rels = np.concatenate([rels, rules.premise, rules.conclusion])
    for ids, count, kind in ((row_ents, n, "entity"), (row_rels, m, "relation")):
        if ids.size and not (0 <= ids.min() and ids.max() < count):
            _check_ids([ids.min(), ids.max()], count, kind)

    h, r, t = params.ent[heads], params.rel[rels], params.ent[tails]
    # Rows of q: the head gradients, the tail gradients, positive i's head
    # partial (row 2b + 2i) and tail partial (2b + 2i + 1), then the relation
    # gradients. A negative scores against the partial of the slot it
    # replaces, and its replacement's gradient is its weight times that partial.
    q = np.empty((4 * b + row_rels.size, d), params.ent.dtype)
    partials = q[2 * b : 4 * b].reshape(b, 2, d)
    head_partial(r, t, out=partials[:, 0])
    tail_partial(h, r, out=partials[:, 1])
    z, w, s = _score_negatives(params.ent, partials, corrupt_head, replacement)
    z[:b] = -real_dot(partials[:, 1], t)
    logistic = float(softplus(z).sum())
    w_pos = -expit(z[:b])[:, None]

    # The shared slots, with the positive's own term folded into s: the head
    # gets conj(r)·s_tail, the tail r·s_head, the relation conj(h)·s_tail +
    # conj(s_head)·t (before the fold), then the rule rows in the
    # [premise, conclusion] order of rule_penalty, as row_rels has them.
    s[:, 1] += w_pos * t
    rel_rows = q[4 * b :]
    rel_partial(h, s[:, 1], out=rel_rows[:b])
    rel_rows[:b] += rel_partial(s[:, 0], t)
    s[:, 0] += w_pos * h
    head_partial(r, s[:, 1], out=q[:b])
    tail_partial(s[:, 0], r, out=q[b : 2 * b])
    del h, r, t, partials, s

    penalty = 0.0
    if rules.premise.size:
        penalty, rule_grads = rule_penalty(params.rel, rules)
        np.multiply(mu, rule_grads, out=rel_rows[b:])
    # One segment sum over both tables, relation ids offset by n: heads and
    # tails read their own rows of q, negative (i, j) the partial it scored
    # against with weight w[i, j], relations their own rows.
    row_ids = np.concatenate([row_ents, row_rels + n])
    slot = np.where(corrupt_head, 0, 1)
    cols = np.concatenate([
        np.arange(2 * b), (np.arange(2 * b, 4 * b, 2)[:, None] + slot).ravel(),
        np.arange(4 * b, q.shape[0]),
    ])
    weights = np.ones(row_ids.size, w.dtype)
    weights[2 * b : 2 * b + w.size] = w.ravel()
    unique, g = _segment_sum(row_ids, q, cols, weights)
    del q, rel_rows
    split = np.searchsorted(unique, n)
    ent_ids, g_ent, rel_ids, g_rel = unique[:split], g[:split], unique[split:] - n, g[split:]

    l2 = 0.0
    for grad, table, ids in ((g_ent, params.ent, ent_ids), (g_rel, params.rel, rel_ids)):
        for lo, rows in _blocks(table, ids, max(1, _BLOCK_BYTES // (table.itemsize * d))):
            l2 += _sq_norm(rows)
            if eta != 0.0:
                rows *= 2.0 * eta
                grad[lo : lo + len(rows)] += rows

    breakdown = LossBreakdown(logistic, penalty, l2, logistic + mu * penalty + eta * l2)
    return breakdown, SparseGrads(ent_ids, g_ent, rel_ids, g_rel)


def _blocks(table: np.ndarray, ids: np.ndarray, step: int):
    """Yield (lo, table[ids[lo : lo + step]]) for lo = 0, step, ..., each block
    gathered into one reused buffer (ids range-checked)."""
    buffer = np.empty((min(step, ids.size), table.shape[1]), table.dtype)
    for lo in range(0, ids.size, step):
        out = buffer[: min(step, ids.size - lo)]
        yield lo, np.take(table, ids[lo : lo + step], axis=0, out=out, mode="wrap")


def _score_negatives(ent, partials, corrupt_head, replacement):
    """Negative (i, j)'s score against ``partials[i, 0]`` (its head's partial)
    where ``corrupt_head[i, j]``, else ``partials[i, 1]``, at
    z[b + i·k + j] (z[:b] is left for the positives), its weight w[i, j] =
    expit(score), and s: s[i, 0] and s[i, 1] are the weighted sums of
    positive i's head and tail replacement rows. Blocks of positives whose
    replacement rows fill about ``_BLOCK_BYTES`` are gathered, scored and
    summed while cached."""
    (b, k), d = replacement.shape, ent.shape[1]
    z = np.empty(b * (k + 1), ent.real.dtype)
    neg_z, w = z[b:].reshape(b, k), np.empty((b, k), z.dtype)
    s = np.zeros((b, 2, d), ent.dtype)
    per_block = max(1, _BLOCK_BYTES // (max(k, 1) * ent.itemsize * d))
    for lo, e in _blocks(ent, replacement.ravel(), max(1, per_block * k)):
        i = slice(lo // k, (lo + len(e)) // k)
        e = real_view(e).reshape(-1, k, 2 * d)
        scores = e @ real_view(partials[i]).transpose(0, 2, 1)
        side = corrupt_head[i]
        neg_z[i] = np.where(side, scores[..., 0], scores[..., 1])
        wi = expit(neg_z[i], out=w[i])
        weights = np.stack([np.where(side, wi, 0.0), np.where(side, 0.0, wi)], axis=1)
        np.matmul(weights, e, out=real_view(s[i]))
    return z, w, s


def _segment_sum(ids, rows, cols=None, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unique ``ids`` and, per id, the complex row sum
    ``sum(weights[ids == id] * rows[cols[ids == id]])``.

    Entry e reads row ``cols[e]`` (default e) with weight ``weights[e]``
    (default 1). One stable argsort of ``ids`` gives both results, and the
    sums come from one product of a weighted CSR matrix, one row per unique
    id, with the real view of ``rows``. Each output row adds its terms in
    entry order, as ``np.add.at`` does on a zeroed array, so the sums are the
    same to the bit.
    """
    real = real_view(rows)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.empty(ids.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=starts[1:])
    indptr = np.append(np.flatnonzero(starts), ids.size)
    unique = sorted_ids[starts]
    data = np.ones(ids.size, real.dtype) if weights is None else weights[order]
    columns = order if cols is None else cols[order]
    matrix = sparse.csr_array((data, columns, indptr), (unique.size, rows.shape[0]))
    return unique, (matrix @ real).view(rows.dtype)
