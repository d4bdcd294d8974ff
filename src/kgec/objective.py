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

The training kernel works through the positives in cache-sized blocks. Each
block gathers its own head, relation and tail rows and its B·k replacement
rows, scores each negative against its positive's partial for the slot it
replaces, and writes the block's gradient rows straight into the matrix the
segment sum reads; no other array has a row per positive or per negative.
Both gradient tables come from one weighted segment sum over the entity rows
(heads, tails and partials) and the relation rows, relation ids offset by n.
Without rules no rule work is done.

Every block loop of the step, here and in ``trainer.adagrad_step``, and the
chunk loop of ``evaluation.evaluate`` is one call of ``_per_block``: it calls
a one-block function once per block, in block order, and spreads the blocks
over contiguous parts, at most one per usable CPU, on one thread pool. Blocks
touch disjoint rows and sums of squares come from ``einsum`` per block, added
in block order, not from BLAS, so results do not depend on the number of
CPUs or of BLAS threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse
from scipy.special import expit

from .data import Entailment
from .model import ModelParams, _check_ids, head_partial, real_dot, real_view
from .model import rel_partial, tail_partial

_BLOCK_BYTES = 2**21  # row bytes per scoring, L2, norm or scale block; a block stays in cache
# Block loops run in at most one contiguous part per usable CPU: the first on
# the calling thread, the others on the pool.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _new_pool() -> None:
    """Make the pool; a forked child gets a new one, since the parent's
    threads are not copied into it and its pool would never run a part."""
    global _POOL
    _POOL = ThreadPoolExecutor(max(1, _WORKERS - 1), thread_name_prefix="kgec-block")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


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
        norm = math.sqrt(_sq_norm(self.ent) + _sq_norm(self.rel))
        if norm > cap:
            for grad in (self.ent, self.rel):
                step = _block_rows(grad, _BLOCK_BYTES)
                _per_block(_scale_rows, len(grad), step, grad, cap / norm)
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
    """Sum of squared real and imaginary parts of a (rows, d) array: one
    ``einsum`` per block of rows, the block sums added in block order. No BLAS
    call and no thread count enters it, so the result depends on the data
    alone."""
    return float(sum(_per_block(_sum_sq, len(z), _block_rows(z, _BLOCK_BYTES), z), 0.0))


def _sum_sq(z: np.ndarray, a: int = 0, e: int | None = None) -> float:
    """Sum of squares of the real view of the complex rows ``z[a:e]``."""
    x = real_view(z[a:e]).reshape(-1)
    return np.einsum("i,i->", x, x)


def _block_rows(z: np.ndarray, budget: int, per_item: int = 1) -> int:
    """How many items of ``per_item`` rows of the (rows, d) array ``z`` fill a
    block of about ``budget`` bytes; at least 1."""
    return max(1, budget // (max(per_item, 1) * z.itemsize * z.shape[1]))


def _scale_rows(z: np.ndarray, factor: float, a: int, e: int) -> None:
    real_view(z[a:e])[:] *= factor


def _per_block(fn, size: int, step: int, *args, parts: float = math.inf) -> list:
    """``[fn(*args, a, e), ...]`` for the blocks ``a:e`` of ``step`` rows that
    cut range(size), in block order.

    The blocks are spread over contiguous parts: at most ``parts``, one per
    usable CPU and one per block. The first runs on the calling thread, the
    others on the pool, and all have finished when this returns. ``fn`` must
    touch only its own block's rows, so every block does the same arithmetic
    for any number of parts, and must never call ``_per_block``, or a part on
    the pool would wait on the pool itself.
    """
    if size <= step:
        return [fn(*args, 0, size)] if size else []
    blocks = -(-size // step)
    per = -(-blocks // min(max(parts, 1), _WORKERS, blocks)) * step
    futures = [_POOL.submit(_blocks, fn, step, args, lo, min(lo + per, size))
               for lo in range(per, size, per)]
    try:
        first = _blocks(fn, step, args, 0, min(per, size))
    finally:
        wait(futures)
    return first + [value for future in futures for value in future.result()]


def _blocks(fn, step: int, args: tuple, lo: int, hi: int) -> list:
    """One part: ``fn(*args, a, e)`` for each block of ``step`` rows in ``lo:hi``."""
    return [fn(*args, a, min(a + step, hi)) for a in range(lo, hi, step)]


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
    _check_ids(row_ents, n, "entity")
    _check_ids(row_rels, m, "relation")

    # Rows of q: the head gradients, the tail gradients, positive i's head
    # partial (row 2b + 2i) and tail partial (2b + 2i + 1), the positives'
    # relation gradients, then the rule rows in the [premise, conclusion]
    # order of rule_penalty, as row_rels has them. Each block of positives
    # fills its own rows, z[i] and z[b + i·k + j] (positive i and its
    # negatives), and w[i].
    q = np.empty((4 * b + row_rels.size, d), params.ent.dtype)
    z = np.empty(b * (k + 1), params.ent.real.dtype)
    w = np.empty((b, k), z.dtype)
    _per_block(_positive_block, b, _block_rows(params.ent, _BLOCK_BYTES, k),
               params, heads, rels, tails, corrupt_head, replacement, q, z, w)
    logistic = float(softplus(z).sum())

    penalty = 0.0
    if rules.premise.size:
        penalty, rule_grads = rule_penalty(params.rel, rules)
        np.multiply(mu, rule_grads, out=q[5 * b :])
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
    del q
    split = np.searchsorted(unique, n)
    ent_ids, g_ent, rel_ids, g_rel = unique[:split], g[:split], unique[split:] - n, g[split:]

    l2 = 0.0
    for grad, table, ids in ((g_ent, params.ent, ent_ids), (g_rel, params.rel, rel_ids)):
        step = _block_rows(table, _BLOCK_BYTES)
        l2 = sum(_per_block(_l2_block, ids.size, step, grad, table, ids, eta), l2)
    l2 = float(l2)

    breakdown = LossBreakdown(logistic, penalty, l2, logistic + mu * penalty + eta * l2)
    return breakdown, SparseGrads(ent_ids, g_ent, rel_ids, g_rel)


def _positive_block(params, heads, rels, tails, corrupt_head, replacement, q, z, w, a, e):
    """Positives ``a:e`` of the kernel: gather their h, r and t rows and their
    B·k replacement rows, and write their rows of ``q``, ``z`` and ``w``.

    A negative scores against its positive's partial for the slot it
    replaces, at z[b + i·k + j], and its weight is w[i, j] = expit(score);
    the replacement's gradient is that weight times the partial. s[:, 0] and
    s[:, 1] sum the weighted head and tail replacement rows. The shared
    slots, with the positive's own term folded into s: the head gets
    conj(r)·s_tail, the tail r·s_head, the relation conj(h)·s_tail +
    conj(s_head)·t (before the fold).
    """
    ent, rel, (b, k), d = params.ent, params.rel, replacement.shape, params.d
    h, r, t = ent[heads[a:e]], rel[rels[a:e]], ent[tails[a:e]]
    p = q[2 * b : 4 * b].reshape(b, 2, d)[a:e]
    head_partial(r, t, out=p[:, 0])
    tail_partial(h, r, out=p[:, 1])
    np.negative(real_dot(p[:, 1], t), out=z[a:e])
    rows = real_view(np.take(ent, replacement[a:e].ravel(), axis=0, mode="wrap"))
    rows = rows.reshape(e - a, k, 2 * d)
    scores = rows @ real_view(p).transpose(0, 2, 1)
    side = corrupt_head[a:e]
    neg_z = z[b:].reshape(b, k)[a:e]
    neg_z[:] = np.where(side, scores[..., 0], scores[..., 1])
    wi = expit(neg_z, out=w[a:e])
    weights = np.stack([np.where(side, wi, 0.0), np.where(side, 0.0, wi)], axis=1)
    s = (weights @ rows).view(ent.dtype)
    del rows, scores, weights  # the slots' temporaries reuse this memory
    w_pos = -expit(z[a:e])[:, None]
    s[:, 1] += w_pos * t
    rel_partial(h, s[:, 1], out=q[4 * b + a : 4 * b + e])
    q[4 * b + a : 4 * b + e] += rel_partial(s[:, 0], t)
    s[:, 0] += w_pos * h
    head_partial(r, s[:, 1], out=q[a:e])
    tail_partial(s[:, 0], r, out=q[b + a : b + e])


def _l2_block(grad, table, ids, eta, a, e) -> float:
    """Gather ``table``'s rows ``ids[a:e]``, add 2·eta times them to their
    rows of ``grad``, and return their sum of squares."""
    rows = np.take(table, ids[a:e], axis=0, mode="wrap")
    sq = _sum_sq(rows)
    if eta != 0.0:
        rows *= 2.0 * eta
        grad[a:e] += rows
    return sq


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
    starts = np.empty(ids.size + 1, dtype=bool)  # a row starts here; the last marks the end
    starts[0] = starts[-1] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=starts[1:-1])
    indptr = np.flatnonzero(starts)
    unique = sorted_ids[starts[:-1]]
    data = np.ones(ids.size, real.dtype) if weights is None else weights[order]
    columns = order if cols is None else cols[order]
    matrix = sparse.csr_array((data, columns, indptr), (unique.size, rows.shape[0]))
    return unique, (matrix @ real).view(rows.dtype)
