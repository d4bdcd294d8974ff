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
Both gradient tables come from one weighted segment sum (a CSR matrix) over
the entity rows (heads, tails and partials) and the relation rows, relation
ids offset by n. Each table's touched rows are then finished in one pass of
blocks: a block writes its rows of the CSR product, adds its L2 term and sums
its squares for the norm while they are in cache, so the clip only scales.
Without rules no rule work is done.

Every block loop of the step, here and in ``trainer.adagrad_step``, the
chunk loop of ``evaluation.evaluate`` and the heatmap and purity loops of
``analysis`` are one call of ``_per_block`` each: it calls a one-block
function once per block, in block order, and spreads the blocks over
contiguous parts, at most one per usable CPU, on one thread pool. Blocks touch
disjoint rows and sums of squares come from ``einsum`` per block, added in
block order, not from BLAS, so results do not depend on the number of CPUs or
of BLAS threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.sparse import _sparsetools  # the CSR product, written into a given array
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
    ``sq_norm`` is the sum of squares of every stored entry.
    """

    ent_ids: np.ndarray
    ent: np.ndarray
    rel_ids: np.ndarray
    rel: np.ndarray
    sq_norm: float

    def clip_global_norm_(self, cap: float) -> float:
        """Rescale in place so the Euclidean norm over every stored entry is
        at most ``cap``, taking the norm from ``sq_norm``, and record cap² as
        the new ``sq_norm`` if it rescaled. Returns the norm before clipping.
        """
        norm = math.sqrt(self.sq_norm)
        if norm > cap:
            for grad in (self.ent, self.rel):
                _per_block(_scale_rows, len(grad), _block_rows(grad, _BLOCK_BYTES), grad, cap / norm)
            self.sq_norm = cap * cap
        return norm


@dataclass(frozen=True)
class RuleArrays:
    """Entailments packed as parallel arrays, one entry per rule.

    ``inverted`` is True where the premise is inverted, and so conjugated.
    """

    premise: np.ndarray
    conclusion: np.ndarray
    inverted: np.ndarray
    confidence: np.ndarray


def pack_entailments(ents: Iterable[Entailment]) -> RuleArrays:
    """Pack entailments into :class:`RuleArrays`."""
    ents = list(ents)
    return RuleArrays(
        premise=np.array([e.premise_rel for e in ents], dtype=np.int64),
        conclusion=np.array([e.conclusion_rel for e in ents], dtype=np.int64),
        inverted=np.array([e.premise_inverted for e in ents], dtype=bool),
        confidence=np.array([e.confidence for e in ents], dtype=float),
    )


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) without overflow for large |z|."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


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
    where ``inverted``, minus the conclusion row."""
    delta = rel[rules.premise]
    np.conjugate(delta, out=delta, where=rules.inverted[:, None])
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
    delta = rule_deltas(rel, rules)
    conf = rules.confidence[:, None]
    penalty = float(np.sum(conf * (np.maximum(delta.real, 0.0) + delta.imag**2)))
    grad = conf * ((delta.real > 0.0) + 2j * delta.imag)
    grads = np.concatenate([grad, -grad])
    np.conjugate(grad, out=grads[: len(grad)], where=rules.inverted[:, None])  # inverted premises
    return penalty, grads


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
    out: np.ndarray,
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

    The gradient rows are written into the head of ``out``, a C-contiguous
    (n + m, d) array of the parameters' dtype, and the returned gradients are
    views of it, valid until its next use.
    """
    b, k = replacement.shape
    n, m, d = params.n_entities, params.n_relations, params.d
    row_rels = np.concatenate([rels, rules.premise, rules.conclusion])
    _check_ids(np.concatenate([heads, tails, replacement.ravel()]), n, "entity")
    _check_ids(row_rels, m, "relation")
    if out.shape != (n + m, d) or out.dtype != params.ent.dtype or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous ({n + m}, {d}) {params.ent.dtype} array")

    # Rows of q, in the order of the segment sum's entries: the head, tail
    # and relation gradients, the rule rows in the [premise, conclusion]
    # order of rule_penalty, then positive i's head partial (row own + 2i)
    # and tail partial (own + 2i + 1). Heads, tails, relations and rules read
    # their own rows with weight 1; negative (i, j) reads the partial it
    # scored against with weight w[i, j]. Relation ids are offset by n, so
    # the two tables share one segment sum. Each block of positives fills its
    # own rows of q, z (z[i] and z[b + i·k + j]) and w.
    own = 3 * b + 2 * rules.premise.size
    q = np.empty((own + 2 * b, d), params.ent.dtype)
    z = np.empty(b * (k + 1), params.ent.real.dtype)
    weights = np.ones(own + b * k, z.dtype)
    w = weights[own:].reshape(b, k)
    _per_block(_positive_block, b, _block_rows(params.ent, _BLOCK_BYTES, k),
               params, heads, rels, tails, corrupt_head, replacement, q, z, w)
    logistic = float(softplus(z).sum())

    penalty = 0.0
    if rules.premise.size:
        penalty, rule_grads = rule_penalty(params.rel, rules)
        np.multiply(mu, rule_grads, out=q[3 * b : own])
    row_ids = np.concatenate([heads, tails, row_rels + n, replacement.ravel()])
    partials = np.arange(own, own + 2 * b, 2)[:, None] + np.where(corrupt_head, 0, 1)
    cols = np.concatenate([np.arange(own), partials.ravel()])
    unique, indptr, columns, data = _segment_sum(row_ids, cols, weights)
    split = np.searchsorted(unique, n)
    ent_ids, g_ent, rel_ids, g_rel = unique[:split], out[:split], unique[split:] - n, out[split : unique.size]

    # Per table, the block sums of the L2 term and of the norm, added in block order.
    l2 = sq_norm = 0.0
    for grad, table, ids, ptr in ((g_ent, params.ent, ent_ids, indptr),
                                  (g_rel, params.rel, rel_ids, indptr[split:])):
        sums = _per_block(_grad_block, ids.size, _block_rows(table, _BLOCK_BYTES),
                          ptr, columns, data, real_view(q), grad, table, ids, eta)
        l2 += float(sum((block_l2 for block_l2, _ in sums), 0.0))
        sq_norm += float(sum((block_sq for _, block_sq in sums), 0.0))

    breakdown = LossBreakdown(logistic, penalty, l2, logistic + mu * penalty + eta * l2)
    return breakdown, SparseGrads(ent_ids, g_ent, rel_ids, g_rel, sq_norm)


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
    p = q[len(q) - 2 * b :].reshape(b, 2, d)[a:e]
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
    rel_partial(h, s[:, 1], out=q[2 * b + a : 2 * b + e])
    q[2 * b + a : 2 * b + e] += rel_partial(s[:, 0], t)
    s[:, 0] += w_pos * h
    head_partial(r, s[:, 1], out=q[a:e])
    tail_partial(s[:, 0], r, out=q[b + a : b + e])


def _grad_block(indptr, columns, data, real, grad, table, ids, eta, a, e) -> tuple[float, float]:
    """Gradient rows ``a:e``: write rows ``a:e`` of the product of the CSR
    matrix ``(indptr, columns, data)`` with ``real``, gather ``table``'s rows
    ``ids[a:e]`` and add 2·eta times them. Returns the sum of squares of the
    gathered rows and of the finished gradient rows."""
    lo, hi = indptr[a], indptr[e]
    out = real_view(grad[a:e])
    out[:] = 0.0  # the product adds into its output, as scipy's own `@` does on zeros
    _sparsetools.csr_matvecs(e - a, real.shape[0], real.shape[1], indptr[a : e + 1] - lo,
                             columns[lo:hi], data[lo:hi], real.reshape(-1), out.reshape(-1))
    rows = np.take(table, ids[a:e], axis=0, mode="wrap")
    sq = _sum_sq(rows)
    if eta != 0.0:
        rows *= 2.0 * eta
        grad[a:e] += rows
    return sq, _sum_sq(grad, a, e)


def _segment_sum(ids, cols, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sorted unique ``ids`` and the weighted CSR matrix, one row per
    unique id, as ``indptr, columns, data``: its product with the real view
    of a complex array ``rows`` gives each id the row sum
    ``sum(weights[ids == id] * rows[cols[ids == id]])``.

    One stable argsort of ``ids`` gives both results; it sorts them in the
    smallest unsigned type that holds them, a radix sort below 2**16. Each row
    keeps its entries in entry order, and the product adds them in that
    order, as ``np.add.at`` does on a zeroed array, so the sums are the same
    to the bit for any cut of the rows into blocks.
    """
    order = np.argsort(ids.astype(np.min_scalar_type(ids.max(initial=0))), kind="stable")
    sorted_ids = ids[order]
    starts = np.empty(ids.size + 1, dtype=bool)  # a row starts here; the last marks the end
    starts[0] = starts[-1] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=starts[1:-1])
    return sorted_ids[starts[:-1]], np.flatnonzero(starts), cols[order], weights[order]
