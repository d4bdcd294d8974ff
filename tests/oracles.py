"""Independent brute-force oracles used to cross-check the implementation.

The oracles recompute results from first principles (complex arithmetic,
explicit enumeration, sorting, grid search) and deliberately avoid the code
paths under test. The last three functions are reference forms of code
that was rewritten: negative sampling of one positive as a list of
``Triple``s, the gradient scattered with ``np.add.at`` that the training
kernel replaced, and the per-dimension purity loop.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from kgec.data import Triple
from kgec.model import real_dot, real_view
from kgec.objective import (
    LossBreakdown,
    SparseGrads,
    _sq_norm,
    rule_penalty,
    softplus,
)
from kgec.trainer import _corrupt_batch


def oracle_score(params, head: int, rel: int, tail: int) -> float:
    """Triple score via direct complex arithmetic: Re(<h, r, conj(t)>)."""
    h = params.re_e[head] + 1j * params.im_e[head]
    r = params.re_r[rel] + 1j * params.im_r[rel]
    t = params.re_e[tail] + 1j * params.im_e[tail]
    return float(np.real(np.sum(h * r * np.conj(t))))


def oracle_filtered_rank(params, triple, side: str, known) -> int:
    """Materialize every corrupted score, sort descending, scan for the gold.

    Candidates equal to the gold entity or forming known triples are dropped
    before sorting; the rank is one plus the number of retained scores that
    the scan finds strictly above the gold score.
    """
    head, rel, tail = triple
    n = params.re_e.shape[0]
    if side == "head":
        gold = head
        scores = {e: oracle_score(params, e, rel, tail) for e in range(n)}
        filtered = known.heads(rel, tail)
    else:
        gold = tail
        scores = {e: oracle_score(params, head, rel, e) for e in range(n)}
        filtered = known.tails(head, rel)
    gold_score = scores[gold]
    kept = sorted(
        (s for e, s in scores.items() if e != gold and e not in filtered),
        reverse=True,
    )
    rank = 1
    for s in kept:
        if s > gold_score:
            rank += 1
        else:
            break
    return rank


def oracle_mine(triples, min_conf: float, min_support: int):
    """Enumerate every (signed premise, conclusion, entity pair) combination.

    Returns {(premise, inverted, conclusion): (support, body, confidence)}.
    """
    triple_set = {(h, r, t) for h, r, t in triples}
    rels = sorted({r for _, r, _ in triple_set})
    entities = sorted({e for h, _, t in triple_set for e in (h, t)})
    has_conclusion = {
        q: {x for x in entities if any((x, q, y) in triple_set for y in entities)}
        for q in rels
    }
    rules = {}
    for p in rels:
        for inverted in (False, True):
            for q in rels:
                if p == q and not inverted:
                    continue
                support = 0
                body = 0
                for x in entities:
                    for y in entities:
                        premise_holds = (
                            (y, p, x) in triple_set
                            if inverted
                            else (x, p, y) in triple_set
                        )
                        if not premise_holds:
                            continue
                        if x in has_conclusion[q]:
                            body += 1
                        if (x, q, y) in triple_set:
                            support += 1
                if body == 0 or support < min_support:
                    continue
                confidence = support / body
                if confidence > min_conf:
                    rules[(p, inverted, q)] = (support, body, confidence)
    return rules


def slack_grid_minimum(d_re, d_im, confidence: float, step: float = 1e-3) -> float:
    """Grid-minimize the total slack of one constraint.

    Feasible slack entries are alpha >= max(0, c * d_re) and
    beta >= max(0, c * d_im**2), per coordinate; each coordinate's grid runs
    from 0 in ``step`` increments and the smallest feasible point is taken.
    """
    total = 0.0
    bounds = np.concatenate([confidence * np.asarray(d_re), confidence * np.asarray(d_im) ** 2])
    for bound in bounds:
        grid = np.arange(0.0, max(bound, 0.0) + 2 * step, step)
        feasible = grid[grid >= bound]
        total += float(feasible.min())
    return total


def central_difference(loss_fn, matrix, row: int, col: int, h: float = 1e-6) -> float:
    """Central finite difference of ``loss_fn`` w.r.t. one matrix entry."""
    original = matrix[row, col]
    matrix[row, col] = original + h
    f_plus = loss_fn()
    matrix[row, col] = original - h
    f_minus = loss_fn()
    matrix[row, col] = original
    return (f_plus - f_minus) / (2.0 * h)


def sample_negatives(positive, k: int, n: int, rng):
    """Draw ``k`` corrupted variants of ``positive`` as ``Triple``s.

    A list-form wrapper of the trainer's batched corruption: each negative
    replaces exactly one of head/tail (side chosen uniformly per sample) by a
    uniform random entity id different from the original.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    heads, rels, tails = _corrupt_batch(
        np.asarray([positive.head]),
        np.asarray([positive.rel]),
        np.asarray([positive.tail]),
        k,
        n,
        rng,
    )
    return [Triple(int(h), int(r), int(t)) for h, r, t in zip(heads, rels, tails)]


def oracle_scatter_gradients(params, heads, rels, tails, labels, rules, mu: float, eta: float):
    """Reference form of ``loss_and_gradient_arrays``: every gradient term is
    scattered into its row with ``np.add.at`` at the ``searchsorted`` position
    of its id, data terms first (heads, tails, relations), then the rules."""
    ent_ids = np.unique(np.concatenate([heads, tails]))
    rel_ids = np.unique(np.concatenate([rels, rules.premise, rules.conclusion]))
    g_ent = np.zeros((ent_ids.size, params.d), dtype=params.ent.dtype)
    g_rel = np.zeros((rel_ids.size, params.d), dtype=params.rel.dtype)

    h, r, t = params.ent[heads], params.rel[rels], params.ent[tails]
    d_rel = np.conj(h) * t
    z = -labels * real_dot(r, d_rel)
    logistic = float(softplus(z).sum())
    dphi = (-labels * expit(z))[:, None]
    for g, ids, rows, partial in (
        (g_ent, ent_ids, heads, np.conj(r) * t),
        (g_ent, ent_ids, tails, h * r),
        (g_rel, rel_ids, rels, d_rel),
    ):
        grad_rows = real_view(partial)
        grad_rows *= dphi
        np.add.at(real_view(g), np.searchsorted(ids, rows), grad_rows)

    penalty, rule_ids, rule_grads = rule_penalty(params.rel, rules)
    np.add.at(g_rel, np.searchsorted(rel_ids, rule_ids), mu * rule_grads)

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


def oracle_dimension_purity(component, labels, k_percent: float) -> float:
    """Reference form of one purity point: per dimension, sort the labeled
    entities by descending activation then ascending id, take the top
    ceil(K/100 * n_labeled), and average the entropies of their types."""
    labeled_ids = np.asarray(sorted(labels.labels), dtype=np.int64)
    type_ids = np.asarray([labels.labels[i] for i in labeled_ids], dtype=np.int64)
    k = math.ceil(k_percent / 100.0 * labeled_ids.size)
    activations = np.asarray(component, dtype=float)[labeled_ids, :]
    entropies = []
    for dim in range(activations.shape[1]):
        # lexsort: the last key is primary.
        order = np.lexsort((labeled_ids, -activations[:, dim]))
        counts = np.bincount(type_ids[order[:k]], minlength=labels.n_types)
        p = counts[counts > 0] / k
        entropies.append(float(-(p * np.log(p)).sum()))
    return float(np.mean(entropies))
