"""Independent brute-force oracles used to cross-check the implementation.

The oracles recompute results from first principles (complex arithmetic,
explicit enumeration, sorting, grid search) and deliberately avoid the code
paths under test. The functions from ``sample_negatives`` on are reference
forms of code that was rewritten: negative sampling as materialised triples,
the gradient of a labelled batch scattered with ``np.add.at``, the
entailment penalty and its gradient one rule at a time, the segment
sum as ``np.add.at``, the AdaGrad step with a temporary per pass, the
row-by-row heatmap, the per-dimension purity loop, the per-pair relation
diagnostic, the set-based relation-pair classifier, the training kernel
with one buffer row per entity term, and the file reader and triple loader
that decode one line at a time. ``oracle_sq_norm`` is the blocked sum
of squares that the kernel's L2 term and norm must equal to the bit.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from scipy.special import expit

from kgec import objective
from kgec.data import IdMap, ParseError, Triple, Vocab, VocabularyError
from kgec.model import _check_ids, head_partial, real_dot, real_view, rel_partial, tail_partial
from kgec.objective import (
    LossBreakdown,
    SparseGrads,
    _block_rows,
    _per_block,
    _sum_sq,
    softplus,
)
from kgec.trainer import _ADAGRAD_EPSILON, _corrupt_batch


def oracle_sq_norm(z: np.ndarray) -> float:
    """Sum of squared real and imaginary parts of a (rows, d) array: one
    ``einsum`` per block of rows, the block sums added in block order, as the
    training kernel sums the norm and the L2 term. No BLAS call and no thread
    count enters it, so the result depends on the data alone."""
    return float(sum(_per_block(_sum_sq, len(z), _block_rows(z, objective._BLOCK_BYTES), z), 0.0))


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
        filtered = set(known.heads([rel], [tail])[1].tolist())
    else:
        gold = tail
        scores = {e: oracle_score(params, head, rel, e) for e in range(n)}
        filtered = set(known.tails([head], [rel])[1].tolist())
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


def oracle_corrupt_batch(heads, rels, tails, k: int, n: int, rng):
    """Reference form of the trainer's batched corruption: k negatives per
    positive as materialised (neg_h, neg_r, neg_t), flattened positive-major,
    from the same random draws."""
    if n < 2:
        raise ValueError("need at least 2 entities to corrupt a triple")
    b = heads.size
    neg_h = np.repeat(heads, k)
    neg_r = np.repeat(rels, k)
    neg_t = np.repeat(tails, k)
    corrupt_head = rng.integers(0, 2, size=b * k).astype(bool)
    original = np.where(corrupt_head, neg_h, neg_t)
    replacement = rng.integers(0, n, size=b * k)
    bad = replacement == original
    while bad.any():
        replacement[bad] = rng.integers(0, n, size=int(bad.sum()))
        bad = replacement == original
    neg_h = np.where(corrupt_head, replacement, neg_h)
    neg_t = np.where(corrupt_head, neg_t, replacement)
    return neg_h, neg_r, neg_t


def labelled_batch(heads, rels, tails, corrupt_head, replacement):
    """The positives and their negatives, given as the training kernel takes
    them, as one labelled batch ``(heads, rels, tails, labels)``: positives
    first (+1), then each positive's negatives in order (-1)."""
    k = replacement.shape[1]
    neg_h = np.where(corrupt_head, replacement, heads[:, None]).ravel()
    neg_t = np.where(corrupt_head, tails[:, None], replacement).ravel()
    return (
        np.concatenate([heads, neg_h]),
        np.concatenate([rels, np.repeat(rels, k)]),
        np.concatenate([tails, neg_t]),
        np.concatenate([np.ones(heads.size), -np.ones(neg_h.size)]),
    )


def sample_negatives(positive, k: int, n: int, rng):
    """Draw ``k`` corrupted variants of ``positive`` as ``Triple``s.

    A list-form wrapper of the trainer's batched corruption: each negative
    replaces exactly one of head/tail (side chosen uniformly per sample) by a
    uniform random entity id different from the original.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    positives = [np.asarray([x]) for x in positive]
    corruptions = _corrupt_batch(positives[0], positives[2], k, n, rng)
    heads, rels, tails, _ = labelled_batch(*positives, *corruptions)
    return [Triple(int(h), int(r), int(t)) for h, r, t in zip(heads[1:], rels[1:], tails[1:])]


def oracle_rule_penalty(rel, rules):
    """Reference form of ``rule_penalty``, one rule at a time. The premise p*
    is the premise row, or its complex conjugate when the premise is
    inverted; delta = p* - q. Rule k costs c times the hinge max(0, Re delta)
    plus the squared imaginary gap (Im delta)**2, per coordinate; its
    gradient with respect to delta is c * (1[Re delta > 0] + 2i Im delta).
    The conclusion row gets minus that, and the premise row gets it, or its
    conjugate when the premise is inverted, since p* = conj(p) flips the
    imaginary derivative. The costs are summed in one ``np.sum``, as
    ``rule_penalty`` sums them."""
    costs, premise_grads, conclusion_grads = [], [], []
    for p, q, inverted, c in zip(rules.premise, rules.conclusion, rules.inverted, rules.confidence):
        premise = np.conj(rel[p]) if inverted else rel[p]
        delta = premise - rel[q]
        costs.append(c * (np.maximum(delta.real, 0.0) + delta.imag**2))
        hinge = np.where(delta.real > 0.0, 1.0, 0.0)
        grad = c * (hinge + 2j * delta.imag)
        premise_grads.append(np.conj(grad) if inverted else grad)
        conclusion_grads.append(-grad)
    d = rel.shape[1]
    penalty = float(np.sum(np.reshape(costs, (-1, d))))
    return penalty, np.reshape(premise_grads + conclusion_grads, (-1, d))


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

    penalty, rule_grads = oracle_rule_penalty(params.rel, rules)
    rule_ids = np.concatenate([rules.premise, rules.conclusion])
    np.add.at(g_rel, np.searchsorted(rel_ids, rule_ids), mu * rule_grads)

    ent_rows, rel_rows = params.ent[ent_ids], params.rel[rel_ids]
    l2 = oracle_sq_norm(ent_rows) + oracle_sq_norm(rel_rows)
    if eta != 0.0:
        g_ent += 2.0 * eta * ent_rows
        g_rel += 2.0 * eta * rel_rows

    breakdown = LossBreakdown(
        logistic=logistic,
        entailment_penalty=penalty,
        l2=l2,
        total=logistic + mu * penalty + eta * l2,
    )
    return breakdown, SparseGrads(ent_ids, g_ent, rel_ids, g_rel, oracle_sq_norm(g_ent) + oracle_sq_norm(g_rel))


def oracle_adagrad_step(params, grads, state, lr: float, project: bool = False) -> None:
    """Reference form of ``adagrad_step``, one temporary per pass: gather the
    accumulator rows, add g*g, scatter them back, then step and clamp the
    gathered parameter rows and scatter those."""
    updates = (
        (grads.ent_ids, grads.ent, params.ent, state.acc_ent, project),
        (grads.rel_ids, grads.rel, params.rel, state.acc_rel, False),
    )
    for ids, grad, param, acc, clamp in updates:
        if ids.size == 0:
            continue
        grad = real_view(grad)
        step = acc[ids]
        step += grad * grad
        acc[ids] = step
        np.sqrt(step, out=step)
        step += _ADAGRAD_EPSILON
        np.divide(grad, step, out=step)
        step *= lr
        param = real_view(param)
        rows = param[ids]
        rows -= step
        if clamp:
            np.clip(rows, 0.0, 1.0, out=rows)
        param[ids] = rows


def oracle_heatmap(component, entity_ids) -> np.ndarray:
    """Reference form of the heatmap, one row at a time: the selected row in
    float64, minus its minimum, over its range; a constant row is zeros."""
    rows = []
    for entity in entity_ids:
        x = np.asarray(component[entity], dtype=float)
        lo, hi = x.min(), x.max()
        rows.append(np.zeros_like(x) if hi == lo else (x - lo) / (hi - lo))
    return np.array(rows).reshape(len(rows), np.shape(component)[1])


def oracle_dimension_purity(component, labels, k_percent: float) -> float:
    """Reference form of one purity point: per dimension, sort the labeled
    entities by descending activation then ascending id, take the top
    ceil(K * n_labeled / 100), and average the entropies of their types."""
    labeled_ids, type_ids = labels.entities, labels.types
    k = math.ceil(k_percent * labeled_ids.size / 100)
    activations = np.asarray(component, dtype=float)[labeled_ids, :]
    entropies = []
    for dim in range(activations.shape[1]):
        # lexsort: the last key is primary.
        order = np.lexsort((labeled_ids, -activations[:, dim]))
        counts = np.bincount(type_ids[order[:k]], minlength=labels.n_types)
        p = counts[counts > 0] / k
        entropies.append(float(-(p * np.log(p)).sum()))
    return float(np.mean(entropies))


def oracle_relation_pair_diagnostic(params, pair, kind: str, premise_inverted: bool = False) -> dict:
    """Residuals of one (r_p, r_q) pair under its class's ideal structure.

    Equivalence pairs should have identical representations; inversion pairs
    should be complex conjugates; for the rest the premise real part should
    stay entrywise below the conclusion's with matching imaginary parts.
    ``premise_inverted`` conjugates r_p first (only meaningful for "others").
    """
    p, q = pair
    rep_p = np.conj(params.rel[p]) if premise_inverted else params.rel[p]
    rep_q = np.conj(params.rel[q]) if kind == "inversion" else params.rel[q]
    diff = rep_p - rep_q
    if kind in ("equivalence", "inversion"):
        return {"max_abs_diff": max(float(np.abs(diff.real).max()), float(np.abs(diff.imag).max()))}
    return {
        "re_violation": float(np.maximum(diff.real, 0.0).max()),
        "im_max_abs_diff": float(np.abs(diff.imag).max()),
    }


def oracle_classify_pairs(rules, thresh: float):
    """Equivalence pairs, inversion pairs and the remaining rules, from sets.

    (p, q) is an equivalence pair when p -> q and q -> p both appear
    (non-inverted) with confidence above ``thresh``; an inversion pair when
    the two inverted-premise directions both appear above ``thresh``. A rule
    whose (min, max) pair is classified under its own sign is absorbed; the
    rest are kept in order.
    """
    forward: set[tuple[int, int]] = set()
    inverted: set[tuple[int, int]] = set()
    for ent in rules:
        if ent.confidence > thresh:
            key = (ent.premise_rel, ent.conclusion_rel)
            (inverted if ent.premise_inverted else forward).add(key)

    equivalence = sorted({(p, q) for p, q in forward if p < q and (q, p) in forward})
    inversion = sorted({(min(p, q), max(p, q)) for p, q in inverted if (q, p) in inverted})
    eq_set, inv_set = set(equivalence), set(inversion)

    others = []
    for ent in rules:
        key = (
            min(ent.premise_rel, ent.conclusion_rel),
            max(ent.premise_rel, ent.conclusion_rel),
        )
        if key not in (inv_set if ent.premise_inverted else eq_set):
            others.append(ent)
    return equivalence, inversion, others


def oracle_row_buffer_kernel(
    params, heads, rels, tails, corrupt_head, replacement, rules, mu: float, eta: float
):
    """Reference form of ``loss_and_gradient_arrays`` with one buffer row
    per entity term: B head rows, B tail rows and B·k replacement rows, each
    replacement's gradient scaled into its row, then one unweighted segment
    sum, and L2 over all touched entity rows in one pass."""
    b, k = replacement.shape
    # The entity and relation id of each gradient row, in row order.
    row_ents = np.concatenate([heads, tails, replacement.ravel()])
    row_rels = np.concatenate([rels, rules.premise, rules.conclusion])
    _check_ids(row_ents, params.n_entities, "entity")

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

    penalty, rule_grads = oracle_rule_penalty(params.rel, rules)
    np.multiply(mu, rule_grads, out=rel_rows[b:])
    ent_ids, g_ent = oracle_segment_sum(row_ents, ent_rows)
    rel_ids, g_rel = oracle_segment_sum(row_rels, rel_rows)

    # The touched entity rows go into the spent row buffer for the L2 term.
    ent_rows = np.take(params.ent, ent_ids, axis=0, out=ent_rows[: ent_ids.size], mode="wrap")
    rel_rows = params.rel[rel_ids]
    l2 = oracle_sq_norm(ent_rows) + oracle_sq_norm(rel_rows)
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
    return breakdown, SparseGrads(ent_ids, g_ent, rel_ids, g_rel, oracle_sq_norm(g_ent) + oracle_sq_norm(g_rel))


def oracle_segment_sum(ids, rows):
    """The sorted unique ``ids`` and, per id, the sum of its ``rows``, added
    in row order by ``np.add.at`` on zeros."""
    unique = np.unique(ids)
    sums = np.zeros((unique.size, rows.shape[1]), rows.dtype)
    np.add.at(sums, np.searchsorted(unique, ids), rows)
    return unique, sums


def oracle_read_lines(path):
    """``(lineno, line)`` per line of a UTF-8 file, each line decoded on its
    own; only the LF or CRLF terminator, and a byte-order mark that starts
    the first line, are removed."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if lineno == 1:
                raw = raw.removeprefix(b"\xef\xbb\xbf")
                if not raw:  # the file held the mark alone
                    return
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield lineno, line.removesuffix("\n").removesuffix("\r")


def grow_id(idmap: IdMap, name: str) -> int:
    """The id of ``name`` in ``idmap``, given the next free id if unseen."""
    ids = idmap._name_to_id
    return ids.setdefault(name, len(ids))


def oracle_load_triples(path, vocab=None, grow=True):
    """A triple TSV file read line by line through :func:`oracle_read_lines`,
    each name resolved through :func:`grow_id` (grow) or ``IdMap.id``."""
    vocab = Vocab() if vocab is None else vocab
    if grow:
        entity, relation = partial(grow_id, vocab.entities), partial(grow_id, vocab.relations)
    else:
        entity, relation = vocab.entities.id, vocab.relations.id
    triples = []
    for lineno, line in oracle_read_lines(path):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
        head_name, rel_name, tail_name = fields
        try:
            triples.append((entity(head_name), relation(rel_name), entity(tail_name)))
        except VocabularyError as exc:
            raise VocabularyError(f"{path}:{lineno}: {exc}") from None
    return triples, vocab
