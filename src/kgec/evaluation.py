"""Filtered link-prediction evaluation (MRR, HITS@1/3/10) and paired
significance testing between runs.

Test triples are ranked in chunks, spread by ``objective._per_block`` over
at most ``workers`` parts on its thread pool. A chunk checks and gathers its
head, relation and tail rows once. Each side of it takes its filter from one
batched ``KnownIndex`` lookup, is scored against every entity with one matrix
product and is ranked with one vectorised comparison. Ranks are
"optimistic": only candidates scoring strictly higher than the gold entity
count, so they do not depend on candidate order. Candidates that form known
triples are removed, except the gold entity itself.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import stdtr

from .data import KnownIndex, Triple, read_lines, triple_array, write_csv
from .model import ModelParams, _check_ids, score_all_heads, score_all_tails
from .objective import _per_block

# Size of one chunk's score matrix; its row count follows from the entity count.
_CHUNK_BYTES = 32 * 2**20

_RANK_DUMP_HEADER = ["head", "rel", "tail", "head_rank", "tail_rank"]

# The HITS@N cut-offs the paper reports; evaluate and significance_report use them.
HITS_AT = (1, 3, 10)


@dataclass
class EvalResult:
    """Per-triple ranks, an (N, 2) int64 array of (head_rank, tail_rank)
    rows in test order, and aggregate metrics."""

    per_triple: np.ndarray
    mrr: float
    hits: dict[int, float]


def rank_from_scores(scores: np.ndarray, gold: Sequence[int], filtered: tuple) -> np.ndarray:
    """Optimistic filtered ranks of a batch of gold candidates, as a (B,) array.

    Row i of the (B, n) ``scores`` scores every candidate of query i, whose
    gold id is ``gold[i]`` and whose removed candidate ids are the next
    ``counts[i]`` ids of the pair ``filtered = (counts, ids)``, as
    :class:`KnownIndex` lookups return it. Its rank counts the candidates
    scoring strictly higher than the gold one, after removing the filtered
    ids. The gold entity itself never competes and is never filtered out.
    ``scores`` is not modified. Raises IndexError unless every gold and
    filtered id indexes a column.
    """
    rows = np.arange(len(scores))
    gold = np.asarray(gold, dtype=np.int64)
    counts, cols = filtered[0], np.asarray(filtered[1], dtype=np.int64)
    _check_ids(np.concatenate([gold, cols]), scores.shape[1], "entity")
    competing = scores > scores[rows, gold][:, None]
    competing[rows.repeat(counts), cols] = False
    competing[rows, gold] = False
    return 1 + competing.sum(axis=1)


def filtered_rank(params: ModelParams, triple: Triple, side: str, known: KnownIndex) -> int:
    """Filtered rank of the gold entity when corrupting the ``side`` ("head" or
    "tail") of ``triple``; candidates forming known triples are excluded."""
    sides = ("head", "tail")
    if side not in sides:
        raise ValueError(f"side must be 'head' or 'tail', got {side!r}")
    return int(evaluate(params, [triple], known).per_triple[0, sides.index(side)])


def evaluate(
    params: ModelParams,
    test: Sequence[tuple[int, int, int]],
    known: KnownIndex,
    workers: int = 1,
) -> EvalResult:
    """Rank both directions of every test triple and aggregate MRR/HITS.

    MRR and HITS@N, for each N in ``HITS_AT``, are averaged over 2 * len(test)
    ranks (head and tail directions contribute separately). The filter reads
    ``known`` through its ``heads``/``tails`` lookups only. The test set is
    ranked in chunks whose score matrix holds about ``_CHUNK_BYTES``. Chunks
    run in at most ``workers`` parts, at most one per usable CPU; the ranks do
    not depend on the number of parts. An out-of-range id raises IndexError.
    """
    if len(test) == 0:
        raise ValueError("test set is empty")
    triples = triple_array(test)
    per_chunk = max(1, _CHUNK_BYTES // (params.n_entities * params.ent.real.itemsize))
    per_triple = np.empty((len(triples), 2), dtype=np.int64)

    def rank_chunk(a: int, e: int) -> None:
        """Write rows ``a:e`` of ``per_triple`` from one gather of their triples' rows."""
        heads, rels, tails = triples[a:e].T
        _check_ids(rels, params.n_relations, "relation")
        _check_ids(triples[a:e, ::2], params.n_entities, "entity")  # heads and tails
        h, r, t = params.ent[heads], params.rel[rels], params.ent[tails]
        per_triple[a:e, 0] = rank_from_scores(score_all_heads(params, r, t), heads, known.heads(rels, tails))
        per_triple[a:e, 1] = rank_from_scores(score_all_tails(params, h, r), tails, known.tails(heads, rels))

    _per_block(rank_chunk, len(triples), per_chunk, parts=workers)
    all_ranks = per_triple.T.ravel()  # every head rank, then every tail rank
    # np.mean's own sum and division, without its per-call overhead
    mrr = float((1.0 / all_ranks).sum() / all_ranks.size)
    hits = {k: float((all_ranks <= k).sum() / all_ranks.size) for k in HITS_AT}
    return EvalResult(per_triple, mrr, hits)


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided p-value of the paired t statistic on the differences a - b.

    Zero-variance differences are a degenerate case: p is 1.0 when the mean
    difference is zero, 0.0 otherwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"paired samples differ in length: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("need at least 2 paired observations")
    diff = a - b
    mean = diff.mean()
    sd = diff.std(ddof=1)
    if sd == 0.0:
        return 1.0 if mean == 0.0 else 0.0
    t = mean / (sd / np.sqrt(diff.size))
    return float(2.0 * stdtr(diff.size - 1, -abs(t)))  # Student's t CDF: sf(|t|) = cdf(-|t|)


def write_metrics_csv(result: EvalResult, path: str | Path) -> None:
    """Write the aggregate metrics as ``metric,value`` rows."""
    rows = [["mrr", f"{result.mrr:.6f}"]]
    rows += [[f"hits@{k}", f"{result.hits[k]:.6f}"] for k in sorted(result.hits)]
    write_csv(path, ["metric", "value"], rows)


def write_rank_dump(
    test: Sequence[tuple[int, int, int]], result: EvalResult, path: str | Path
) -> None:
    """Per-triple rank dump for later significance testing between runs. A
    ``test`` of another length than the result raises ValueError before the
    file is opened."""
    write_csv(path, _RANK_DUMP_HEADER, np.column_stack([triple_array(test), result.per_triple]).tolist())


def load_rank_dump(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a rank dump back as (triples, ranks): an (N, 3) int64 array of
    (head, rel, tail) ids and an (N, 2) one of (head_rank, tail_rank) rows."""
    rows: list[tuple[int, ...]] = []
    reader = csv.reader(line for _, line in read_lines(path))
    header = next(reader, None)
    if header != _RANK_DUMP_HEADER:
        raise ValueError(f"{path}: not a rank dump (bad header {header})")
    for row in reader:
        try:
            h, r, t, hr, tr = (int(x) for x in row)
            if min(hr, tr) < 1:
                raise ValueError(f"ranks must be at least 1, got {hr} and {tr}")
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        rows.append((h, r, t, hr, tr))
    table = np.asarray(rows, dtype=np.int64).reshape(-1, 5)
    return table[:, :3], table[:, 3:]


def significance_report(dump_a: str | Path, dump_b: str | Path) -> dict[str, float]:
    """Paired p-values between two rank dumps over the same test triples.

    Head- and tail-direction observations of each triple are paired
    separately. Reciprocal ranks pair for the MRR test; HITS@N, for each N in
    ``HITS_AT``, pairs the 0/1 top-N indicators.
    """
    triples_a, ranks_a = load_rank_dump(dump_a)
    triples_b, ranks_b = load_rank_dump(dump_b)
    if not np.array_equal(triples_a, triples_b):
        raise ValueError("rank dumps cover different test triples")
    ranks_a, ranks_b = (ranks.T.ravel().astype(float) for ranks in (ranks_a, ranks_b))
    report = {"mrr": paired_ttest(1.0 / ranks_a, 1.0 / ranks_b)}
    for k in HITS_AT:
        report[f"hits@{k}"] = paired_ttest(
            (ranks_a <= k).astype(float), (ranks_b <= k).astype(float)
        )
    return report
