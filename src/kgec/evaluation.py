"""Filtered link-prediction evaluation (MRR, HITS@N) and paired significance
testing between runs.

Test triples are ranked in chunks, spread by ``objective._per_block`` over
at most ``workers`` parts on its thread pool. Each side of a chunk is scored
against every entity with one matrix product and ranked with one vectorised
comparison. Ranks are "optimistic": only candidates scoring strictly higher
than the gold entity count, which makes the result independent of candidate
enumeration order. Corrupted candidates that are known true triples are
removed, except the gold triple itself.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Collection, Sequence

import numpy as np
from scipy import stats

from .data import KnownIndex, Triple, triple_array
from .manifest import read_lines, write_csv
from .model import ModelParams, _check_ids, score_all_heads, score_all_tails
from .objective import _per_block

# Size of one chunk's score matrix; its row count follows from the entity count.
_CHUNK_BYTES = 32 * 2**20

_RANK_DUMP_HEADER = ["head", "rel", "tail", "head_rank", "tail_rank"]


@dataclass
class EvalResult:
    """Per-triple (head_rank, tail_rank) pairs and aggregate metrics."""

    per_triple: list[tuple[int, int]]
    mrr: float
    hits: dict[int, float]


def rank_from_scores(
    scores: np.ndarray,
    gold: Sequence[int],
    filtered: Sequence[Collection[int]] | None = None,
) -> np.ndarray:
    """Optimistic filtered ranks of a batch of gold candidates, as a (B,) array.

    Row i of the (B, n) ``scores`` scores every candidate of query i, whose
    gold id is ``gold[i]`` and whose removed candidate ids are
    ``filtered[i]``. Its rank counts the candidates scoring strictly higher
    than the gold one, after removing the filtered ids. The gold entity itself
    never competes and is never filtered out. ``scores`` is not modified.
    Raises IndexError unless every gold and filtered id indexes a column.
    """
    rows = np.arange(len(scores))
    gold = np.asarray(gold, dtype=np.int64)
    filtered = [()] * len(rows) if filtered is None else filtered
    sizes = [len(ids) for ids in filtered]
    cols = np.fromiter(chain.from_iterable(filtered), dtype=np.int64, count=sum(sizes))
    _check_ids(np.concatenate([gold, cols]), scores.shape[1], "entity")
    competing = scores > scores[rows, gold][:, None]
    competing[np.repeat(rows, sizes), cols] = False
    competing[rows, gold] = False
    return 1 + np.count_nonzero(competing, axis=1)


def filtered_rank(params: ModelParams, triple: Triple, side: str, known: KnownIndex) -> int:
    """Filtered rank of the gold entity when corrupting the ``side`` ("head" or
    "tail") of ``triple``; candidates forming known triples are excluded."""
    sides = ("head", "tail")
    if side not in sides:
        raise ValueError(f"side must be 'head' or 'tail', got {side!r}")
    return evaluate(params, [triple], known).per_triple[0][sides.index(side)]


def evaluate(
    params: ModelParams,
    test: Sequence[Triple],
    known: KnownIndex,
    hits_at: Sequence[int] = (1, 3, 10),
    workers: int = 1,
) -> EvalResult:
    """Rank both directions of every test triple and aggregate MRR/HITS.

    MRR and HITS@N are averaged over 2 * len(test) ranks (head and tail
    directions contribute separately). The test set is ranked in chunks whose
    score matrix holds about ``_CHUNK_BYTES``. Chunks run in at most ``workers``
    parts, at most one per usable CPU; the ranks do not depend on the number
    of parts. An out-of-range id raises IndexError.
    """
    if len(test) == 0:
        raise ValueError("test set is empty")
    triples = triple_array(test)
    per_chunk = max(1, _CHUNK_BYTES // (params.n_entities * params.ent.real.itemsize))

    def rank_chunk(a: int, e: int) -> tuple[np.ndarray, np.ndarray]:
        """Head and tail ranks of triples ``a:e``: one scoring and one ranking call a side."""
        heads, rels, tails = columns = triples[a:e].T
        h, r, t = columns.tolist()
        head_filter = list(map(known.heads, r, t))
        tail_filter = list(map(known.tails, h, r))
        return (
            rank_from_scores(score_all_heads(params, rels, tails), heads, head_filter),
            rank_from_scores(score_all_tails(params, heads, rels), tails, tail_filter),
        )

    chunks = _per_block(rank_chunk, len(triples), per_chunk, parts=workers)
    head_ranks, tail_ranks = map(np.concatenate, zip(*chunks))
    all_ranks = np.concatenate([head_ranks, tail_ranks])
    mrr = float(np.mean(1.0 / all_ranks))
    hits = {int(k): float(np.mean(all_ranks <= k)) for k in hits_at}
    return EvalResult(list(zip(head_ranks.tolist(), tail_ranks.tolist())), mrr, hits)


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
    return float(2.0 * stats.t.sf(abs(t), df=diff.size - 1))


def write_metrics_csv(result: EvalResult, path: str | Path) -> None:
    """Write the aggregate metrics as ``metric,value`` rows."""
    rows = [["mrr", f"{result.mrr:.6f}"]]
    rows += [[f"hits@{k}", f"{result.hits[k]:.6f}"] for k in sorted(result.hits)]
    write_csv(path, ["metric", "value"], rows)


def write_rank_dump(
    test: Sequence[Triple], result: EvalResult, path: str | Path
) -> None:
    """Per-triple rank dump for later significance testing between runs."""
    rows = ([*triple, *ranks] for triple, ranks in zip(test, result.per_triple))
    write_csv(path, _RANK_DUMP_HEADER, rows)


def load_rank_dump(path: str | Path) -> tuple[list[Triple], np.ndarray, np.ndarray]:
    """Read a rank dump back as (triples, head_ranks, tail_ranks)."""
    triples: list[Triple] = []
    ranks: list[tuple[int, int]] = []
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
        triples.append(Triple(h, r, t))
        ranks.append((hr, tr))
    head_ranks, tail_ranks = np.asarray(ranks, dtype=np.int64).reshape(-1, 2).T
    return triples, head_ranks, tail_ranks


def significance_report(
    dump_a: str | Path, dump_b: str | Path, hits_at: Sequence[int] = (1, 3, 10)
) -> dict[str, float]:
    """Paired p-values between two rank dumps over the same test triples.

    Head- and tail-direction observations of each triple are paired
    separately. Reciprocal ranks pair for the MRR test; HITS@N pairs the 0/1
    top-N indicators.
    """
    triples_a, heads_a, tails_a = load_rank_dump(dump_a)
    triples_b, heads_b, tails_b = load_rank_dump(dump_b)
    if triples_a != triples_b:
        raise ValueError("rank dumps cover different test triples")
    ranks_a = np.concatenate([heads_a, tails_a]).astype(float)
    ranks_b = np.concatenate([heads_b, tails_b]).astype(float)
    report = {"mrr": paired_ttest(1.0 / ranks_a, 1.0 / ranks_b)}
    for k in hits_at:
        report[f"hits@{k}"] = paired_ttest(
            (ranks_a <= k).astype(float), (ranks_b <= k).astype(float)
        )
    return report
