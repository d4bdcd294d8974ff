"""Mini-batch SGD with AdaGrad, negative sampling, gradient norm capping, and
per-step box projection; checkpoint selection by validation MRR.

The loop is deterministic for a fixed config: one RNG drives epoch shuffling
and negative sampling. Within a step, the kernel, the clip and the AdaGrad
update work through disjoint blocks of rows, spread over one part per
usable CPU by ``objective._per_block``, and every row gets the same
arithmetic in any part, so results do not depend on the thread count.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, Entailment, Triple, build_known_index, triple_array
from .manifest import atomic_write, read_lines, write_csv
from .model import ModelParams, init_params, real_view
from .objective import SparseGrads, _block_rows, _per_block, _sq_norm, loss_and_gradient_arrays
from .objective import pack_entailments

logger = logging.getLogger(__name__)

_ADAGRAD_EPSILON = 1e-8  # keeps the first AdaGrad step finite
_ADAGRAD_CHUNK_BYTES = 2**18  # gradient bytes per AdaGrad chunk; its buffers stay in L2


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    ``neg_ratio`` is the number of corrupted triples per observed one, ``mu``
    weighs the entailment penalties, ``eta`` the L2 term. ``project=False``
    disables the box projection (plain unconstrained training); ``l2_full``
    switches the L2 term from batch-touched rows to all parameters each step.
    """

    d: int = 100
    eta: float = 0.01
    neg_ratio: int = 10
    lr: float = 0.5
    mu: float = 0.0
    n_batches: int = 100
    max_iters: int = 1000
    grad_norm_cap: float = 1.0
    seed: int = 0
    eval_every: int = 50
    project: bool = True
    l2_full: bool = False

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.neg_ratio < 1:
            raise ValueError("neg_ratio must be at least 1")
        # Written so that NaN, which fails every comparison, fails each check.
        if not 0 < self.lr < np.inf:
            raise ValueError("lr must be positive and finite")
        if not (0 <= self.eta < np.inf and 0 <= self.mu < np.inf):
            raise ValueError("eta and mu must be non-negative and finite")
        if self.n_batches < 1 or self.max_iters < 1:
            raise ValueError("n_batches and max_iters must be at least 1")
        if not self.grad_norm_cap > 0:
            raise ValueError("grad_norm_cap must be positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_CASTS = {"bool": lambda text: _BOOL_WORDS[text.lower()], "int": int, "float": float}
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def _cast_field(key: str, value: object) -> object:
    """``value`` read as text and cast to the type of TrainConfig field ``key``."""
    kind = _FIELD_TYPES[key]
    try:
        return _CASTS[kind](str(value))
    except (KeyError, ValueError):
        raise ValueError(f"bad {kind} value for {key}: {value!r}") from None


def parse_config(path: str | Path) -> TrainConfig:
    """Read a ``key = value`` config file into a :class:`TrainConfig`.

    Lines starting with ``#`` and blank lines are ignored. Keys must match
    TrainConfig field names; values are cast to the field type. Errors name
    the file, and the line where there is one.
    """
    values: dict = {}
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _cast_field(key, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    try:
        return TrainConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_config(config: TrainConfig, path: str | Path) -> None:
    """Write a config in the format accepted by :func:`parse_config`."""
    with atomic_write(path, encoding="utf-8") as fh:
        for f in dataclasses.fields(TrainConfig):
            value = getattr(config, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            fh.write(f"{f.name} = {value}\n")


@dataclass
class AdaGradState:
    """Per-entry accumulators of squared gradients; entrywise nondecreasing.

    ``acc_ent``/``acc_rel`` are real and laid out like the (rows, 2d) real
    views of the entity and relation embeddings.
    """

    acc_ent: np.ndarray
    acc_rel: np.ndarray

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdaGradState":
        ent, rel = real_view(params.ent), real_view(params.rel)  # np.zeros maps pages lazily
        return cls(np.zeros(ent.shape, ent.dtype), np.zeros(rel.shape, rel.dtype))


def adagrad_step(
    params: ModelParams,
    grads: SparseGrads,
    state: AdaGradState,
    lr: float,
    project: bool = False,
) -> None:
    """Apply one sparse AdaGrad update in place.

    For each touched entry: accumulator += g**2, then
    param -= lr * g / (sqrt(accumulator) + 1e-8). With ``project`` the
    updated entity rows are clamped into [0, 1] (the box projection) before
    they are written back. Rows are updated in chunks of about
    ``_ADAGRAD_CHUNK_BYTES``, so each elementwise pass reads cached rows,
    and the chunks are shared out in parts, one per usable CPU.
    """
    updates = (
        (grads.ent_ids, grads.ent, params.ent, state.acc_ent, project),
        (grads.rel_ids, grads.rel, params.rel, state.acc_rel, False),
    )
    for ids, grad, param, acc, clamp in updates:
        chunk = _block_rows(grad, _ADAGRAD_CHUNK_BYTES)
        grad, param = real_view(grad), real_view(param)
        _per_block(_adagrad_chunk, ids.size, chunk, ids, grad, param, acc, lr, clamp)


def _adagrad_chunk(ids, grad, param, acc, lr, clamp, a, e) -> None:
    """AdaGrad on the rows ``ids[a:e]``."""
    rows_ids, g = ids[a:e], grad[a:e]
    step = acc[rows_ids]
    step += g * g
    acc[rows_ids] = step
    np.sqrt(step, out=step)
    step += _ADAGRAD_EPSILON
    np.divide(g, step, out=step)
    step *= lr
    rows = param[rows_ids]
    rows -= step
    if clamp:
        np.clip(rows, 0.0, 1.0, out=rows)
    param[rows_ids] = rows


def _corrupt_batch(
    heads: np.ndarray, tails: np.ndarray, k: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """k corruptions per positive, as (B, k) arrays ``(corrupt_head,
    replacement)``: negative j of positive i replaces its head where
    ``corrupt_head[i, j]`` and its tail otherwise, by entity
    ``replacement[i, j]``, drawn uniformly among the other n - 1 entities."""
    if n < 2:
        raise ValueError("need at least 2 entities to corrupt a triple")
    corrupt_head = rng.integers(0, 2, size=(heads.size, k)).astype(bool)
    original = np.where(corrupt_head, heads[:, None], tails[:, None])
    replacement = rng.integers(0, n, size=(heads.size, k))
    bad = replacement == original
    while bad.any():
        replacement[bad] = rng.integers(0, n, size=int(bad.sum()))
        bad = replacement == original
    return corrupt_head, replacement


def make_batches(
    train: Sequence[Triple] | np.ndarray,
    n_batches: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Shuffle one epoch and split it into ``n_batches`` near-equal parts.

    Batch sizes differ by at most one. If there are more batches than
    triples, the surplus batches are empty and a warning is logged.
    """
    if n_batches < 1:
        raise ValueError("n_batches must be at least 1")
    arr = triple_array(train)
    if n_batches > arr.shape[0]:
        logger.warning(
            "n_batches=%d exceeds the number of triples (%d); some batches are empty",
            n_batches,
            arr.shape[0],
        )
    perm = rng.permutation(arr.shape[0])
    return [arr[idx] for idx in np.array_split(perm, n_batches)]


@dataclass
class EpochStats:
    """Per-epoch training log row; loss fields are sums over the epoch."""

    epoch: int
    logistic: float
    penalty: float
    l2: float
    total: float
    valid_mrr: float | None = None


def write_training_log(log: Sequence[EpochStats], path: str | Path) -> None:
    """Write the per-epoch log as CSV (valid_mrr empty when not evaluated)."""
    rows = (
        [row.epoch, *(f"{v:.6f}" for v in (row.logistic, row.penalty, row.l2, row.total)),
         "" if row.valid_mrr is None else f"{row.valid_mrr:.6f}"]
        for row in log
    )
    write_csv(path, ["epoch", "logistic", "penalty", "l2", "total", "valid_mrr"], rows)


def train(
    dataset: Dataset,
    ents: Sequence[Entailment],
    config: TrainConfig,
    on_step: Callable[[ModelParams, int, int], None] | None = None,
) -> tuple[ModelParams, list[EpochStats]]:
    """Run the constrained training loop.

    Per step: sample ``neg_ratio`` negatives per positive, as a side and a
    replacement entity each, compute the batch loss and sparse gradient from
    the positives and those corruptions, cap the gradient's global norm,
    apply AdaGrad and clamp the touched entity rows back into the box (unless
    projection is disabled). Filtered MRR on the validation split is computed
    every ``eval_every`` epochs and the best-scoring parameters are kept;
    without a validation split the final parameters are returned.

    ``on_step(params, epoch, batch_index)`` is invoked after each update,
    mainly for tests and diagnostics.

    Raises ``RuntimeError`` naming the offending epoch/batch, before any
    update, if the loss or the gradient norm turns non-finite. A finite
    gradient moves each entry by at most ``lr`` per step, so the parameters
    then stay finite too.
    """
    from .evaluation import evaluate  # local import to avoid a module cycle

    n, m = dataset.n_entities, dataset.n_relations
    if n < 2:
        raise ValueError("training needs at least 2 entities")
    rules = pack_entailments(ents)
    ids = np.concatenate([rules.premise, rules.conclusion])
    bad = (ids < 0) | (ids >= m)
    if bad.any():
        raise ValueError(f"entailment names an unknown relation: id {ids[bad][0]} not in [0, {m})")

    params = init_params(n, m, config.d, config.seed)
    state = AdaGradState.zeros_like(params)
    rng = np.random.default_rng(config.seed + 1)
    train_arr = triple_array(dataset.train)
    if train_arr.shape[0] == 0:
        raise ValueError("training split is empty")

    known = build_known_index(dataset) if dataset.valid else None
    # With l2_full the L2 term covers every parameter and is added afterwards.
    batch_eta = 0.0 if config.l2_full else config.eta

    best_params: ModelParams | None = None
    best_mrr = -np.inf
    log: list[EpochStats] = []

    for epoch in range(1, config.max_iters + 1):
        sums = [0.0] * 4
        for batch_index, batch in enumerate(make_batches(train_arr, config.n_batches, rng)):
            if batch.shape[0] == 0:
                continue
            heads, rels, tails = batch.T
            corrupt_head, replacement = _corrupt_batch(heads, tails, config.neg_ratio, n, rng)
            breakdown, grads = loss_and_gradient_arrays(
                params, heads, rels, tails, corrupt_head, replacement,
                rules, config.mu, batch_eta,
            )
            if config.l2_full:
                breakdown, grads = _with_full_l2(params, breakdown, grads, config.eta)
            if not math.isfinite(breakdown.total):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}: "
                    f"{breakdown}"
                )
            norm = grads.clip_global_norm_(config.grad_norm_cap)
            if not math.isfinite(norm):
                raise RuntimeError(
                    f"non-finite gradient norm {norm} at epoch {epoch}, batch {batch_index}"
                )
            adagrad_step(params, grads, state, config.lr, config.project)
            if on_step is not None:
                on_step(params, epoch, batch_index)
            loss = (breakdown.logistic, breakdown.entailment_penalty, breakdown.l2, breakdown.total)
            sums = [total + term for total, term in zip(sums, loss)]

        valid_mrr = None
        if known is not None and epoch % config.eval_every == 0:
            valid_mrr = evaluate(params, dataset.valid, known).mrr
            if valid_mrr > best_mrr:
                best_mrr = valid_mrr
                best_params = params.copy()
        log.append(EpochStats(epoch, *sums, valid_mrr))

    return (best_params if best_params is not None else params), log


def _with_full_l2(params, breakdown, grads, eta):
    """Add an L2 term over all parameters to the loss and the gradient of the
    data terms (computed with ``eta=0``); the gradient becomes dense."""
    ent = 2.0 * eta * params.ent
    ent[grads.ent_ids] += grads.ent
    rel = 2.0 * eta * params.rel
    rel[grads.rel_ids] += grads.rel
    l2 = _sq_norm(params.ent) + _sq_norm(params.rel)
    breakdown = dataclasses.replace(breakdown, l2=l2, total=breakdown.total + eta * l2)
    return breakdown, SparseGrads(
        np.arange(params.n_entities), ent, np.arange(params.n_relations), rel
    )
