"""Mini-batch SGD with AdaGrad, negative sampling, gradient norm capping, and
per-step box projection; checkpoint selection by validation MRR.

The loop is deterministic for a fixed config: one RNG drives epoch shuffling
and negative sampling, and parameter updates are applied sequentially.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, Entailment, Triple, build_known_index
from .manifest import atomic_write, read_lines, write_csv
from .model import ModelParams, init_params, real_view
from .objective import (
    LossBreakdown,
    SparseGrads,
    _sq_norm,
    loss_and_gradient_arrays,
    pack_entailments,
)

logger = logging.getLogger(__name__)

_ADAGRAD_EPSILON = 1e-8  # keeps the first AdaGrad step finite


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
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.eta < 0 or self.mu < 0:
            raise ValueError("eta and mu must be non-negative")
        if self.n_batches < 1 or self.max_iters < 1:
            raise ValueError("n_batches and max_iters must be at least 1")
        if self.grad_norm_cap <= 0:
            raise ValueError("grad_norm_cap must be positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_CASTS = {"bool": lambda text: _BOOL_WORDS[text.lower()], "int": int, "float": float}


def parse_config(path: str | Path) -> TrainConfig:
    """Read a ``key = value`` config file into a :class:`TrainConfig`.

    Lines starting with ``#`` and blank lines are ignored. Keys must match
    TrainConfig field names; values are cast to the field type. Errors name
    the file, and the line where there is one.
    """
    field_types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    values: dict = {}
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in field_types:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = field_types[key]
        try:
            values[key] = _CASTS[kind](value)
        except (KeyError, ValueError):
            message = f"bad {kind} value for {key}: {value!r}"
            raise ValueError(f"{path}:{lineno}: {message}") from None
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
        return cls(np.zeros_like(real_view(params.ent)), np.zeros_like(real_view(params.rel)))


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
    they are written back.
    """
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


def _corrupt_batch(
    heads: np.ndarray,
    rels: np.ndarray,
    tails: np.ndarray,
    k: int,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k corruptions per positive, flattened positive-major."""
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
    arr = np.asarray(train, dtype=np.int64).reshape(-1, 3)
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

    Per step: sample ``neg_ratio`` negatives per positive, compute the batch
    loss and sparse gradient, cap the gradient's global norm, apply AdaGrad
    and clamp the touched entity rows back into the box (unless projection
    is disabled). Filtered MRR on the validation split is computed every
    ``eval_every`` epochs and the best-scoring parameters are kept; without a
    validation split the final parameters are returned.

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
    for ent in ents:
        if ent.premise_rel >= m or ent.conclusion_rel >= m:
            raise ValueError(f"entailment names an unknown relation: {ent}")
    rules = pack_entailments(ents)

    params = init_params(n, m, config.d, config.seed)
    state = AdaGradState.zeros_like(params)
    rng = np.random.default_rng(config.seed + 1)
    train_arr = np.asarray(dataset.train, dtype=np.int64).reshape(-1, 3)
    if train_arr.shape[0] == 0:
        raise ValueError("training split is empty")

    known = build_known_index(dataset) if dataset.valid else None
    # With l2_full the L2 term covers every parameter and is added afterwards.
    batch_eta = 0.0 if config.l2_full else config.eta

    best_params: ModelParams | None = None
    best_mrr = -np.inf
    log: list[EpochStats] = []

    for epoch in range(1, config.max_iters + 1):
        sums = np.zeros(4)
        for batch_index, batch in enumerate(make_batches(train_arr, config.n_batches, rng)):
            if batch.shape[0] == 0:
                continue
            pos_h, pos_r, pos_t = batch[:, 0], batch[:, 1], batch[:, 2]
            neg_h, neg_r, neg_t = _corrupt_batch(
                pos_h, pos_r, pos_t, config.neg_ratio, n, rng
            )
            heads = np.concatenate([pos_h, neg_h])
            rels = np.concatenate([pos_r, neg_r])
            tails = np.concatenate([pos_t, neg_t])
            labels = np.concatenate(
                [np.ones(pos_h.size), -np.ones(neg_h.size)]
            )
            breakdown, grads = loss_and_gradient_arrays(
                params, heads, rels, tails, labels, rules, config.mu, batch_eta
            )
            if config.l2_full:
                breakdown, grads = _with_full_l2(params, breakdown, grads, config.eta)
            if not np.isfinite(breakdown.total):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}: "
                    f"{breakdown}"
                )
            norm = grads.clip_global_norm_(config.grad_norm_cap)
            if not np.isfinite(norm):
                raise RuntimeError(
                    f"non-finite gradient norm {norm} at epoch {epoch}, batch {batch_index}"
                )
            adagrad_step(params, grads, state, config.lr, config.project)
            if on_step is not None:
                on_step(params, epoch, batch_index)
            sums += (
                breakdown.logistic,
                breakdown.entailment_penalty,
                breakdown.l2,
                breakdown.total,
            )

        valid_mrr = None
        if known is not None and epoch % config.eval_every == 0:
            valid_mrr = evaluate(params, dataset.valid, known).mrr
            if valid_mrr > best_mrr:
                best_mrr = valid_mrr
                best_params = params.copy()
        log.append(EpochStats(epoch, sums[0], sums[1], sums[2], sums[3], valid_mrr))

    return (best_params if best_params is not None else params), log


def _with_full_l2(params, breakdown, grads, eta):
    """Add an L2 term over all parameters to the loss and the gradient of the
    data terms (computed with ``eta=0``); the gradient becomes dense."""
    ent = 2.0 * eta * params.ent
    ent[grads.ent_ids] += grads.ent
    rel = 2.0 * eta * params.rel
    rel[grads.rel_ids] += grads.rel
    full_l2 = _sq_norm(params.ent) + _sq_norm(params.rel)
    new_breakdown = LossBreakdown(
        logistic=breakdown.logistic,
        entailment_penalty=breakdown.entailment_penalty,
        l2=full_l2,
        total=breakdown.total + eta * full_l2,
    )
    return new_breakdown, SparseGrads(
        np.arange(params.n_entities), ent, np.arange(params.n_relations), rel
    )
