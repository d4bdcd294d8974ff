"""Seeded input generators for the benchmark workloads.

A generator writes the files a user would hand to kgec and nothing else:
``train.txt``/``valid.txt``/``test.txt`` triple TSVs, ``rules.tsv``
entailments (planted workload only; the WN18-shaped rules are mined during
the run), ``types.tsv`` random entity type labels, and ``checkpoint.kgec``,
a float32 KGEC1 checkpoint from a short training run, so it carries the
exact 0/1 clamps of a real box-projected checkpoint. The same seed gives
byte-identical files.

Usage: ``python3 bench/gen.py --workload wn18 --seed 1 --out DIR``
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from importlib import resources
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if not (SRC / "kgec").is_dir():
    sys.exit(f"kgec sources not found under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

from kgec import data, model, trainer  # noqa: E402

# WN18's published shape.
WN18_ENTITIES = 40_943
WN18_PAIRS = 9  # 18 relations as 9 near-inverse pairs (r_2k, r_2k+1)
WN18_SPLITS = (141_442, 5_000, 5_000)
WN18_INVERSE_PROB = 0.95  # chance that a fact's inverse twin is also a fact
WN18_BULK_FACTS = 40_000  # forward facts drawn beyond the anchors; enough after dedup
WN18_TYPES = 20
WN18_LABELED = 0.1  # share of entities with a type label, as when types are partial
CHECKPOINT_STEPS = 2  # one AdaGrad step already moves touched entries by lr

# Acceptance test C06's planted-subset KG.
PLANTED_ENTITIES = 200
PLANTED_RELATIONS = 10
PLANTED_PAIRS = ((0, 1), (2, 3), (4, 5))
PLANTED_CONFIDENCE = 0.9
PLANTED_TYPES = 4
PLANTED_CONFIG = dict(
    d=50, eta=0.01, neg_ratio=2, lr=0.5, n_batches=20,
    max_iters=300, grad_norm_cap=1.0, eval_every=10_000,
)

WORKLOADS = ("wn18", "planted")


def wn18_config(seed: int) -> trainer.TrainConfig:
    """The shipped wn18 preset with the run's seed."""
    preset = resources.files("kgec") / "configs" / "wn18.cfg"
    return dataclasses.replace(trainer.parse_config(Path(str(preset))), seed=seed)


def planted_config(seed: int, constrained: bool) -> trainer.TrainConfig:
    """C06's plain ComplEx (mu=0, no projection) or NNE+AER (mu=1) config."""
    return trainer.TrainConfig(
        mu=1.0 if constrained else 0.0, project=constrained, seed=seed, **PLANTED_CONFIG
    )


def wn18_triples(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random (train, valid, test) id triples with WN18's shape.

    Entity popularity is Zipf-like, so degrees are skewed. Every entity heads
    one training triple. Relations come in pairs whose facts are each
    other's inverses with probability ``WN18_INVERSE_PROB``.
    """
    rng = np.random.default_rng(seed)
    n = WN18_ENTITIES
    total = sum(WN18_SPLITS)
    popularity = 1.0 / (np.arange(n) + 10.0) ** 0.75
    popularity = popularity[rng.permutation(n)]
    popularity /= popularity.sum()

    def facts(heads):
        """Forward facts and their inverse twins, with a mask of kept twins."""
        tails = rng.choice(n, size=heads.size, p=popularity)
        clash = tails == heads
        tails[clash] = (tails[clash] + 1) % n
        pair = rng.integers(0, WN18_PAIRS, size=heads.size)
        forward = np.stack([heads, 2 * pair, tails], axis=1)
        inverse = np.stack([tails, 2 * pair + 1, heads], axis=1)
        return forward, inverse, rng.random(heads.size) < WN18_INVERSE_PROB

    # Anchors make every entity a head in train; their twins join the pool.
    anchors, anchor_inv, anchor_twin = facts(rng.permutation(n))
    # Each bulk twin follows its fact, so the trim below keeps pairs whole.
    bulk, bulk_inv, bulk_twin = facts(rng.choice(n, size=WN18_BULK_FACTS, p=popularity))
    keep = np.stack([np.ones_like(bulk_twin), bulk_twin], axis=1).reshape(-1)
    bulk_rows = np.stack([bulk, bulk_inv], axis=1).reshape(-1, 3)[keep]
    rows = np.concatenate([anchors, anchor_inv[anchor_twin], bulk_rows])
    pool = _distinct_rows(rows)[n:total]
    if pool.shape[0] != total - n:
        raise RuntimeError("generator produced too few distinct triples")
    pool = pool[rng.permutation(pool.shape[0])]
    _, n_valid, n_test = WN18_SPLITS
    valid = pool[:n_valid]
    test = pool[n_valid : n_valid + n_test]
    train = np.concatenate([anchors, pool[n_valid + n_test :]])
    train = train[rng.permutation(train.shape[0])]
    return train, valid, test


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """Rows with later duplicates dropped, first occurrences kept in order."""
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)]


def planted_triples(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """C06's planted-subset KG: three premise relations whose facts are a
    subset of their conclusion's; the premise twins held out of each
    conclusion relation form the test split."""
    rng = np.random.default_rng(seed)
    n = PLANTED_ENTITIES
    train, test = [], []

    def draw_pairs(k):
        pairs = set()
        while len(pairs) < k:
            h, t = rng.integers(0, n, size=2)
            if h != t:
                pairs.add((int(h), int(t)))
        return sorted(pairs)

    q_size, p_size, holdout = 150, 50, 30
    for p_rel, q_rel in PLANTED_PAIRS:
        q_pairs = draw_pairs(q_size)
        p_idx = rng.permutation(q_size)[:p_size]
        held = set(p_idx[:holdout].tolist())
        for i, (h, t) in enumerate(q_pairs):
            (test if i in held else train).append((h, q_rel, t))
        for i in p_idx:
            h, t = q_pairs[i]
            train.append((h, p_rel, t))
    for rel in range(2 * len(PLANTED_PAIRS), PLANTED_RELATIONS):
        for h, t in draw_pairs(100):
            train.append((h, rel, t))
    return np.asarray(train, dtype=np.int64), np.asarray(test, dtype=np.int64)


def _write_triples(path: Path, rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"e{h}\tr{r}\te{t}\n" for h, r, t in rows.tolist())


def _write_types(path: Path, entities: np.ndarray, n_types: int, share: float,
                 rng: np.random.Generator) -> None:
    """Random types for a random ``share`` of ``entities``, in id order."""
    labeled = np.sort(rng.choice(entities, size=round(share * entities.size), replace=False))
    types = rng.integers(0, n_types, size=labeled.size)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"e{e}\tT{k}\n" for e, k in zip(labeled.tolist(), types.tolist()))


class _Stop(Exception):
    """Raised from ``on_step`` to end a training run after a step budget."""


def train_steps(dataset, ents, config, steps: int, on_step=None):
    """Run :func:`kgec.trainer.train` for exactly ``steps`` updates.

    Returns the live parameters after the last update. ``on_step`` is called
    as in ``train`` before the budget is checked.
    """
    state = {"steps": 0, "params": None}

    def stop_after(params, epoch, batch):
        if on_step is not None:
            on_step(params, epoch, batch)
        state["steps"] += 1
        state["params"] = params
        if state["steps"] >= steps:
            raise _Stop

    try:
        params, _ = trainer.train(dataset, ents, config, on_step=stop_after)
    except _Stop:
        params = state["params"]
    return params


def write_inputs(workload: str, seed: int, out: str | Path) -> None:
    """Write every input file of ``workload`` for ``seed`` into ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    if workload == "wn18":
        train, valid, test = wn18_triples(seed)
        n_types, labeled = WN18_TYPES, WN18_LABELED
        config = wn18_config(seed)
        ents = []
    elif workload == "planted":
        train, test = planted_triples(seed)
        valid = np.empty((0, 3), dtype=np.int64)
        n_types, labeled = PLANTED_TYPES, 1.0
        config = planted_config(seed, constrained=True)
        with open(out / "rules.tsv", "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"r{p}\tr{q}\t{PLANTED_CONFIDENCE:.6f}\n" for p, q in PLANTED_PAIRS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_triples(out / "train.txt", train)
    _write_triples(out / "valid.txt", valid)
    _write_triples(out / "test.txt", test)

    dataset = data.load_dataset(out)
    entities = np.unique(np.concatenate([train, valid, test])[:, [0, 2]])
    _write_types(out / "types.tsv", entities, n_types, labeled, rng)
    if workload == "planted":
        ents = data.load_entailments(out / "rules.tsv", dataset.vocab)
    dataset = dataclasses.replace(dataset, valid=[])
    params = train_steps(dataset, ents, config, CHECKPOINT_STEPS)
    model.save_checkpoint(params.astype(np.float32), out / "checkpoint.kgec")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
