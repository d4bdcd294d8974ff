"""Command-line entry point: mine, train, eval, analyze, significance.

Every subcommand returns exit code 0 on success and prints a one-line
diagnostic to stderr on failure. Subcommands never modify their input files.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    activation_heatmap,
    load_type_labels,
    pair_residuals,
    purity_curve,
    write_heatmap_csv,
    write_pair_diagnostics_csv,
    write_purity_csv,
)
from .data import build_known_index, load_dataset, load_entailments, load_triples
from .evaluation import (
    evaluate,
    significance_report,
    write_metrics_csv,
    write_rank_dump,
)
from .manifest import RunManifest, atomic_write, read_json
from .mining import classify_pairs, mine_entailments, write_rules
from .model import load_checkpoint, save_checkpoint
from .trainer import TrainConfig, parse_config, train, write_config, write_training_log
from .trainer import _FIELD_TYPES, _cast_field

# Files a training run writes besides manifest.json and config.cfg.
_RUN_OUTPUTS = ("checkpoint.kgec", "log.csv", "entities.txt", "relations.txt")

# Hyperparameter grid swept by `train --grid`, selected on validation MRR.
GRID = {
    "d": (100, 150, 200),
    "eta": (0.001, 0.003, 0.01, 0.03, 0.1),
    "neg_ratio": (2, 10),
    "lr": (0.01, 0.05, 0.1, 0.5, 1.0),
    "mu": tuple(10.0**k for k in range(-5, 6)),
}


def _resolve_config(name_or_path: str) -> Path:
    """Accept a config path or the name of a shipped preset (wn18, fb15k, db100k)."""
    path = Path(name_or_path)
    if path.is_file():
        return path
    packaged = resources.files("kgec") / "configs" / f"{name_or_path}.cfg"
    if packaged.is_file():
        return Path(str(packaged))
    raise FileNotFoundError(f"config not found: {name_or_path}")


def _workers(args) -> int:
    """The eval worker count: ``--workers``, else ``KGEC_WORKERS``, else 1."""
    name, workers = "--workers", args.workers
    if workers is None:
        name, env = "KGEC_WORKERS", os.environ.get("KGEC_WORKERS")
        try:
            workers = int(env) if env else 1
        except ValueError:
            raise ValueError(f"KGEC_WORKERS must be an integer, got {env!r}") from None
    if workers < 1:
        raise ValueError(f"{name} must be at least 1, got {workers}")
    return workers


def cmd_mine(args) -> int:
    if not args.train_file and not args.data:
        raise ValueError("mine needs --data or --train-file")
    triples, vocab = load_triples(args.train_file or Path(args.data) / "train.txt")
    rules = mine_entailments(triples, args.min_conf, args.min_support)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    diagnostics = out.with_suffix(".diagnostics.csv")
    write_rules(rules, vocab, out, diagnostics)
    print(f"mined {len(rules)} rules -> {out} (diagnostics: {diagnostics})")
    return 0


def _write_manifest(config, out_dir, input_paths, precision):
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = dataclasses.asdict(config)
    snapshot["checkpoint_precision"] = precision
    manifest = RunManifest.create(
        command="train",
        version=__version__,
        seed=config.seed,
        config=snapshot,
        input_paths=input_paths,
        output_paths=[out_dir / name for name in _RUN_OUTPUTS],
    )
    manifest.write(out_dir / "manifest.json")


def _write_outputs(dataset, config, params, log, out_dir, precision):
    ckpt, log_path, ent_vocab, rel_vocab = (out_dir / name for name in _RUN_OUTPUTS)
    dataset.vocab.dump(ent_vocab, rel_vocab)
    # Training arithmetic is float64; the stored precision is a disk format.
    stored = params.astype(np.float32) if precision == 32 else params
    save_checkpoint(stored, ckpt, str(ent_vocab), str(rel_vocab))
    write_training_log(log, log_path)
    write_config(config, out_dir / "config.cfg")


def _grid_configs(base: TrainConfig, grid: dict, source: str) -> list[TrainConfig]:
    """Every combination of the grid's value lists over ``base``, cast as in a
    config file; a grid that is not an object, an unknown key, a value that
    is not a list, an empty value list or a bad value raises ValueError
    naming ``source``."""
    try:
        if not isinstance(grid, dict):
            raise ValueError("expected a JSON object mapping config keys to value lists")
        keys = sorted(grid)
        for key in keys:
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown grid key {key!r}")
            if not isinstance(grid[key], (list, tuple)):
                raise ValueError(f"grid key {key!r} needs a list of values, got {grid[key]!r}")
            if not grid[key]:
                raise ValueError(f"grid key {key!r} has no values")
        combos = itertools.product(*([_cast_field(k, v) for v in grid[k]] for k in keys))
        return [dataclasses.replace(base, **dict(zip(keys, combo))) for combo in combos]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{source}: {exc}") from None


def _grid_key(config: TrainConfig) -> str:
    return json.dumps(dataclasses.asdict(config), sort_keys=True)


def cmd_train(args) -> int:
    dataset = load_dataset(args.data)
    ents = load_entailments(args.ents, dataset.vocab) if args.ents else []
    config = parse_config(_resolve_config(args.config)) if args.config else TrainConfig()
    overrides = {"seed": args.seed, "mu": args.mu, "project": False if args.no_projection else None}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})

    out_dir = Path(args.out)
    splits = (Path(args.data) / f"{split}.txt" for split in ("train", "valid", "test"))
    input_paths = [path for path in splits if path.exists()]
    if args.ents:
        input_paths.append(Path(args.ents))
    if args.config:
        input_paths.append(_resolve_config(args.config))

    if not args.grid:
        _write_manifest(config, out_dir, input_paths, args.precision)
        params, log = train(dataset, ents, config)
        _write_outputs(dataset, config, params, log, out_dir, args.precision)
        print(f"training done -> {out_dir / 'checkpoint.kgec'}")
        return 0

    # Grid sweep: sequential, resumable through the state file.
    if not dataset.valid:
        raise ValueError(f"{Path(args.data, 'valid.txt')}: --grid needs validation triples")
    grid = read_json(args.grid_file) if args.grid_file else GRID
    candidates = _grid_configs(config, grid, args.grid_file or "the default grid")
    out_dir.mkdir(parents=True, exist_ok=True)
    state_path = out_dir / "grid_state.json"
    state = read_json(state_path) if state_path.exists() else {}
    if not isinstance(state, dict) or not all(type(mrr) in (int, float) for mrr in state.values()):
        raise ValueError(f"{state_path}: expected a JSON object mapping grid points to numbers")

    known = build_known_index(dataset)
    best_key = max(state, key=lambda k: state[k], default=None)
    best_mrr = state.get(best_key, -np.inf) if best_key else -np.inf
    for candidate in candidates:
        key = _grid_key(candidate)
        if key in state:
            continue
        params, log = train(dataset, ents, candidate)
        mrrs = [row.valid_mrr for row in log if row.valid_mrr is not None]
        valid_mrr = max(mrrs) if mrrs else evaluate(params, dataset.valid, known).mrr
        state[key] = valid_mrr
        with atomic_write(state_path, encoding="utf-8") as fh:
            json.dump(state, fh, indent=2, sort_keys=True)
        if valid_mrr > best_mrr:
            best_mrr = valid_mrr
            _write_manifest(candidate, out_dir, input_paths, args.precision)
            _write_outputs(dataset, candidate, params, log, out_dir, args.precision)
        print(f"grid point valid_mrr={valid_mrr:.4f} {key}")
    print(f"grid done; best valid MRR {best_mrr:.4f} -> {out_dir / 'checkpoint.kgec'}")
    return 0


def _load_model_and_data(args):
    """The checkpoint and the dataset, which must have the checkpoint's shape."""
    params, _ = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    if dataset.n_entities != params.n_entities or dataset.n_relations != params.n_relations:
        raise ValueError(
            f"{args.checkpoint}: checkpoint shape ({params.n_entities} entities, "
            f"{params.n_relations} relations) does not match the dataset "
            f"({dataset.n_entities}, {dataset.n_relations})"
        )
    return params, dataset


def cmd_eval(args) -> int:
    workers = _workers(args)
    params, dataset = _load_model_and_data(args)
    known = build_known_index(dataset)
    result = evaluate(params, dataset.test, known, workers=workers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(result, out_dir / "metrics.csv")
    if args.dump_ranks:
        write_rank_dump(dataset.test, result, out_dir / "ranks.csv")
    print(f"mrr {result.mrr:.4f}")
    for k in sorted(result.hits):
        print(f"hits@{k} {result.hits[k]:.4f}")
    return 0


def cmd_analyze(args) -> int:
    if args.per_type < 1:
        raise ValueError(f"--per-type must be at least 1, got {args.per_type}")
    try:
        ks = [float(k) for k in args.ks.split(",")]
    except ValueError:
        raise ValueError(f"--ks must be comma-separated numbers, got {args.ks!r}") from None
    params, dataset = _load_model_and_data(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.types:
        labels = load_type_labels(args.types, dataset.vocab)
        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        by_type: dict[int, list[int]] = {}
        for entity, type_id in sorted(labels.labels.items()):
            by_type.setdefault(type_id, []).append(entity)
        selected: list[int] = []
        for type_id in sorted(by_type):
            members = np.asarray(by_type[type_id])
            take = min(args.per_type, members.size)
            selected.extend(rng.choice(members, size=take, replace=False).tolist())
        names = [dataset.vocab.entities.name(e) for e in selected]
        for name, component in (("real", params.re_e), ("imag", params.im_e)):
            # Purity is measured on the normalized activations that the heatmaps export.
            normalized = activation_heatmap(component, range(params.n_entities))
            write_purity_csv(purity_curve(normalized, labels, ks), out_dir / f"purity_{name}.csv")
            write_heatmap_csv(normalized[selected], names, out_dir / f"heatmap_{name}.csv")

    if args.ents:
        classes = classify_pairs(load_entailments(args.ents, dataset.vocab), args.thresh)
        residuals = pair_residuals(params.rel, classes)
        write_pair_diagnostics_csv(*residuals, dataset.vocab, out_dir / "relation_pairs.csv")

    print(f"analysis written to {out_dir}")
    return 0


def cmd_significance(args) -> int:
    report = significance_report(args.ranks_a, args.ranks_b)
    rows = (f"{metric},{p:.6g},{'yes' if p < 0.05 else 'no'}" for metric, p in report.items())
    text = "\n".join(["metric,p_value,significant_at_0.05", *rows])
    print(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(args.out, encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgec",
        description="Constrained complex bilinear knowledge-graph embeddings.",
    )
    parser.add_argument("--version", action="version", version=f"kgec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine entailment rules from a training split")
    p.add_argument("--data", help="dataset directory containing train.txt")
    p.add_argument("--train-file", help="train triples TSV (overrides --data)")
    p.add_argument("--out", required=True, help="output rules TSV path")
    p.add_argument("--min-conf", type=float, default=0.8)
    p.add_argument("--min-support", type=int, default=10)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--ents", help="entailment rules TSV")
    p.add_argument("--config", help="config file path or preset name (wn18/fb15k/db100k)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--mu", type=float, help="override the entailment penalty weight")
    p.add_argument("--no-projection", action="store_true", help="disable the box projection")
    p.add_argument("--grid", action="store_true", help="sweep the hyperparameter grid")
    p.add_argument("--grid-file", help="JSON file overriding the default grid values")
    p.add_argument(
        "--precision",
        type=int,
        choices=(32, 64),
        default=32,
        help="checkpoint storage precision in bits (training always runs in float64)",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="filtered link-prediction evaluation")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dump-ranks", action="store_true", help="also write per-triple ranks")
    p.add_argument("--workers", type=int, help="rank chunks of test triples on at most this "
                   "many threads, and at most one per usable CPU (default: KGEC_WORKERS, else 1)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="interpretability analyses")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--types", help="entity type labels TSV")
    p.add_argument("--ents", help="entailment rules TSV for relation-pair diagnostics")
    p.add_argument("--ks", default="1,2,5,10,20,50,100", help="top-K percentages")
    p.add_argument("--per-type", type=int, default=30, help="entities per type in heatmaps")
    p.add_argument("--thresh", type=float, default=0.8, help="equivalence/inversion threshold")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("significance", help="paired t-test between two rank dumps")
    p.add_argument("--ranks-a", required=True)
    p.add_argument("--ranks-b", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_significance)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"kgec {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
