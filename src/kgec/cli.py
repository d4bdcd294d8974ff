"""Command-line entry point: mine, train, eval, analyze, significance.

Every subcommand exits with code 0 on success and prints a one-line
diagnostic to stderr on failure. Subcommands never modify their input files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from datetime import datetime, timezone
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
from .data import IdMap, Vocab, atomic_write, build_known_index, load_dataset, load_entailments
from .data import load_triples, read_json, sha256_file, write_json
from .evaluation import evaluate, significance_report, write_metrics_csv, write_rank_dump
from .mining import mine_entailments, write_rules
from .model import load_checkpoint, save_checkpoint
from .trainer import GRID, TrainConfig, grid_configs, parse_config, train, write_config, write_training_log

logger = logging.getLogger("kgec.cli")  # not "__main__" under python -m kgec.cli

# Files a training run writes besides manifest.json and config.cfg.
_RUN_OUTPUTS = ("checkpoint.kgec", "log.csv", "entities.txt", "relations.txt")
# Every file `train` writes in --out.
_TRAIN_FILES = (*_RUN_OUTPUTS, "checkpoint.kgec.manifest.json", "config.cfg", "manifest.json", "grid_state.json")


def _resolve_config(name_or_path: str) -> Path:
    """Accept a config path or the name of a shipped preset (wn18, fb15k, db100k)."""
    path = Path(name_or_path)
    if path.is_file():
        return path
    packaged = resources.files("kgec") / "configs" / f"{name_or_path}.cfg"
    if packaged.is_file():
        return Path(str(packaged))
    raise FileNotFoundError(f"config not found: {name_or_path}")


def _refuse_overwrite(outputs, inputs) -> None:
    """Raise ValueError naming the first input that an output path resolves to."""
    written = {Path(path).resolve() for path in outputs if path}
    for path in filter(None, inputs):
        if Path(path).resolve() in written:
            raise ValueError(f"{path}: an output would overwrite this input")


def cmd_mine(args) -> None:
    if not args.train_file and not args.data:
        raise ValueError("mine needs --data or --train-file")
    if not 0.0 < args.min_conf <= 1.0:  # NaN fails too
        raise ValueError(f"--min-conf must lie in (0, 1], got {args.min_conf:g}")
    if args.min_support < 1:
        raise ValueError(f"--min-support must be at least 1, got {args.min_support}")
    train_file = args.train_file or Path(args.data) / "train.txt"
    out = Path(args.out)
    diagnostics = out.with_suffix(".diagnostics.csv")
    _refuse_overwrite([out, diagnostics], [train_file])
    triples, vocab = load_triples(train_file)
    rules = mine_entailments(triples, args.min_conf, args.min_support)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_rules(rules, vocab, out, diagnostics)
    print(f"mined {len(rules)} rules -> {out} (diagnostics: {diagnostics})")


def _write_outputs(dataset, config, params, log, out_dir, precision, inputs):
    """Replace the run's outputs; ``manifest.json`` is removed first and written
    last, so a directory without one holds a run in progress or a broken one.
    The manifest records ``inputs``, the hashes `train` took before it read
    its inputs, and ``created``, the time it is written."""
    (out_dir / "manifest.json").unlink(missing_ok=True)
    ckpt, log_path, ent_vocab, rel_vocab = (out_dir / name for name in _RUN_OUTPUTS)
    dataset.vocab.entities.save(ent_vocab)
    dataset.vocab.relations.save(rel_vocab)
    # Training arithmetic is float64; the stored precision is a disk format.
    stored = params.astype(np.float32) if precision == 32 else params
    save_checkpoint(stored, ckpt, str(ent_vocab), str(rel_vocab))
    write_training_log(log, log_path)
    write_config(config, out_dir / "config.cfg")
    manifest = {"command": "train", "version": __version__, "seed": config.seed,
                "config": {**dataclasses.asdict(config), "checkpoint_precision": precision},
                "inputs": inputs, "outputs": [str(out_dir / name) for name in _RUN_OUTPUTS],
                "created": datetime.now(timezone.utc).isoformat()}
    write_json(out_dir / "manifest.json", manifest)


def _grid_key(config: TrainConfig) -> str:
    return json.dumps(dataclasses.asdict(config), sort_keys=True)


def cmd_train(args) -> None:
    if args.grid_file and not args.grid:
        raise ValueError("--grid-file needs --grid")
    config_path = _resolve_config(args.config) if args.config else None
    out_dir = Path(args.out)
    splits = (Path(args.data) / f"{split}.txt" for split in ("train", "valid", "test"))
    input_paths = [path for path in splits if path.exists()]
    input_paths += [Path(path) for path in (args.ents, config_path) if path]
    _refuse_overwrite([out_dir / name for name in _TRAIN_FILES], [*input_paths, args.grid_file])
    state_path = out_dir / "grid_state.json"
    if not args.grid and state_path.exists():
        raise ValueError(f"{state_path}: --out holds a grid sweep, which a single run would overwrite")
    config = parse_config(config_path) if config_path else TrainConfig()
    overrides = {"seed": args.seed, "mu": args.mu, "project": False if args.no_projection else None}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    grid = (read_json(args.grid_file) if args.grid_file else GRID) if args.grid else {}
    candidates = grid_configs(config, grid, args.grid_file or "the default grid")
    inputs = {str(path): sha256_file(path) for path in input_paths}  # the bytes read below
    # A sweep resumes only on the inputs its state records, compared as
    # contents, not paths, and checked before the data is read.
    state = read_json(state_path) if args.grid and state_path.exists() else {"inputs": inputs}
    stated = state.pop("inputs", None) if isinstance(state, dict) else None
    if not isinstance(stated, dict) or not all(type(mrr) in (int, float) for mrr in state.values()):
        raise ValueError(f"{state_path}: expected a JSON object mapping grid points to numbers "
                         'and "inputs" to an object')
    ours, theirs = list(inputs.values()), list(stated.values())
    differs = [p for p, h in [*inputs.items(), *stated.items()] if ours.count(h) != theirs.count(h)]
    if differs:
        raise ValueError(f"{state_path}: the sweep it records ran on other inputs ({differs[0]} differs)")
    dataset = load_dataset(args.data)
    ents = load_entailments(args.ents, dataset.vocab) if args.ents else []

    if args.grid and not dataset.valid:
        raise ValueError(f"{Path(args.data, 'valid.txt')}: --grid needs validation triples")
    out_dir.mkdir(parents=True, exist_ok=True)  # a bad --out fails before training
    if not args.grid:
        params, log = train(dataset, ents, config)
        _write_outputs(dataset, config, params, log, out_dir, args.precision, inputs)
        print(f"training done -> {out_dir / 'checkpoint.kgec'}")
        return

    # Grid sweep: sequential, resumable through the state file. A new best
    # point's outputs go before its state entry, so a stop in between
    # re-trains that point on resume.
    known = build_known_index(dataset)
    best_mrr = max(state.values(), default=-np.inf)
    for candidate in candidates:
        key = _grid_key(candidate)
        if key in state:
            continue
        params, log = train(dataset, ents, candidate)
        mrrs = [row.valid_mrr for row in log if row.valid_mrr is not None]
        valid_mrr = max(mrrs) if mrrs else evaluate(params, dataset.valid, known).mrr
        if valid_mrr > best_mrr:
            best_mrr = valid_mrr
            _write_outputs(dataset, candidate, params, log, out_dir, args.precision, inputs)
        state[key] = valid_mrr
        write_json(state_path, {**state, "inputs": inputs})
        print(f"grid point valid_mrr={valid_mrr:.4f} {key}")
    print(f"grid done; best valid MRR {best_mrr:.4f} -> {out_dir / 'checkpoint.kgec'}")


def _load_model_and_data(args):
    """The checkpoint and the dataset, which must have the checkpoint's shape,
    with ids from the vocabulary dumps the sidecar names (found by file name
    in the checkpoint's directory), each holding one name per row, or else,
    with a warning, from the data."""
    params, sidecar = load_checkpoint(args.checkpoint)
    keys = ("entity_vocab", "relation_vocab")
    dumps = [sidecar.get(key) for key in keys] if isinstance(sidecar, dict) else None
    if dumps is None or any(type(dump) not in (str, type(None)) for dump in dumps):
        raise ValueError(f"{args.checkpoint}.manifest.json: vocab paths must be strings or null")
    directory = Path(args.checkpoint).parent
    paths = [None if dump is None else directory / Path(dump).name for dump in dumps]
    vocab = None if None in paths else Vocab(*map(IdMap.load, paths))
    if vocab is None:
        logger.warning("%s: the sidecar names no vocabulary dumps; ids follow the order of first "
                       "appearance in %s", args.checkpoint, Path(args.data, "train.txt"))
    else:  # a dump short of names would otherwise fail naming a split line
        tables = (vocab.entities, params.n_entities), (vocab.relations, params.n_relations)
        for path, (names, rows) in zip(paths, tables):
            if len(names) != rows:
                raise ValueError(f"{path}: {len(names)} names, but the checkpoint has {rows} rows")
    dataset = load_dataset(args.data, vocab)
    if dataset.n_entities != params.n_entities or dataset.n_relations != params.n_relations:
        raise ValueError(
            f"{args.checkpoint}: checkpoint shape ({params.n_entities} entities, "
            f"{params.n_relations} relations) does not match the dataset "
            f"({dataset.n_entities}, {dataset.n_relations})"
        )
    return params, dataset


def cmd_eval(args) -> None:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    out_dir = Path(args.out)
    _refuse_overwrite([out_dir / "metrics.csv", args.dump_ranks and out_dir / "ranks.csv"], [args.checkpoint])
    params, dataset = _load_model_and_data(args)
    if not dataset.test:
        raise ValueError(f"{Path(args.data, 'test.txt')}: eval needs test triples")
    known = build_known_index(dataset)
    result = evaluate(params, dataset.test, known, workers=args.workers)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(result, out_dir / "metrics.csv")
    if args.dump_ranks:
        write_rank_dump(dataset.test, result, out_dir / "ranks.csv")
    print(f"mrr {result.mrr:.4f}")
    for k in sorted(result.hits):
        print(f"hits@{k} {result.hits[k]:.4f}")


def cmd_analyze(args) -> None:
    if args.per_type < 1:
        raise ValueError(f"--per-type must be at least 1, got {args.per_type}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if not 0.0 < args.thresh < 1.0:
        raise ValueError(f"--thresh must lie in (0, 1), got {args.thresh:g}")
    try:
        ks = [float(k) for k in args.ks.split(",")]
    except ValueError:
        raise ValueError(f"--ks must be comma-separated numbers, got {args.ks!r}") from None
    for k in ks:
        if not 0.0 < k <= 100.0:
            raise ValueError(f"--ks entries must lie in (0, 100], got {k:g}")
    out_dir = Path(args.out)
    written = [f"{kind}_{part}.csv" for kind in ("purity", "heatmap") for part in ("real", "imag") if args.types]
    written += ["relation_pairs.csv"] if args.ents else []
    _refuse_overwrite([out_dir / name for name in written], [args.checkpoint, args.types, args.ents])
    params, dataset = _load_model_and_data(args)
    # Every input is read before --out is made, so a bad one leaves no file.
    labels = load_type_labels(args.types, dataset.vocab) if args.types else None
    ents = load_entailments(args.ents, dataset.vocab) if args.ents else None
    out_dir.mkdir(parents=True, exist_ok=True)

    if labels is not None:
        # Purity and the heatmaps read only the labeled rows: row i is entity labeled[i].
        labeled, types = labels.entities, labels.types
        rows = dataclasses.replace(labels, entities=np.arange(labeled.size))
        rng = np.random.default_rng(args.seed)
        selected: list[int] = []
        for type_id in np.unique(types):
            members = np.flatnonzero(types == type_id)
            take = min(args.per_type, members.size)
            selected.extend(rng.choice(members, size=take, replace=False).tolist())
        names = [dataset.vocab.entities.name(labeled[row]) for row in selected]
        for name, component in (("real", params.re_e), ("imag", params.im_e)):
            # Purity is measured on the normalized activations that the heatmaps export.
            normalized = activation_heatmap(component, labeled)
            write_purity_csv(purity_curve(normalized, rows, ks), out_dir / f"purity_{name}.csv")
            write_heatmap_csv(normalized[selected], names, out_dir / f"heatmap_{name}.csv")

    if ents is not None:
        residuals = pair_residuals(params.rel, ents, args.thresh)
        write_pair_diagnostics_csv(*residuals, dataset.vocab, out_dir / "relation_pairs.csv")

    print(f"analysis written to {out_dir}")


def cmd_significance(args) -> None:
    _refuse_overwrite([args.out], [args.ranks_a, args.ranks_b])
    report = significance_report(args.ranks_a, args.ranks_b)
    rows = (f"{metric},{p:.6g},{'yes' if p < 0.05 else 'no'}" for metric, p in report.items())
    text = "\n".join(["metric,p_value,significant_at_0.05", *rows])
    print(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(args.out, encoding="utf-8") as fh:
            fh.write(text + "\n")


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
    p.add_argument("--workers", type=int, default=1, help="rank chunks of test triples on at most "
                   "this many threads, and at most one per usable CPU (default: 1)")
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
    p.add_argument("--seed", type=int, default=0)
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
    handler = logging.StreamHandler(sys.stderr)  # the package's warnings, named like errors
    handler.setFormatter(logging.Formatter(f"kgec {args.command}: warning: %(message)s"))
    logging.getLogger("kgec").addHandler(handler)
    try:
        args.func(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"kgec {args.command}: error: {exc}", file=sys.stderr)
        return 1
    finally:
        logging.getLogger("kgec").removeHandler(handler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
