"""End-to-end tests of the command-line interface, run manifests, and the
package surface the README documents."""

import ast
import dataclasses
import importlib
import inspect
import json
import logging
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgec
import kgec.cli
from kgec.analysis import (
    activation_heatmap,
    load_type_labels,
    pair_residuals,
    purity_curve,
    write_pair_diagnostics_csv,
    write_purity_csv,
)
from kgec.cli import build_parser, main
from kgec.data import Dataset, Entailment, Triple, load_dataset, sha256_file, write_csv, write_tsv
from kgec.model import ModelParams, init_params, load_checkpoint, save_checkpoint
from kgec.trainer import EpochStats, TrainConfig, parse_config, write_training_log

from conftest import load_manifest, make_vocab, names_of, verify_inputs, write_triples


@pytest.fixture
def data_dir(tmp_path):
    """A tiny dataset directory with a planted p -> q entailment in train."""
    rng = np.random.default_rng(42)
    vocab = make_vocab(12, 3)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < 48:
        h, t = rng.integers(0, 12, size=2)
        pairs.add((int(h), int(t)))
    ordered = sorted(pairs)
    q_facts = ordered[:25]
    p_facts = q_facts[:15]
    noise = ordered[25:]
    train = sorted(
        {Triple(h, 0, t) for h, t in p_facts}
        | {Triple(h, 1, t) for h, t in q_facts}
        | {Triple(h, 2, t) for h, t in noise[:15]}
    )
    valid = [Triple(h, 2, t) for h, t in noise[15:19]]
    test = [Triple(h, 2, t) for h, t in noise[19:]]
    directory = tmp_path / "data"
    directory.mkdir()
    write_triples(directory / "train.txt", train, vocab)
    write_triples(directory / "valid.txt", valid, vocab)
    write_triples(directory / "test.txt", test, vocab)
    return directory


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "d = 8\neta = 0.01\nneg_ratio = 2\nlr = 0.5\nmu = 0.1\n"
        "n_batches = 4\nmax_iters = 8\neval_every = 4\nseed = 0\n"
    )
    return path


def test_mine_writes_rules_and_diagnostics(data_dir, tmp_path, capsys):
    out = tmp_path / "rules.tsv"
    code = main(
        ["mine", "--data", str(data_dir), "--out", str(out), "--min-support", "2"]
    )
    assert code == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert any(line.startswith("r0\tr1\t") for line in lines)
    assert (tmp_path / "rules.diagnostics.csv").exists()


def test_train_eval_analyze_significance_pipeline(data_dir, config_file, tmp_path):
    rules = tmp_path / "rules.tsv"
    assert main(["mine", "--data", str(data_dir), "--out", str(rules), "--min-support", "2"]) == 0

    run_dir = tmp_path / "run"
    code = main(
        [
            "train",
            "--data", str(data_dir),
            "--ents", str(rules),
            "--config", str(config_file),
            "--out", str(run_dir),
        ]
    )
    assert code == 0
    ckpt = run_dir / "checkpoint.kgec"
    assert ckpt.exists()
    assert (run_dir / "log.csv").exists()
    assert (run_dir / "entities.txt").exists()
    manifest = load_manifest(run_dir / "manifest.json")
    verify_inputs(manifest)
    assert manifest["command"] == "train"
    assert str(ckpt) in manifest["outputs"]

    eval_dir = tmp_path / "eval"
    code = main(
        [
            "eval",
            "--data", str(data_dir),
            "--checkpoint", str(ckpt),
            "--out", str(eval_dir),
            "--dump-ranks",
        ]
    )
    assert code == 0
    metrics = (eval_dir / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "metric,value"
    assert metrics[1].startswith("mrr,")
    ranks_csv = eval_dir / "ranks.csv"
    assert ranks_csv.exists()

    types = tmp_path / "types.tsv"
    types.write_text("".join(f"e{i}\tT{i % 2}\n" for i in range(12)))
    analyze_dir = tmp_path / "analysis"
    code = main(
        [
            "analyze",
            "--data", str(data_dir),
            "--checkpoint", str(ckpt),
            "--types", str(types),
            "--ents", str(rules),
            "--ks", "10,50",
            "--out", str(analyze_dir),
        ]
    )
    assert code == 0
    for name in ("purity_real.csv", "purity_imag.csv", "heatmap_real.csv", "relation_pairs.csv"):
        assert (analyze_dir / name).exists(), name

    sig_out = tmp_path / "sig.csv"
    code = main(
        [
            "significance",
            "--ranks-a", str(ranks_csv),
            "--ranks-b", str(ranks_csv),
            "--out", str(sig_out),
        ]
    )
    assert code == 0
    assert sig_out.read_text().startswith("metric,p_value")


# Relation rows of the golden checkpoint, by name.
GOLDEN_RELATIONS = {
    "r0": [0.5 + 0.2j, 0.1 - 0.3j],
    "r1": [0.4 + 0.2j, 0.1 - 0.1j],
    "r2": [0.3 + 0.25j, 0.6 - 0.05j],
}
# r0 <-> r1 is an equivalence pair, r2^-1 -> r2 a self-inverse inversion pair,
# and r0 -> r2 and r1^-1 -> r2 are others (the second one inverted).
GOLDEN_RULES = "r0\tr1\t0.9\nr1\tr0\t0.9\nr2^-1\tr2\t0.9\nr0\tr2\t0.7\nr1^-1\tr2\t0.6\n"
GOLDEN_HEADER = "class,rel_p,rel_q,max_abs_diff,re_violation,im_max_abs_diff\r\n"
GOLDEN_PAIRS = GOLDEN_HEADER + (
    "equivalence,r0,r1,0.200000,,\r\n"
    "inversion,r2,r2,0.500000,,\r\n"
    "others,r0,r2,,0.200000,0.250000\r\n"
    "others,r1,r2,,0.100000,0.450000\r\n"
)
# r2^-1 -> r1 and r0 -> r2 have only weak reverses, so no pair.
GOLDEN_RULES_WEAK = "r0\tr2\t0.7\nr0\tr1\t0.9\nr2^-1\tr1\t0.9\nr1\tr0\t0.95\nr1^-1\tr2\t0.6\nr2\tr0\t0.3\n"
GOLDEN_PAIRS_WEAK = GOLDEN_HEADER + (
    "equivalence,r0,r1,0.200000,,\r\n"
    "others,r0,r2,,0.200000,0.250000\r\n"
    "others,r2,r1,,0.500000,0.450000\r\n"
    "others,r1,r2,,0.100000,0.450000\r\n"
    "others,r2,r0,,0.500000,0.250000\r\n"
)
# A list of rules, unlike a rules file, may repeat one: the equivalence pair
# r0 <-> r1 absorbs the weak r1 -> r0 too, and the repeated r0 -> r2 stays twice.
GOLDEN_RULES_REPEATED = (
    "r1\tr0\t0.5\nr0\tr2\t0.7\nr0\tr1\t0.9\nr2^-1\tr1\t0.9\n"
    "r1\tr0\t0.95\nr0\tr2\t0.7\nr1^-1\tr2\t0.6\nr2\tr0\t0.3\n"
)
GOLDEN_PAIRS_REPEATED = GOLDEN_HEADER + (
    "equivalence,r0,r1,0.200000,,\r\n"
    "others,r0,r2,,0.200000,0.250000\r\n"
    "others,r2,r1,,0.500000,0.450000\r\n"
    "others,r0,r2,,0.200000,0.250000\r\n"
    "others,r1,r2,,0.100000,0.450000\r\n"
    "others,r2,r0,,0.500000,0.250000\r\n"
)


@pytest.mark.parametrize(
    "rules, expected",
    [
        (GOLDEN_RULES, GOLDEN_PAIRS),
        ("", GOLDEN_HEADER),
        (GOLDEN_RULES_WEAK, GOLDEN_PAIRS_WEAK),
    ],
    ids=["every-class", "no-rules", "weak-reverses"],
)
def test_analyze_relation_pairs_golden(data_dir, tmp_path, rules, expected):
    vocab = load_dataset(data_dir).vocab
    names = [vocab.relations.name(k) for k in range(len(vocab.relations))]
    rel = np.array([GOLDEN_RELATIONS[name] for name in names])
    ent = np.full((len(vocab.entities), 2), 0.5 + 0.5j)
    checkpoint = tmp_path / "golden.kgec"
    save_checkpoint(ModelParams(ent, rel), checkpoint)
    rules_path = tmp_path / "rules.tsv"
    rules_path.write_text(rules)
    out = tmp_path / "analysis"
    argv = ["analyze", "--data", str(data_dir), "--checkpoint", str(checkpoint),
            "--ents", str(rules_path), "--out", str(out)]
    assert main(argv) == 0
    assert (out / "relation_pairs.csv").read_bytes() == expected.encode()


def test_relation_pairs_golden_of_a_list_with_repeated_rules(data_dir, tmp_path):
    vocab = load_dataset(data_dir).vocab
    names = [vocab.relations.name(k) for k in range(len(vocab.relations))]
    rel = np.array([GOLDEN_RELATIONS[name] for name in names])
    ids = vocab.relations.id
    rules = [Entailment(ids(p.removesuffix("^-1")), p.endswith("^-1"), ids(q), float(c))
             for p, q, c in (line.split("\t") for line in GOLDEN_RULES_REPEATED.splitlines())]
    write_pair_diagnostics_csv(*pair_residuals(rel, rules, 0.8), vocab, tmp_path / "pairs.csv")
    assert (tmp_path / "pairs.csv").read_bytes() == GOLDEN_PAIRS_REPEATED.encode()


def test_analyze_normalizes_only_the_labeled_rows(data_dir, tmp_path, monkeypatch):
    # Seven of the twelve entities are labeled. Purity must equal the curve
    # over all rows normalized, and each heatmap row that entity's row
    # normalized alone, while only labeled rows reach the normalization.
    vocab = load_dataset(data_dir).vocab
    params = init_params(len(vocab.entities), len(vocab.relations), 6, seed=1)
    checkpoint = tmp_path / "model.kgec"
    save_checkpoint(params, checkpoint)
    types = tmp_path / "types.tsv"
    types.write_text("".join(f"e{i}\tT{i % 3}\n" for i in (7, 2, 9, 4, 11, 0, 5)))
    labels = load_type_labels(types, vocab)
    normalized_ids = []

    def spy(component, entity_ids):
        normalized_ids.append(sorted(entity_ids))
        return activation_heatmap(component, entity_ids)

    monkeypatch.setattr(kgec.cli, "activation_heatmap", spy)
    out = tmp_path / "analysis"
    argv = ["analyze", "--data", str(data_dir), "--checkpoint", str(checkpoint),
            "--types", str(types), "--per-type", "2", "--ks", "20,50,100", "--out", str(out)]
    assert main(argv) == 0
    assert normalized_ids == [labels.entities.tolist()] * 2
    for name, component in (("real", params.re_e), ("imag", params.im_e)):
        every_row = activation_heatmap(component, range(params.n_entities))
        write_purity_csv(purity_curve(every_row, labels, (20, 50, 100)), tmp_path / "want.csv")
        assert (out / f"purity_{name}.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        lines = (out / f"heatmap_{name}.csv").read_text().splitlines()[1:]
        entities = [vocab.entities.id(line.split(",")[0]) for line in lines]
        assert len(entities) == 6 and set(entities) <= set(labels.entities.tolist())
        for line, entity in zip(lines, entities):
            assert line.split(",")[1:] == [f"{v:.6f}" for v in every_row[entity]]


@pytest.mark.parametrize(
    "types, rules, bad, message",
    [
        ("e0\tT0\ne1\tT1\n", "r0\tr9\t0.9\n", "rules", ":1: "),
        ("ghost\tT0\n", None, "types", ": no type label names an entity of the vocabulary"),
    ],
    ids=["rules-name-an-unknown-relation", "types-label-no-entity"],
)
def test_analyze_reads_every_input_before_writing(data_dir, tmp_path, capsys, types, rules, bad, message):
    vocab = load_dataset(data_dir).vocab
    checkpoint = tmp_path / "model.kgec"
    save_checkpoint(init_params(len(vocab.entities), len(vocab.relations), 4, seed=0), checkpoint)
    paths = {"types": tmp_path / "types.tsv", "rules": tmp_path / "rules.tsv"}
    out = tmp_path / "analysis"
    argv = ["analyze", "--data", str(data_dir), "--checkpoint", str(checkpoint), "--out", str(out)]
    for flag, name, text in (("--types", "types", types), ("--ents", "rules", rules)):
        if text is not None:
            paths[name].write_text(text)
            argv += [flag, str(paths[name])]
    assert main(argv) == 1
    error = capsys.readouterr().err.splitlines()[-1]  # after the warning that the sidecar names no vocabulary
    assert error.startswith(f"kgec analyze: error: {paths[bad]}{message}")
    assert not out.exists()


def test_train_is_reproducible_from_identical_inputs(data_dir, config_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = main(
            ["train", "--data", str(data_dir), "--config", str(config_file), "--out", str(out)]
        )
        assert code == 0
    bytes_a = (out_a / "checkpoint.kgec").read_bytes()
    bytes_b = (out_b / "checkpoint.kgec").read_bytes()
    assert bytes_a == bytes_b
    assert sha256_file(out_a / "log.csv") == sha256_file(out_b / "log.csv")


def test_train_mu_and_projection_flags(data_dir, config_file, tmp_path):
    out = tmp_path / "plain"
    code = main(
        [
            "train",
            "--data", str(data_dir),
            "--config", str(config_file),
            "--mu", "0",
            "--no-projection",
            "--out", str(out),
        ]
    )
    assert code == 0
    manifest = load_manifest(out / "manifest.json")
    assert manifest["config"]["mu"] == 0
    assert manifest["config"]["project"] is False
    params, sidecar = load_checkpoint(out / "checkpoint.kgec")
    assert sidecar["precision"] == 32  # training checkpoints default to float32
    assert params.re_e.min() < 0 or params.re_e.max() > 1

    out_nne = tmp_path / "nne"
    code = main(
        [
            "train",
            "--data", str(data_dir),
            "--config", str(config_file),
            "--mu", "0",
            "--precision", "64",
            "--out", str(out_nne),
        ]
    )
    assert code == 0
    params, sidecar = load_checkpoint(out_nne / "checkpoint.kgec")
    assert sidecar["precision"] == 64
    assert params.re_e.dtype == np.float64
    assert params.re_e.min() >= 0 and params.re_e.max() <= 1


def test_grid_mode_is_resumable(data_dir, config_file, tmp_path, capsys):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"d": [4, 8], "lr": [0.5]}))
    out = tmp_path / "grid"
    argv = [
        "train",
        "--data", str(data_dir),
        "--config", str(config_file),
        "--grid",
        "--grid-file", str(grid_file),
        "--out", str(out),
    ]
    assert main(argv) == 0
    state = json.loads((out / "grid_state.json").read_text())
    assert len(_grid_points(out)) == 2
    assert (out / "checkpoint.kgec").exists()
    # Resuming with a completed state re-trains nothing and keeps the state.
    assert main(argv) == 0
    assert json.loads((out / "grid_state.json").read_text()) == state
    # A corrupt state file stops the sweep with one line naming it.
    (out / "grid_state.json").write_text('{\n  "partial')
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{out / 'grid_state.json'}: invalid JSON" in err
    assert len(err.strip().splitlines()) == 1


def test_grid_values_are_cast_as_in_a_config_file(data_dir, config_file, tmp_path):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"project": ["no"]}))
    out = tmp_path / "grid"
    argv = ["train", "--data", str(data_dir), "--config", str(config_file),
            "--grid", "--grid-file", str(grid_file), "--out", str(out)]
    assert main(argv) == 0
    assert "project = false\n" in (out / "config.cfg").read_text()
    assert load_manifest(out / "manifest.json")["config"]["project"] is False
    params, _ = load_checkpoint(out / "checkpoint.kgec")
    assert params.re_e.min() < 0 or params.re_e.max() > 1


def test_grid_without_validation_split_fails_before_training(
    data_dir, config_file, tmp_path, monkeypatch, capsys
):
    (data_dir / "valid.txt").unlink()
    calls = _counting_train(monkeypatch)
    argv = ["train", "--data", str(data_dir), "--config", str(config_file),
            "--grid", "--out", str(tmp_path / "grid")]
    assert main(argv) == 1
    assert calls == []
    # The missing split's warning, then the one error line.
    assert capsys.readouterr().err.splitlines() == [
        f"kgec train: warning: split file {data_dir / 'valid.txt'} is missing; using an empty split",
        f"kgec train: error: {data_dir / 'valid.txt'}: --grid needs validation triples",
    ]


@pytest.mark.parametrize("source", ["--seed", "config", "--grid-file"])
def test_train_rejects_a_negative_seed_before_writing(data_dir, config_file, tmp_path, capsys, source):
    out = tmp_path / "run"
    argv = ["train", "--data", str(data_dir), "--config", str(config_file), "--out", str(out)]
    if source == "--seed":
        argv += ["--seed", "-1"]
    elif source == "config":
        config_file.write_text(config_file.read_text().replace("seed = 0", "seed = -1"))
    else:
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"seed": [0, -1]}))
        argv += ["--grid", "--grid-file", str(grid_file)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "seed must be non-negative, got -1" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, file, message",
    [
        (["--seed", "-1"], None, "seed must be non-negative, got -1"),
        (["--config", "{file}"], "d = 0\n", "{file}:1: d must be at least 1"),
        (["--config", "{file}"], "d = 8\nd = 0\n", "{file}:2: repeated config key 'd'"),
        (["--grid", "--grid-file", "{file}"], '{"depth": [2]}', "{file}: unknown grid key 'depth'"),
        (["--grid", "--grid-file", "{file}"], '{"l2_full": [false]}',
         "{file}: unknown grid key 'l2_full'"),
        (["--grid", "--grid-file", "{file}"], '{"d": [4], "d": [8]}', "{file}: invalid JSON: repeated key 'd'"),
    ],
    ids=["--seed", "config", "config-repeated-key", "--grid-file", "grid-l2_full", "grid-repeated-key"],
)
def test_train_checks_its_config_before_loading_the_data(tmp_path, capsys, flags, file, message):
    # The data directory has no train.txt, so loading first would fail naming it.
    data, path = tmp_path / "no-data", tmp_path / "input"
    data.mkdir()
    if file is not None:
        path.write_text(file)
    argv = ["train", "--data", str(data), "--out", str(tmp_path / "run")]
    assert main(argv + [flag.format(file=path) for flag in flags]) == 1
    err = capsys.readouterr().err
    assert message.format(file=path) in err
    assert "train.txt" not in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--min-conf", "1.5", "--min-conf must lie in (0, 1], got 1.5"),
        ("--min-conf", "0", "--min-conf must lie in (0, 1], got 0"),
        ("--min-conf", "nan", "--min-conf must lie in (0, 1], got nan"),
        ("--min-support", "0", "--min-support must be at least 1, got 0"),
    ],
    ids=["--min-conf=1.5", "--min-conf=0", "--min-conf=nan", "--min-support=0"],
)
def test_mine_checks_its_flags_before_loading_the_data(tmp_path, capsys, flag, value, message):
    # The data directory has no train.txt, so loading first would fail naming it.
    data, out = tmp_path / "no-data", tmp_path / "rules.tsv"
    data.mkdir()
    assert main(["mine", "--data", str(data), "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err == f"kgec mine: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("split", ["empty", "missing"])
def test_eval_without_test_triples_fails_naming_the_split(
    data_dir, tmp_path, capsys, monkeypatch, split
):
    path = tmp_path / "c.kgec"
    save_checkpoint(init_params(12, 3, 4, seed=0), path)
    if split == "empty":
        (data_dir / "test.txt").write_text("")
    else:
        (data_dir / "test.txt").unlink()
    monkeypatch.setattr("kgec.cli.build_known_index", lambda dataset: pytest.fail("index built"))
    argv = ["eval", "--data", str(data_dir), "--checkpoint", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == f"kgec eval: error: {data_dir / 'test.txt'}: eval needs test triples"


def test_a_config_with_an_l2_full_line_is_refused(data_dir, config_file, tmp_path, capsys):
    # config.cfg of runs made before full-parameter L2 was removed ends with it.
    config = tmp_path / "old.cfg"
    config.write_text(config_file.read_text() + "l2_full = false\n")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--config", str(config), "--out", str(out)]) == 1
    line = len(config.read_text().splitlines())
    assert capsys.readouterr().err == f"kgec train: error: {config}:{line}: unknown config key 'l2_full'\n"
    assert not out.exists()


def _counting_train(monkeypatch):
    import kgec.cli

    calls = []
    real_train = kgec.cli.train

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real_train(*args, **kwargs)

    monkeypatch.setattr(kgec.cli, "train", counting)
    return calls


def test_grid_trains_each_point_once(data_dir, config_file, tmp_path, monkeypatch):
    from kgec.cli import _grid_key

    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"d": [4, 8], "lr": [0.5]}))
    out = tmp_path / "grid"
    calls = _counting_train(monkeypatch)
    argv = ["train", "--data", str(data_dir), "--config", str(config_file),
            "--grid", "--grid-file", str(grid_file), "--out", str(out)]
    assert main(argv) == 0
    assert len(calls) == 2
    # The written outputs are those of the best point, as a single run gives them.
    state = _grid_points(out)
    best = parse_config(out / "config.cfg")
    assert state[_grid_key(best)] == max(state.values())
    single = tmp_path / "single"
    argv = ["train", "--data", str(data_dir), "--config", str(out / "config.cfg"), "--out", str(single)]
    assert main(argv) == 0
    assert (out / "checkpoint.kgec").read_bytes() == (single / "checkpoint.kgec").read_bytes()


def test_grid_state_survives_a_crash_during_write(data_dir, config_file, tmp_path, monkeypatch):
    import kgec.cli

    class Crash(Exception):
        pass

    real_dump = json.dump

    def crashing_dump(obj, fh, **kwargs):
        # Fail while writing the second grid point's state, mid-file.
        if "grid_state" in fh.name and len(obj) == 3:  # two points and the inputs
            fh.write('{\n  "partial')
            raise Crash
        real_dump(obj, fh, **kwargs)

    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"d": [4, 8], "lr": [0.5]}))
    out = tmp_path / "grid"
    argv = ["train", "--data", str(data_dir), "--config", str(config_file),
            "--grid", "--grid-file", str(grid_file), "--out", str(out)]
    monkeypatch.setattr(kgec.cli.json, "dump", crashing_dump)
    with pytest.raises(Crash):
        main(argv)
    monkeypatch.setattr(kgec.cli.json, "dump", real_dump)
    assert len(_grid_points(out)) == 1
    assert sorted(p.name for p in out.iterdir() if "grid_state" in p.name) == ["grid_state.json"]
    calls = _counting_train(monkeypatch)
    assert main(argv) == 0
    assert len(calls) == 1
    assert len(_grid_points(out)) == 2


class _Crash(Exception):
    pass


def _raise_crash(*args, **kwargs):
    raise _Crash


def _grid_points(out):
    """A sweep's grid points and their validation MRRs: its state without the inputs it records."""
    state = json.loads((out / "grid_state.json").read_text())
    del state["inputs"]
    return state


def _grid_argv(data_dir, config_file, tmp_path, grid):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps(grid))
    return ["train", "--data", str(data_dir), "--config", str(config_file),
            "--grid", "--grid-file", str(grid_file), "--out", str(tmp_path / "grid")]


@pytest.mark.parametrize("stop", ["train", "save_checkpoint"])
def test_a_stopped_rerun_leaves_no_manifest_for_outputs_it_lacks(
    data_dir, config_file, tmp_path, monkeypatch, stop
):
    out = tmp_path / "run"
    argv = ["train", "--data", str(data_dir), "--config", str(config_file), "--out", str(out)]
    assert main(argv + ["--seed", "1"]) == 0
    names = ("manifest.json", "checkpoint.kgec", "log.csv", "config.cfg")
    old = {name: (out / name).read_bytes() for name in names}
    monkeypatch.setattr(kgec.cli, stop, _raise_crash)
    with pytest.raises(_Crash):
        main(argv + ["--seed", "2"])
    if stop == "train":  # nothing replaced yet: the old run stands, manifest and all
        assert {name: (out / name).read_bytes() for name in names} == old
        assert load_manifest(out / "manifest.json")["seed"] == parse_config(out / "config.cfg").seed == 1
    else:  # outputs part replaced: no manifest vouches for them
        assert not (out / "manifest.json").exists()
        assert (out / "checkpoint.kgec").read_bytes() == old["checkpoint.kgec"]


def test_a_grid_stopped_writing_a_new_best_resumes_to_one_point(
    data_dir, config_file, tmp_path, monkeypatch, capsys
):
    from kgec.cli import _grid_key

    argv = _grid_argv(data_dir, config_file, tmp_path, {"d": [2, 10]})
    out = tmp_path / "grid"
    real_write = kgec.cli._write_outputs
    written = []

    def stop_at_second(*args):
        written.append(args[1].d)
        if len(written) == 2:
            raise _Crash
        real_write(*args)

    monkeypatch.setattr(kgec.cli, "_write_outputs", stop_at_second)
    with pytest.raises(_Crash):
        main(argv)
    assert written == [2, 10], "the second point must be a new best"
    monkeypatch.setattr(kgec.cli, "_write_outputs", real_write)
    capsys.readouterr()
    assert main(argv) == 0
    best = parse_config(out / "config.cfg")
    state = _grid_points(out)
    assert state[_grid_key(best)] == max(state.values())
    assert load_manifest(out / "manifest.json")["config"] == {**dataclasses.asdict(best), "checkpoint_precision": 32}
    assert load_checkpoint(out / "checkpoint.kgec")[0].d == best.d
    assert f"grid done; best valid MRR {max(state.values()):.4f}" in capsys.readouterr().out


def test_a_grid_tie_keeps_the_earlier_point(data_dir, config_file, tmp_path, monkeypatch):
    real_train = kgec.cli.train

    def tied(*args, **kwargs):
        params, log = real_train(*args, **kwargs)
        return params, [dataclasses.replace(row, valid_mrr=0.5) for row in log]

    monkeypatch.setattr(kgec.cli, "train", tied)
    out = tmp_path / "grid"
    assert main(_grid_argv(data_dir, config_file, tmp_path, {"d": [4, 8]})) == 0
    assert list(_grid_points(out).values()) == [0.5, 0.5]
    assert parse_config(out / "config.cfg").d == 4
    assert load_manifest(out / "manifest.json")["config"]["d"] == 4
    assert load_checkpoint(out / "checkpoint.kgec")[0].d == 4


def _crash_in_checkpoint(params, path, monkeypatch):
    class Exploding(type(params)):
        @property
        def im_r(self):  # read after the header is written
            raise _Crash

    save_checkpoint(Exploding(params.ent, params.rel), path)


def _partial_json_dump(obj, fh, **kwargs):
    fh.write('{\n  "partial')
    raise _Crash


def _crash_in_sidecar(params, path, monkeypatch):
    import kgec.data

    monkeypatch.setattr(kgec.data.json, "dump", _partial_json_dump)
    save_checkpoint(params, path)


def _crash_in_log(params, path, monkeypatch):
    # The second row fails to format after the first one is written.
    write_training_log([EpochStats(1, 1.0, 0.0, 0.5, 1.5), EpochStats(2, "bad", 0, 0, 0)], path)


def _row_then_crash():
    yield ["new", "row"]
    raise _Crash


def _crash_in_csv(params, path, monkeypatch):
    write_csv(path, ["a", "b"], _row_then_crash())


def _crash_in_tsv(params, path, monkeypatch):
    write_tsv(path, _row_then_crash())


def _crash_in_manifest(params, path, monkeypatch):
    # The run's outputs go into path's directory; the manifest's own dump fails.
    real_dump = json.dump

    def dump(obj, fh, **kwargs):
        (_partial_json_dump if Path(fh.name) == path.with_name("manifest.json.tmp") else real_dump)(obj, fh, **kwargs)

    monkeypatch.setattr(kgec.cli.json, "dump", dump)
    dataset = Dataset([], [], [], make_vocab(4, 2))
    kgec.cli._write_outputs(dataset, TrainConfig(d=3), params, [], path.parent, 32, {})


@pytest.mark.parametrize(
    "crash, target",
    [
        (_crash_in_checkpoint, "ckpt.kgec"),
        (_crash_in_sidecar, "ckpt.kgec.manifest.json"),
        (_crash_in_log, "log.csv"),
        (_crash_in_csv, "table.csv"),
        (_crash_in_tsv, "table.tsv"),
        (_crash_in_manifest, "manifest.json"),
    ],
    ids=["checkpoint", "sidecar", "log", "csv", "tsv", "manifest"],
)
def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch, crash, target):
    params = init_params(4, 2, 3, seed=0)
    save_checkpoint(params, tmp_path / "ckpt.kgec")
    write_training_log([EpochStats(1, 2.0, 0.0, 1.0, 3.0)], tmp_path / "log.csv")
    write_csv(tmp_path / "table.csv", ["a", "b"], [["old", "row"]])
    write_tsv(tmp_path / "table.tsv", [["old", "row"]])
    (tmp_path / "manifest.json").write_text('{"seed": 0}\n')
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    path = tmp_path / ("ckpt.kgec" if target == "ckpt.kgec.manifest.json" else target)
    with pytest.raises((_Crash, ValueError)):
        crash(init_params(4, 2, 3, seed=1), path, monkeypatch)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    if target == "manifest.json":  # removed before the run's other outputs were replaced
        assert target not in after
    else:
        assert after[target] == before[target]
    assert not [name for name in after if name.endswith(".tmp")]


def test_eval_rejects_a_worker_count_below_one_before_loading(data_dir, tmp_path, capsys):
    # The checkpoint does not exist, so only a check made before loading names the flag.
    out = tmp_path / "out"
    argv = ["eval", "--data", str(data_dir), "--checkpoint", str(tmp_path / "missing.kgec"), "--out", str(out)]
    assert build_parser().parse_args(argv).workers == 1
    for count in ("0", "-2"):
        assert main(argv + ["--workers", count]) == 1
        assert capsys.readouterr().err == f"kgec eval: error: --workers must be at least 1, got {count}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--per-type", "-1", "--per-type must be at least 1, got -1"),
        ("--per-type", "0", "--per-type must be at least 1, got 0"),
        ("--ks", "abc", "--ks must be comma-separated numbers, got 'abc'"),
        ("--ks", "1,,5", "--ks must be comma-separated numbers, got '1,,5'"),
        ("--ks", "0,150", "--ks entries must lie in (0, 100], got 0"),
        ("--ks", "50,150", "--ks entries must lie in (0, 100], got 150"),
        ("--ks", "nan", "--ks entries must lie in (0, 100], got nan"),
        ("--thresh", "1.5", "--thresh must lie in (0, 1), got 1.5"),
        ("--thresh", "0", "--thresh must lie in (0, 1), got 0"),
        ("--seed", "-1", "--seed must be non-negative, got -1"),
    ],
)
def test_analyze_rejects_bad_flags_before_loading(data_dir, tmp_path, capsys, flag, value, message):
    # The checkpoint does not exist, so only a check made before loading names the flag.
    out = tmp_path / "out"
    argv = ["analyze", "--data", str(data_dir), "--checkpoint", str(tmp_path / "missing.kgec"),
            "--out", str(out), flag, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"kgec analyze: error: {message}" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_eval_missing_checkpoint_fails_with_message(data_dir, tmp_path, capsys):
    code = main(
        [
            "eval",
            "--data", str(data_dir),
            "--checkpoint", str(tmp_path / "missing.bin"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code != 0
    err = capsys.readouterr().err
    assert "missing.bin" in err
    assert len(err.strip().splitlines()) == 1


def test_eval_corrupt_checkpoint_fails_with_message(data_dir, tmp_path, capsys):
    path = tmp_path / "corrupt.kgec"
    out = tmp_path / "out"
    argv = ["eval", "--data", str(data_dir), "--checkpoint", str(path), "--out", str(out)]
    save_checkpoint(init_params(12, 3, 4, seed=0), path)
    path.write_bytes(path.read_bytes()[:-3])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "corrupt.kgec" in err and "truncated" in err
    assert len(err.strip().splitlines()) == 1
    # A whole checkpoint whose sidecar holds a raw control character.
    save_checkpoint(init_params(12, 3, 4, seed=0), path)
    sidecar = tmp_path / "corrupt.kgec.manifest.json"
    sidecar.write_text('{"checkpoint": "a\x01b"}')
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{sidecar}: invalid JSON: Invalid control character" in err
    assert len(err.strip().splitlines()) == 1


def test_eval_reads_a_checkpoint_with_the_names_it_was_trained_on(
    data_dir, config_file, tmp_path, capsys
):
    run = tmp_path / "run"
    argv = ["train", "--data", str(data_dir), "--config", str(config_file), "--out", str(run)]
    assert main(argv) == 0
    # The same training triples in another order give the names other ids.
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    lines = (data_dir / "train.txt").read_text().splitlines(keepends=True)
    (shuffled / "train.txt").write_text("".join(reversed(lines)))
    for name in ("valid.txt", "test.txt"):
        (shuffled / name).write_bytes((data_dir / name).read_bytes())
    assert names_of(load_dataset(shuffled).vocab.entities) != names_of(load_dataset(data_dir).vocab.entities)
    # The run directory is moved as a whole; the sidecar still names "run/...".
    moved = tmp_path / "moved"
    run.rename(moved)
    outs = []
    for data in (data_dir, shuffled):
        outs.append(tmp_path / f"eval-{data.name}")
        argv = ["eval", "--data", str(data), "--checkpoint", str(moved / "checkpoint.kgec"),
                "--out", str(outs[-1]), "--dump-ranks"]
        assert main(argv) == 0
    for name in ("metrics.csv", "ranks.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    # A name the dumps lack fails naming the file and line.
    with open(shuffled / "test.txt", "a") as fh:
        fh.write("e0\tr0\tstranger\n")
    n_lines = len((shuffled / "test.txt").read_text().splitlines())
    capsys.readouterr()
    argv = ["analyze", "--data", str(shuffled), "--checkpoint", str(moved / "checkpoint.kgec"),
            "--out", str(tmp_path / "analysis")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{shuffled / 'test.txt'}:{n_lines}: unknown name: 'stranger'" in err


def test_eval_reads_back_a_name_ending_in_cr(config_file, tmp_path):
    # The tail of the first line is "b\r", beside a name "b": read back
    # without its CR, the dump would repeat "b" and eval would fail.
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.txt").write_bytes(b"a\tp\tb\r\r\nb\tp\tc\nc\tp\ta\n")
    (data / "test.txt").write_bytes(b"c\tp\tb\r\r\nb\tp\ta\n")
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--config", str(config_file), "--out", str(run)]) == 0
    assert (run / "entities.txt").read_bytes() == b"a\nb\r\r\nb\nc\n"
    argv = ["eval", "--data", str(data), "--checkpoint", str(run / "checkpoint.kgec"),
            "--out", str(tmp_path / "eval"), "--dump-ranks"]
    assert main(argv) == 0
    ranks = (tmp_path / "eval" / "ranks.csv").read_text().splitlines()
    assert [row.split(",")[:3] for row in ranks[1:]] == [["3", "0", "1"], ["2", "0", "0"]]


@pytest.mark.parametrize(
    "sidecar", [None, {"checkpoint": "c.kgec"}, {"entity_vocab": "e.txt", "relation_vocab": None}],
    ids=["missing", "no-keys", "one-null"],
)
def test_checkpoint_without_vocab_dumps_warns_and_reads_the_data_order(
    data_dir, tmp_path, caplog, sidecar
):
    path = tmp_path / "c.kgec"
    save_checkpoint(init_params(12, 3, 4, seed=0), path)
    sidecar_path = tmp_path / "c.kgec.manifest.json"
    if sidecar is None:
        sidecar_path.unlink()
    else:
        sidecar_path.write_text(json.dumps(sidecar))
    argv = ["eval", "--data", str(data_dir), "--checkpoint", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [f"{path}: the sidecar names no vocabulary dumps; ids follow the order "
                        f"of first appearance in {data_dir / 'train.txt'}"]


def test_warnings_reach_stderr_named_by_the_command(data_dir, tmp_path, capsys):
    path = tmp_path / "c.kgec"
    save_checkpoint(init_params(12, 3, 4, seed=0), path)
    assert json.loads((tmp_path / "c.kgec.manifest.json").read_text())["entity_vocab"] is None
    warning = (f"kgec eval: warning: {path}: the sidecar names no vocabulary dumps; ids follow "
               f"the order of first appearance in {data_dir / 'train.txt'}")
    outs = []
    for run in range(2):  # one handler a call, removed after it: the line is not repeated
        argv = ["eval", "--data", str(data_dir), "--checkpoint", str(path), "--out", str(tmp_path / f"e{run}")]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == [warning]
        outs.append(out)
    assert outs[0] == outs[1] and outs[0].startswith("mrr ")
    assert logging.getLogger("kgec").handlers == []
    # Run as a module, the CLI's own warning still takes the prefix.
    env = dict(os.environ, PYTHONPATH=str(Path(kgec.__file__).resolve().parents[1]))
    child = subprocess.run([sys.executable, "-m", "kgec.cli", *argv], env=env, capture_output=True, text=True)
    assert child.returncode == 0 and child.stderr.splitlines() == [warning] and child.stdout == outs[0]


def test_grid_file_without_grid_fails_before_loading(data_dir, tmp_path, capsys, monkeypatch):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"d": [4]}))
    loads = []
    monkeypatch.setattr("kgec.cli.load_dataset", lambda *args: loads.append(args))
    out = tmp_path / "out"
    argv = ["train", "--data", str(data_dir), "--grid-file", str(grid_file), "--out", str(out)]
    assert main(argv) == 1
    assert loads == [] and not out.exists()
    assert capsys.readouterr().err == "kgec train: error: --grid-file needs --grid\n"


@pytest.mark.parametrize("sidecar", ['["e.txt"]', '{"entity_vocab": 5, "relation_vocab": "r.txt"}'])
def test_malformed_sidecar_fails_naming_it(data_dir, tmp_path, capsys, sidecar):
    path = tmp_path / "c.kgec"
    save_checkpoint(init_params(12, 3, 4, seed=0), path)
    (tmp_path / "c.kgec.manifest.json").write_text(sidecar)
    argv = ["eval", "--data", str(data_dir), "--checkpoint", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{path}.manifest.json: vocab paths must be strings or null" in err


@pytest.mark.parametrize("command", ["eval", "analyze"])
@pytest.mark.parametrize("extra", [5, -5], ids=["larger", "smaller"])
def test_checkpoint_of_another_shape_fails_naming_it(data_dir, tmp_path, capsys, command, extra):
    n_entities = len(load_dataset(data_dir).vocab.entities)
    path = tmp_path / "other.kgec"
    save_checkpoint(init_params(n_entities + extra, 3, 4, seed=0), path)
    argv = [command, "--data", str(data_dir), "--checkpoint", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    # The null-sidecar warning, then the one error line.
    warning, error = capsys.readouterr().err.splitlines()
    assert warning.startswith(f"kgec {command}: warning: {path}: the sidecar names no vocabulary dumps")
    assert error.startswith(f"kgec {command}: error: {path}: checkpoint shape ({n_entities + extra} entities, 3 relations)")


@pytest.mark.parametrize(
    "name, content, command, message",
    [
        ("bad.cfg", "seed = 0\nd = abc\n", "train --data {data} --config {file} --out {out}",
         ":2: bad int value for d: 'abc'"),
        ("bad.cfg", "d = 0\n", "train --data {data} --config {file} --out {out}",
         ":1: d must be at least 1"),
        ("bad.cfg", "# a run\n\nd = 16\neta = 0.01\nneg_ratio = 2\nlr = nan\nmu = 1\n",
         "train --data {data} --config {file} --out {out}", ":6: lr must be positive and finite"),
        ("grid.json", '{"d": [4], "depth": [2]}',
         "train --data {data} --config {config} --grid --grid-file {file} --out {out}",
         ": unknown grid key 'depth'"),
        ("grid.json", '{"d": [1.5]}',
         "train --data {data} --config {config} --grid --grid-file {file} --out {out}",
         ": bad int value for d: 1.5"),
        ("grid.json", '{"d": [], "lr": [0.5]}',
         "train --data {data} --config {config} --grid --grid-file {file} --out {out}",
         ": grid key 'd' has no values"),
        ("grid.json", '{"seed": "12"}',
         "train --data {data} --config {config} --grid --grid-file {file} --out {out}",
         ": grid key 'seed' needs a list of values, got '12'"),
        ("grid.json", '{"neg_ratio": 25}',
         "train --data {data} --config {config} --grid --grid-file {file} --out {out}",
         ": grid key 'neg_ratio' needs a list of values, got 25"),
        ("grid.json", '["d"]',
         "train --data {data} --config {config} --grid --grid-file {file} --out {out}",
         ": expected a JSON object mapping config keys to value lists"),
        ("ranks.csv", "head,rel,tail,head_rank,tail_rank\n0,0,1,1,1\n0,0,1\n",
         "significance --ranks-a {file} --ranks-b {file}",
         ":3: not enough values to unpack (expected 5, got 3)"),
        ("ranks.csv", "head,rel,tail,head_rank,tail_rank\n0,0,1,1,1\n0,0,1,0,2\n",
         "significance --ranks-a {file} --ranks-b {file}",
         ":3: ranks must be at least 1, got 0 and 2"),
        ("ranks.csv", b"head,rel,tail,head_rank,tail_rank\r\n0,0,1,1,1\r\n0,0,1,1,5\r,2\r\n",
         "significance --ranks-a {file} --ranks-b {file}",
         ":3: too many values to unpack (expected 5)"),
        ("ranks.csv", "head,rel,tail,head_rank,tail_rank\n", "significance --ranks-a {file} --ranks-b {file}",
         ": holds no ranks"),
        ("ranks.csv", b"head,rel,tail,head_rank,tail_rank\r\n0,0,1,1,1\r\n0,0,1,1,1",
         "significance --ranks-a {file} --ranks-b {file}", ":3: the file ends inside this line, so it was cut short"),
        ("train.txt", b"a\tr\tb\nc\tr\xff\td\n", "mine --train-file {file} --out {out}",
         ":2: 'utf-8' codec can't decode byte 0xff in position 3"),
        ("bad.cfg", b"d = 8\nlr = 0.\xff\n", "train --data {data} --config {file} --out {out}",
         ":2: 'utf-8' codec can't decode byte 0xff in position 7"),
        ("ranks.csv", b"head,rel,tail,head_rank,tail_rank\n0,0,1,1,\xff\n",
         "significance --ranks-a {file} --ranks-b {file}",
         ":2: 'utf-8' codec can't decode byte 0xff in position 8"),
        ("out/grid_state.json", '["x"]',
         "train --data {data} --config {config} --grid --out {out}",
         ": expected a JSON object mapping grid points to numbers"),
    ],
    ids=["config-cast", "config-value", "config-value-line", "grid-key", "grid-cast", "grid-empty",
         "grid-string", "grid-number", "grid-shape", "rank-dump", "rank-dump-rank", "rank-dump-cr",
         "rank-dump-empty", "rank-dump-cut", "tsv-utf8", "config-utf8", "rank-dump-utf8", "grid-state-shape"],
)
def test_bad_input_fails_naming_the_file(
    data_dir, config_file, tmp_path, capsys, name, content, command, message
):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    fill = dict(data=data_dir, config=config_file, file=path, out=tmp_path / "out")
    argv = command.format(**fill).split()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{path}{message}" in err
    assert len(err.strip().splitlines()) == 1


def test_train_with_an_unknown_config_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # so no file named nosuch is found
    argv = ["train", "--data", str(tmp_path / "data"), "--config", "nosuch", "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "kgec train: error: config not found: nosuch\n"


def test_mine_without_inputs_fails(tmp_path, capsys):
    code = main(["mine", "--out", str(tmp_path / "rules.tsv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


def test_shipped_presets_resolve():
    from kgec.cli import _resolve_config
    from kgec.trainer import parse_config

    for name, d, lr in (("wn18", 200, 1.0), ("fb15k", 200, 0.5), ("db100k", 150, 0.1)):
        config = parse_config(_resolve_config(name))
        assert config.d == d
        assert config.lr == lr
        assert config.n_batches == 100
        assert config.max_iters == 1000


def test_preset_name_is_not_shadowed_by_a_directory(tmp_path, monkeypatch):
    # README runs `kgec train --data wn18/ --config wn18` beside the data directory.
    from kgec.cli import _resolve_config

    (tmp_path / "wn18").mkdir()
    monkeypatch.chdir(tmp_path)
    path = _resolve_config("wn18")
    assert path.is_file() and path.name == "wn18.cfg"


def test_public_api_resolves_and_covers_the_readme():
    missing = [name for name in kgec.__all__ if not hasattr(kgec, name)]
    assert missing == []
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"from kgec import \(([^)]*)\)", readme)
    documented = {name.strip() for name in block.split(",")} - {""}
    assert documented and documented <= set(kgec.__all__)


def test_package_exports_exactly_the_readme_block():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"from kgec import \(([^)]*)\)", readme)
    assert set(kgec.__all__) == {name.strip() for name in block.split(",")} - {""}
    exported = {name for name, value in vars(kgec).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(kgec.__all__)
    # The names the package no longer exports stay importable from their modules.
    for module, names in {
        "data": ["Dataset", "Entailment", "KnownIndex", "Triple", "Vocab", "load_triples"],
        "evaluation": ["EvalResult", "filtered_rank", "paired_ttest"],
        "mining": ["MinedRule"],
        "model": ["ModelParams", "init_params", "load_checkpoint", "save_checkpoint"],
        "objective": ["LossBreakdown"],
    }.items():
        for name in names:
            assert getattr(importlib.import_module(f"kgec.{module}"), name).__module__ == f"kgec.{module}"


def test_readme_commands_parse():
    # Every `kgec ...` line of the README's command block, with its `\`
    # continuations joined, must parse, so a renamed flag cannot leave it stale.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"## Command line\n.*?```bash\n(.*?)```", readme, re.S)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("kgec ")]
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).command == argv[1]
    assert {argv[1] for argv in commands} == {"mine", "train", "eval", "analyze", "significance"}


def test_bench_trace_targets_resolve():
    # bench/run.py traces "module:attr.path" targets and records a missing one
    # as an absent span, so a renamed function would drop its span silently.
    source = (Path(__file__).resolve().parents[1] / "bench" / "run.py").read_text(encoding="utf-8")
    [targets] = [
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["TARGETS"]
    ]
    names = [ast.literal_eval(entry.elts[0]) for entry in targets.elts]
    missing = []
    for name in names:
        module_name, _, path = name.partition(":")
        owner = importlib.import_module(module_name)
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(name)
    assert len(names) > 20
    assert set(missing) <= {"kgec.trainer:project_entities"}


def test_only_objective_imports_concurrent_futures():
    # The package has one thread pool, objective._POOL, with one set of rules
    # for part order and errors; a module that imports concurrent.futures
    # could start a second.
    importers = []
    for path in sorted(Path(kgec.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "concurrent" for name in names):
                importers.append(path.name)
    assert importers == ["objective.py"]


def test_only_data_reads_and_writes_json_and_only_data_and_model_open_files():
    # kgec.data owns how files are decoded and written: read_json reads JSON
    # as text through read_lines, write_json writes it atomically, and
    # load_checkpoint opens the one binary input. cli._grid_key's json.dumps
    # builds a key string, not a file.
    json_io, openers = set(), set()
    for path in sorted(Path(kgec.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                openers.add(path.name)
            elif ast.unparse(node.func) in ("json.dump", "json.load", "json.loads"):
                json_io.add(path.name)
    assert json_io == {"data.py"}
    assert openers == {"data.py", "model.py"}


def test_cli_imports_no_private_name_from_kgec():
    # A rule cli needs, such as how a config value is cast, lives public in
    # the module that owns it; a private import would split it over two.
    tree = ast.parse(Path(kgec.cli.__file__).read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "kgec")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats took about half of every subcommand's start-up, --version
    # included, for one t tail that scipy.special.stdtr gives bit for bit.
    code = "import sys, kgec.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    env = dict(os.environ, PYTHONPATH=str(Path(kgec.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_manifest_detects_tampered_inputs(tmp_path):
    source = tmp_path / "input.txt"
    source.write_text("original\n")
    config = TrainConfig(d=4, seed=7)
    inputs = {str(source): sha256_file(source)}
    params = init_params(2, 1, config.d, config.seed)
    kgec.cli._write_outputs(Dataset([], [], [], make_vocab(2, 1)), config, params, [], tmp_path, 32, inputs)
    loaded = load_manifest(tmp_path / "manifest.json")
    verify_inputs(loaded)
    source.write_text("tampered\n")
    with pytest.raises(ValueError, match="changed"):
        verify_inputs(loaded)


@pytest.mark.parametrize("sweep", [False, True], ids=["single-run", "sweep"])
def test_the_manifest_holds_the_input_hashes_from_before_training(data_dir, config_file, tmp_path, monkeypatch, sweep):
    # In the sweep the input is edited after the first point, and the second
    # point, trained after the edit, is the best one.
    train_file = data_dir / "train.txt"
    before = sha256_file(train_file)
    real_train = kgec.cli.train
    points = []

    def train_then_edit_the_input(*args, **kwargs):
        params, log = real_train(*args, **kwargs)
        points.append(args[2].d)
        train_file.write_text(train_file.read_text() + "e0\tr2\te1\n")
        return params, [dataclasses.replace(row, valid_mrr=len(points) / 10) for row in log]

    monkeypatch.setattr(kgec.cli, "train", train_then_edit_the_input)
    if sweep:
        argv, out = _grid_argv(data_dir, config_file, tmp_path, {"d": [2, 10]}), tmp_path / "grid"
    else:
        out = tmp_path / "run"
        argv = ["train", "--data", str(data_dir), "--config", str(config_file), "--out", str(out)]
    assert main(argv) == 0
    assert points == ([2, 10] if sweep else [8])
    manifest = load_manifest(out / "manifest.json")
    assert manifest["config"]["d"] == points[-1]
    assert manifest["inputs"][str(train_file)] == before
    with pytest.raises(ValueError, match="changed"):
        verify_inputs(manifest)


def test_a_sweep_refuses_a_state_without_inputs(data_dir, config_file, tmp_path, capsys, monkeypatch):
    argv = _grid_argv(data_dir, config_file, tmp_path, {"d": [2, 4]})
    out = tmp_path / "grid"
    assert main(argv) == 0
    state = json.loads((out / "grid_state.json").read_text())
    del state["inputs"]
    (out / "grid_state.json").write_text(json.dumps(state))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    monkeypatch.setattr(kgec.cli, "load_dataset", _raise_crash)  # refused before the data is read
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"kgec train: error: {out / 'grid_state.json'}: expected a JSON object mapping grid points "
        'to numbers and "inputs" to an object\n'
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_sweep_without_a_manifest_resumes_only_on_the_inputs_its_state_records(
    data_dir, config_file, tmp_path, capsys, monkeypatch
):
    argv = _grid_argv(data_dir, config_file, tmp_path, {"d": [2, 4]})
    out = tmp_path / "grid"
    assert main(argv) == 0
    state = json.loads((out / "grid_state.json").read_text())
    assert state["inputs"] == json.loads((out / "manifest.json").read_text())["inputs"]
    data_b = tmp_path / "data_b"
    shutil.copytree(data_dir, data_b)
    (data_b / "test.txt").write_text("e0\tr2\te1\n")
    argv_b = [str(data_b) if arg == str(data_dir) else arg for arg in argv]
    # A state without a manifest (a stop inside _write_outputs) is checked against its own record.
    (out / "manifest.json").unlink()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    with monkeypatch.context() as patch:  # refused before the data is read
        patch.setattr(kgec.cli, "load_dataset", _raise_crash)
        assert main(argv_b) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"kgec train: error: {out / 'grid_state.json'}: ") and f"({data_b / 'test.txt'} differs)" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # The same bytes from another directory resume: every point is done.
    shutil.copytree(data_dir, tmp_path / "data_c")
    assert main([str(tmp_path / "data_c") if arg == str(data_dir) else arg for arg in argv]) == 0
    assert "grid point" not in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # A state without its inputs is refused, with or without a manifest.
    del state["inputs"]
    (out / "grid_state.json").write_text(json.dumps(state))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv_b) == 1
    assert capsys.readouterr().err.startswith(f"kgec train: error: {out / 'grid_state.json'}: expected ")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _prefix_byte_order_mark(path):
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


def test_a_sweep_reads_a_grid_file_that_starts_with_a_byte_order_mark(data_dir, config_file, tmp_path):
    argv = _grid_argv(data_dir, config_file, tmp_path, {"d": [2, 4]})
    _prefix_byte_order_mark(tmp_path / "grid.json")
    assert main(argv) == 0
    assert len(_grid_points(tmp_path / "grid")) == 2


def test_a_sweep_resumes_from_a_state_that_starts_with_a_byte_order_mark(
    data_dir, config_file, tmp_path, capsys, monkeypatch
):
    argv = _grid_argv(data_dir, config_file, tmp_path, {"d": [2, 4]})
    out = tmp_path / "grid"
    assert main(argv) == 0
    _prefix_byte_order_mark(out / "grid_state.json")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    calls = _counting_train(monkeypatch)
    assert main(argv) == 0  # every point is done
    assert calls == [] and "grid point" not in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_eval_reads_a_sidecar_that_starts_with_a_byte_order_mark(data_dir, config_file, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--config", str(config_file), "--out", str(run)]) == 0
    outs = [tmp_path / "plain", tmp_path / "marked"]
    for out in outs:
        capsys.readouterr()
        argv = ["eval", "--data", str(data_dir), "--checkpoint", str(run / "checkpoint.kgec"), "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""  # the sidecar's vocab dumps are read, with no warning
        _prefix_byte_order_mark(run / "checkpoint.kgec.manifest.json")
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()


def test_a_single_run_refuses_an_out_that_holds_a_sweep(data_dir, config_file, tmp_path, capsys, monkeypatch):
    argv = _grid_argv(data_dir, config_file, tmp_path, {"d": [2, 4]})
    out = tmp_path / "grid"
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    single = ["train", "--data", str(data_dir), "--config", str(config_file), "--seed", "7", "--out", str(out)]
    with monkeypatch.context() as patch:  # refused before the config or the data is read
        patch.setattr(kgec.cli, "parse_config", _raise_crash)
        patch.setattr(kgec.cli, "load_dataset", _raise_crash)
        assert main(single) == 1
    assert capsys.readouterr().err == (
        f"kgec train: error: {out / 'grid_state.json'}: --out holds a grid sweep, which a single run would overwrite\n"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # The sweep still resumes, with every point done.
    assert main(argv) == 0
    assert "grid point" not in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _assert_refused(argv, victim, capsys):
    before = victim.read_bytes()
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"kgec {argv[0]}: error: {victim}: an output would overwrite this input\n"
    assert victim.read_bytes() == before


def test_train_refuses_to_overwrite_its_config(data_dir, config_file, tmp_path, capsys):
    run = tmp_path / "runX"
    assert main(["train", "--data", str(data_dir), "--config", str(config_file), "--out", str(run)]) == 0
    config = run / "config.cfg"
    config.write_text("# my notes\n" + config.read_text() + "l2_full = false\n")
    _assert_refused(["train", "--data", str(data_dir), "--config", str(config), "--out", str(run)], config, capsys)


def test_mine_refuses_to_overwrite_its_training_split(data_dir, tmp_path, capsys):
    train_file = data_dir / "train.txt"
    _assert_refused(["mine", "--train-file", str(train_file), "--out", str(train_file)], train_file, capsys)


def test_significance_refuses_to_overwrite_a_rank_dump(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("h,r,t,head_rank,tail_rank\n0,0,1,1,2\n1,0,2,3,1\n")
    b.write_text("h,r,t,head_rank,tail_rank\n0,0,1,2,2\n1,0,2,1,4\n")
    _assert_refused(["significance", "--ranks-a", str(a), "--ranks-b", str(b), "--out", str(a)], a, capsys)


@pytest.mark.parametrize("name, flags", [("metrics.csv", []), ("ranks.csv", ["--dump-ranks"])],
                         ids=["metrics", "ranks"])
def test_eval_refuses_to_overwrite_its_checkpoint(data_dir, tmp_path, capsys, name, flags):
    out = tmp_path / "out"
    out.mkdir()
    checkpoint = out / name
    save_checkpoint(init_params(12, 3, 4, seed=0), checkpoint)
    before = sorted(out.iterdir())
    argv = ["eval", "--data", str(data_dir), "--checkpoint", str(checkpoint), "--out", str(out), *flags]
    _assert_refused(argv, checkpoint, capsys)
    assert sorted(out.iterdir()) == before


@pytest.mark.parametrize(
    "flag, name, text",
    [("--types", "purity_real.csv", "e0\tT0\ne1\tT1\n"), ("--ents", "relation_pairs.csv", "r0\tr1\t0.9\n")],
    ids=["types-at-a-purity-output", "rules-at-the-pairs-output"],
)
def test_analyze_refuses_to_overwrite_an_input(data_dir, tmp_path, capsys, flag, name, text):
    checkpoint = tmp_path / "model.kgec"
    save_checkpoint(init_params(12, 3, 4, seed=0), checkpoint)
    out = tmp_path / "analysis"
    out.mkdir()
    victim = out / name
    victim.write_text(text)
    argv = ["analyze", "--data", str(data_dir), "--checkpoint", str(checkpoint), "--out", str(out), flag, str(victim)]
    _assert_refused(argv, victim, capsys)
    assert list(out.iterdir()) == [victim]


@pytest.mark.parametrize("command", ["train", "analyze"])
def test_a_repeated_rule_line_is_refused_before_any_output(tmp_path, capsys, command):
    # The planted rules with their first line given again, which would count that rule twice.
    data = Path(__file__).resolve().parent / "golden" / "data"
    lines = (data / "rules.tsv").read_text().splitlines(keepends=True)
    rules = tmp_path / "rules.tsv"
    rules.write_text("".join(lines + lines[:1]))
    out = tmp_path / "out"
    argv = [command, "--data", str(data), "--ents", str(rules), "--out", str(out)]
    if command == "train":  # a small run, should the rules be accepted
        argv += ["--config", str(data.parent / "golden.cfg")]
    else:
        dataset = load_dataset(data)
        checkpoint = tmp_path / "model.kgec"
        save_checkpoint(init_params(dataset.n_entities, dataset.n_relations, 4, seed=0), checkpoint)
        argv += ["--checkpoint", str(checkpoint)]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"kgec {command}: error: {rules}:{len(lines) + 1}: repeated rule: line 1 gives the same premise and conclusion"
    )
    assert not out.exists()


def test_mine_refuses_a_forward_premise_ending_in_the_inverse_suffix(tmp_path, capsys):
    # x^-1 -> y holds; written as a forward premise it would read back as x inverted.
    pairs = [(f"e{i}", f"e{i + 1}") for i in range(4)]
    lines = [f"{h}\t{r}\t{t}" for h, t in pairs for r in ("x^-1", "y")] + ["e0\tx\te3"]
    train_file = tmp_path / "t.tsv"
    train_file.write_text("\n".join(lines) + "\n")
    rules = tmp_path / "rules.tsv"
    assert main(["mine", "--train-file", str(train_file), "--out", str(rules), "--min-support", "2"]) == 1
    assert capsys.readouterr().err == (
        "kgec mine: error: relation 'x^-1': a forward premise cannot end in '^-1'\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.tsv"]


def test_subcommands_do_not_modify_inputs(data_dir, config_file, tmp_path):
    before = {
        p.name: sha256_file(p) for p in data_dir.iterdir()
    }
    main(["mine", "--data", str(data_dir), "--out", str(tmp_path / "r.tsv"), "--min-support", "2"])
    main(["train", "--data", str(data_dir), "--config", str(config_file), "--out", str(tmp_path / "run")])
    after = {p.name: sha256_file(p) for p in data_dir.iterdir()}
    assert before == after
