"""End-to-end tests of the command-line interface, run manifests, and the
package surface the README documents."""

import ast
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import kgec
from kgec.cli import main
from kgec.data import Triple, load_dataset, write_triples, write_tsv
from kgec.manifest import RunManifest, sha256_file, write_csv
from kgec.model import ModelParams, init_params, load_checkpoint, save_checkpoint
from kgec.trainer import EpochStats, write_training_log

from conftest import make_vocab


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
    manifest = RunManifest.load(run_dir / "manifest.json")
    manifest.verify_inputs()
    assert manifest.command == "train"
    assert str(ckpt) in manifest.outputs

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


@pytest.mark.parametrize(
    "rules, expected",
    [(GOLDEN_RULES, GOLDEN_PAIRS), ("", GOLDEN_HEADER)],
    ids=["every-class", "no-rules"],
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
    manifest = RunManifest.load(out / "manifest.json")
    assert manifest.config["mu"] == 0
    assert manifest.config["project"] is False
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
    assert len(state) == 2
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
    assert RunManifest.load(out / "manifest.json").config["project"] is False
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
    err = capsys.readouterr().err
    assert f"{data_dir / 'valid.txt'}: --grid needs validation triples" in err
    assert len(err.strip().splitlines()) == 1


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
    from kgec.trainer import parse_config

    grid_file = tmp_path / "grid.json"
    grid_file.write_text(json.dumps({"d": [4, 8], "lr": [0.5]}))
    out = tmp_path / "grid"
    calls = _counting_train(monkeypatch)
    argv = ["train", "--data", str(data_dir), "--config", str(config_file),
            "--grid", "--grid-file", str(grid_file), "--out", str(out)]
    assert main(argv) == 0
    assert len(calls) == 2
    # The written outputs are those of the best point, as a single run gives them.
    state = json.loads((out / "grid_state.json").read_text())
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
        if "grid_state" in fh.name and len(obj) == 2:
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
    assert len(json.loads((out / "grid_state.json").read_text())) == 1
    assert sorted(p.name for p in out.iterdir() if "grid_state" in p.name) == ["grid_state.json"]
    calls = _counting_train(monkeypatch)
    assert main(argv) == 0
    assert len(calls) == 1
    assert len(json.loads((out / "grid_state.json").read_text())) == 2


class _Crash(Exception):
    pass


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
    import kgec.model

    monkeypatch.setattr(kgec.model.json, "dump", _partial_json_dump)
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
    import kgec.manifest

    monkeypatch.setattr(kgec.manifest.json, "dump", _partial_json_dump)
    RunManifest("train", "0.1.0", 1, {"d": 3}).write(path)


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
    RunManifest("train", "0.1.0", 0, {"d": 2}).write(tmp_path / "manifest.json")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    path = tmp_path / ("ckpt.kgec" if target == "ckpt.kgec.manifest.json" else target)
    with pytest.raises((_Crash, ValueError)):
        crash(init_params(4, 2, 3, seed=1), path, monkeypatch)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert after[target] == before[target]
    assert not [name for name in after if name.endswith(".tmp")]


def test_workers_env_fallback(monkeypatch):
    from kgec.cli import _workers

    class Args:
        workers = None

    monkeypatch.setenv("KGEC_WORKERS", "3")
    assert _workers(Args()) == 3
    monkeypatch.delenv("KGEC_WORKERS")
    assert _workers(Args()) == 1
    monkeypatch.setenv("KGEC_WORKERS", "x")
    with pytest.raises(ValueError, match="KGEC_WORKERS must be an integer, got 'x'"):
        _workers(Args())
    for count in ("0", "-2"):
        monkeypatch.setenv("KGEC_WORKERS", count)
        with pytest.raises(ValueError, match=f"KGEC_WORKERS must be at least 1, got {count}"):
            _workers(Args())
    Args.workers = 7
    assert _workers(Args()) == 7
    for count in (0, -2):
        Args.workers = count
        with pytest.raises(ValueError, match=f"--workers must be at least 1, got {count}"):
            _workers(Args())


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--per-type", "-1", "--per-type must be at least 1, got -1"),
        ("--per-type", "0", "--per-type must be at least 1, got 0"),
        ("--ks", "abc", "--ks must be comma-separated numbers, got 'abc'"),
        ("--ks", "1,,5", "--ks must be comma-separated numbers, got '1,,5'"),
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


@pytest.mark.parametrize("command", ["eval", "analyze"])
@pytest.mark.parametrize("extra", [5, -5], ids=["larger", "smaller"])
def test_checkpoint_of_another_shape_fails_naming_it(data_dir, tmp_path, capsys, command, extra):
    n_entities = len(load_dataset(data_dir).vocab.entities)
    path = tmp_path / "other.kgec"
    save_checkpoint(init_params(n_entities + extra, 3, 4, seed=0), path)
    argv = [command, "--data", str(data_dir), "--checkpoint", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{path}: checkpoint shape ({n_entities + extra} entities, 3 relations)" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "name, content, command, message",
    [
        ("bad.cfg", "seed = 0\nd = abc\n", "train --data {data} --config {file} --out {out}",
         ":2: bad int value for d: 'abc'"),
        ("bad.cfg", "d = 0\n", "train --data {data} --config {file} --out {out}",
         ": d must be at least 1"),
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
    ids=["config-cast", "config-value", "grid-key", "grid-cast", "grid-empty", "grid-string",
         "grid-number", "grid-shape", "rank-dump",
         "rank-dump-rank", "tsv-utf8", "config-utf8", "rank-dump-utf8", "grid-state-shape"],
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


def test_manifest_detects_tampered_inputs(tmp_path):
    source = tmp_path / "input.txt"
    source.write_text("original\n")
    manifest = RunManifest.create("train", "0.1.0", 7, {"d": 4}, [source], [])
    path = tmp_path / "manifest.json"
    manifest.write(path)
    loaded = RunManifest.load(path)
    loaded.verify_inputs()
    source.write_text("tampered\n")
    with pytest.raises(ValueError, match="changed"):
        loaded.verify_inputs()


def test_subcommands_do_not_modify_inputs(data_dir, config_file, tmp_path):
    before = {
        p.name: sha256_file(p) for p in data_dir.iterdir()
    }
    main(["mine", "--data", str(data_dir), "--out", str(tmp_path / "r.tsv"), "--min-support", "2"])
    main(["train", "--data", str(data_dir), "--config", str(config_file), "--out", str(tmp_path / "run")])
    after = {p.name: sha256_file(p) for p in data_dir.iterdir()}
    assert before == after
