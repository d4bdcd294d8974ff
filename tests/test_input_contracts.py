"""Input contracts as properties: every subcommand refuses a corrupted input
cleanly.

Each case runs one subcommand through ``cli.main`` on a copy of the golden
fixture (``tests/golden``, with a checkpoint, rank dumps and a finished sweep
made from it once), after one corruption of one input. hypothesis draws the
line, the field and the value of the corruption. The catalogue:

- a wrong field count (or a config line without ``=``);
- a byte that is not UTF-8;
- an unknown name where the vocabulary is fixed (relations in a rules file,
  every name of a split read with a run's vocab dumps, config and grid keys);
- NaN, +-inf, 0 or a negative where the value must be positive, or
  non-negative;
- a repeated config key or JSON key, or a repeated name in a vocab dump;
- a repeated rule line;
- a truncated checkpoint, sidecar, grid file or sweep state, a vocab dump
  that lost its last lines, or a vocab or rank dump cut inside a line;
- an output path equal to an input.

Every case asserts that the command exits 1 with one stderr line, which names
the corrupted file, with the line where the input is line-based; and that no
file or directory of the copy was made, changed or removed, so every input
keeps its bytes and ``--out`` is absent or as it was. A types file is not
corrupted with an unknown name: the README lets it label entities the data
lacks, which are skipped with a warning.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgec import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

MINE = ("mine", "--data", "data", "--out", "out/rules.tsv", "--min-conf", "0.5", "--min-support", "5")
TRAIN = ("train", "--data", "data", "--config", "golden.cfg", "--ents", "data/rules.tsv", "--out", "out")
SWEEP = ("train", "--data", "data", "--config", "golden.cfg", "--grid", "--grid-file", "grid.json", "--out", "sweep")
EVAL = ("eval", "--data", "data", "--checkpoint", "run/checkpoint.kgec", "--out", "out", "--dump-ranks")
ANALYZE = ("analyze", "--data", "data", "--checkpoint", "run/checkpoint.kgec", "--types", "data/types.tsv",
           "--ents", "data/rules.tsv", "--thresh", "0.5", "--out", "out")
SIGNIFICANCE = ("significance", "--ranks-a", "ranks_a.csv", "--ranks-b", "ranks_b.csv", "--out", "out/p.csv")

# Values a config field, a grid value, a rule confidence or a rank must not take.
_NOT_POSITIVE = ("nan", "inf", "-inf", "0", "-1")
BAD_VALUES = {
    "d": _NOT_POSITIVE, "neg_ratio": _NOT_POSITIVE, "lr": _NOT_POSITIVE, "n_batches": _NOT_POSITIVE,
    "max_iters": _NOT_POSITIVE, "eval_every": _NOT_POSITIVE,
    "eta": ("nan", "inf", "-inf", "-1"), "mu": ("nan", "inf", "-inf", "-1"),
    "grad_norm_cap": ("nan", "-inf", "0", "-1"),  # inf means no clipping
    "seed": ("nan", "inf", "-1"),
}
_JSON_NUMBERS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def run(argv) -> tuple[int, str]:
    """``cli.main(argv)``'s exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


@contextlib.contextmanager
def working_directory(path: Path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    """The golden inputs; ``run``, a trained run; ``ranks_a.csv`` and
    ``ranks_b.csv``, the rank dumps of that run and of a plain one; and
    ``sweep``, a finished sweep, so that running it again trains nothing."""
    root = tmp_path_factory.mktemp("contracts") / "base"
    shutil.copytree(GOLDEN, root, ignore=shutil.ignore_patterns("digests.json", "*.py", "__pycache__"))
    with working_directory(root):
        for argv in (TRAIN[:-1] + ("run",), TRAIN[:5] + ("--mu", "0", "--out", "plain"), SWEEP):
            assert run(argv) == (0, ""), argv
        for name, run_dir in (("ranks_a.csv", "run"), ("ranks_b.csv", "plain")):
            argv = ("eval", "--data", "data", "--checkpoint", f"{run_dir}/checkpoint.kgec", "--out", "evals",
                    "--dump-ranks")
            assert run(argv) == (0, ""), argv
            shutil.move("evals/ranks.csv", name)
        shutil.rmtree("evals")
        shutil.rmtree("plain")
    return root


def snapshot(root: Path) -> dict:
    """Every file's bytes and every directory, by path relative to ``root``."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


# Corruptions: each takes hypothesis's draw and the input's path, rewrites the
# input, and returns the line its error must name, or None where the input is
# not line-based.

def rewrite(path: Path, data: bytes) -> None:
    """Replace the file: the work copy's files are links to the base's."""
    path.unlink()
    path.write_bytes(data)


def _draw_line(draw, lines: list[bytes], first: int = 1) -> int:
    """A drawn index of a non-blank, non-comment line, from line ``first`` on."""
    return draw(st.sampled_from([i for i in range(first - 1, len(lines))
                                 if lines[i].strip() and not lines[i].startswith(b"#")]))


def _rewrite_line(edit: Callable, first: int = 1, sep: bytes = b"\t") -> Callable:
    """A corruption that applies ``edit(draw, fields)`` to the fields of one
    drawn line, split at ``sep``, and names that line. A CRLF line keeps its CR
    at the end."""
    def corrupt(draw, path: Path) -> int:
        lines = path.read_bytes().split(b"\n")
        i = _draw_line(draw, lines, first)
        cr = b"\r" * lines[i].endswith(b"\r")
        lines[i] = sep.join(edit(draw, lines[i].removesuffix(cr).split(sep))) + cr
        rewrite(path, b"\n".join(lines))
        return i + 1
    return corrupt


def wrong_field_count(first: int = 1, sep: bytes = b"\t") -> Callable:
    return _rewrite_line(lambda draw, fields: fields[:-1] if draw(st.booleans()) else fields + [b"x"], first, sep)


def not_utf8(first: int = 1) -> Callable:
    def edit(draw, fields):
        line = b"\t".join(fields)
        at = draw(st.integers(0, len(line)))
        return [line[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + line[at:]]
    return _rewrite_line(edit, first)


def unknown_name(columns: tuple[int, ...]) -> Callable:
    def edit(draw, fields):
        fields[draw(st.sampled_from(columns))] = b"nobody"
        return fields
    return _rewrite_line(edit)


def bad_number(columns: tuple[int, ...], first: int = 1, sep: bytes = b"\t") -> Callable:
    def edit(draw, fields):
        fields[draw(st.sampled_from(columns))] = draw(st.sampled_from(_NOT_POSITIVE)).encode()
        return fields
    return _rewrite_line(edit, first, sep)


def repeated_line(draw, path: Path) -> int:
    """A drawn line given again at the end: a repeated rule or config key."""
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    line = lines[_draw_line(draw, lines)]
    rewrite(path, raw + line + b"\n")
    return raw.count(b"\n") + 1


def repeated_rule_other_confidence(draw, path: Path) -> int:
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    premise, conclusion, _ = lines[_draw_line(draw, lines)].split(b"\t")
    rewrite(path, raw + b"\t".join([premise, conclusion, draw(st.sampled_from([b"0.5", b"1"]))]) + b"\n")
    return raw.count(b"\n") + 1


def repeated_name(draw, path: Path) -> int:
    """A vocab dump whose line j gives the name of an earlier line."""
    lines = path.read_bytes().split(b"\n")
    j = draw(st.integers(1, len(lines) - 2))  # the last item is the empty text after the final LF
    lines[j] = lines[draw(st.integers(0, j - 1))]
    rewrite(path, b"\n".join(lines))
    return j + 1


def config_value(draw, path: Path) -> int:
    lines = path.read_bytes().split(b"\n")
    keyed = [i for i, line in enumerate(lines) if line.split(b"=")[0].strip().decode() in BAD_VALUES]
    i = draw(st.sampled_from(keyed))
    key = lines[i].split(b"=")[0].strip().decode()
    lines[i] = f"{key} = {draw(st.sampled_from(BAD_VALUES[key]))}".encode()
    rewrite(path, b"\n".join(lines))
    return i + 1


config_without_equals = _rewrite_line(lambda draw, fields: [fields[0].replace(b"=", b"")])
config_unknown_key = _rewrite_line(lambda draw, fields: [b"learning_rate = 0.1"])


def truncated(draw, path: Path) -> None:
    """The file cut short; a JSON file is cut before its last ``}``."""
    raw = path.read_bytes()
    end = raw.rindex(b"}") if path.suffix == ".json" else len(raw) - 1
    rewrite(path, raw[: draw(st.integers(0, end))])


def lines_lost(draw, path: Path) -> None:
    """The file cut after a drawn number of its lines, fewer than all."""
    lines = path.read_bytes().split(b"\n")[:-1]
    rewrite(path, b"".join(line + b"\n" for line in lines[: draw(st.integers(0, len(lines) - 1))]))


def cut_inside_a_line(draw, path: Path) -> int:
    """The file cut at a drawn byte that ends no line, maybe inside a CRLF,
    naming the line it now ends in: a cut name or rank could read as whole."""
    raw = path.read_bytes()
    end = draw(st.sampled_from([at for at in range(1, len(raw)) if raw[at - 1] != ord("\n")]))
    rewrite(path, raw[:end])
    return raw.count(b"\n", 0, end) + 1


def json_not_utf8(draw, path: Path) -> int:
    raw = path.read_bytes()
    at = draw(st.integers(0, len(raw)))
    rewrite(path, raw[:at] + b"\xff" + raw[at:])
    return raw.count(b"\n", 0, at) + 1


def json_repeated_key(draw, path: Path) -> None:
    """A key of the top-level object given again, first, with another value."""
    raw = path.read_bytes()
    key = draw(st.sampled_from(sorted(json.loads(raw))))
    start = raw.index(b"{") + 1
    rewrite(path, raw[:start] + json.dumps(key).encode() + b": [], " + raw[start:])


def grid_value(draw, path: Path) -> None:
    key = draw(st.sampled_from(sorted(BAD_VALUES)))
    value = draw(st.sampled_from(BAD_VALUES[key]))
    rewrite(path, f'{{"{key}": [1, {_JSON_NUMBERS.get(value, value)}]}}'.encode())


def grid_unknown_key(draw, path: Path) -> None:
    rewrite(path, b'{"learning_rate": [0.1]}')


def copy_of(source: str) -> Callable:
    """An output path that already holds a copy of ``source``, passed as an input."""
    def corrupt(draw, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, path)
    return corrupt


def as_it_is(draw, path: Path) -> None:
    """An input that is also an output, left as it is."""


class Case(NamedTuple):
    argv: tuple[str, ...]
    path: str  # the corrupted input, relative to the fixture; its error must name it
    corrupt: Callable  # (draw, path) -> the line to name, or None


SPLITS = ("data/train.txt", "data/valid.txt", "data/test.txt")
RUN_FILES = ("run/entities.txt", "run/relations.txt")
CASES = {
    **{f"mine-{kind}": Case(MINE, "data/train.txt", corrupt)
       for kind, corrupt in (("fields", wrong_field_count()), ("utf8", not_utf8()))},
    "mine-out-is-input": Case(MINE[:4] + ("data/train.txt",) + MINE[5:], "data/train.txt", as_it_is),
    **{f"train-{split}-{kind}": Case(TRAIN, split, corrupt) for split in SPLITS
       for kind, corrupt in (("fields", wrong_field_count()), ("utf8", not_utf8()))},
    "train-rules-fields": Case(TRAIN, "data/rules.tsv", wrong_field_count()),
    "train-rules-utf8": Case(TRAIN, "data/rules.tsv", not_utf8()),
    "train-rules-unknown": Case(TRAIN, "data/rules.tsv", unknown_name((0, 1))),
    "train-rules-confidence": Case(TRAIN, "data/rules.tsv", bad_number((2,))),
    "train-rules-repeated": Case(TRAIN, "data/rules.tsv", repeated_line),
    "train-rules-repeated-other-confidence": Case(TRAIN, "data/rules.tsv", repeated_rule_other_confidence),
    "train-config-no-equals": Case(TRAIN, "golden.cfg", config_without_equals),
    "train-config-utf8": Case(TRAIN, "golden.cfg", not_utf8()),
    "train-config-unknown-key": Case(TRAIN, "golden.cfg", config_unknown_key),
    "train-config-value": Case(TRAIN, "golden.cfg", config_value),
    "train-config-repeated-key": Case(TRAIN, "golden.cfg", repeated_line),
    "train-out-is-input": Case(TRAIN[:3] + ("--config", "run/config.cfg", "--out", "run"), "run/config.cfg",
                               as_it_is),
    "sweep-grid-utf8": Case(SWEEP, "grid.json", json_not_utf8),
    "sweep-grid-truncated": Case(SWEEP, "grid.json", truncated),
    "sweep-grid-repeated-key": Case(SWEEP, "grid.json", json_repeated_key),
    "sweep-grid-value": Case(SWEEP, "grid.json", grid_value),
    "sweep-grid-unknown-key": Case(SWEEP, "grid.json", grid_unknown_key),
    "sweep-state-truncated": Case(SWEEP, "sweep/grid_state.json", truncated),
    "sweep-state-repeated-key": Case(SWEEP, "sweep/grid_state.json", json_repeated_key),
    **{f"{name}-{split}-{kind}": Case(argv, split, corrupt)
       for name, argv in (("eval", EVAL), ("analyze", ANALYZE)) for split in SPLITS
       for kind, corrupt in (("fields", wrong_field_count()), ("utf8", not_utf8()),
                             ("unknown", unknown_name((0, 1, 2))))},
    **{f"{name}-{dump}-{kind}": Case(argv, dump, corrupt)
       for name, argv in (("eval", EVAL), ("analyze", ANALYZE)) for dump in RUN_FILES
       for kind, corrupt in (("utf8", not_utf8()), ("repeated", repeated_name), ("truncated", lines_lost),
                             ("cut", cut_inside_a_line))},
    **{f"{name}-{file}-{kind}": Case(argv, file, corrupt)
       for name, argv in (("eval", EVAL), ("analyze", ANALYZE))
       for file, kinds in (("run/checkpoint.kgec", (("truncated", truncated),)),
                           ("run/checkpoint.kgec.manifest.json",
                            (("truncated", truncated), ("utf8", json_not_utf8), ("repeated-key", json_repeated_key))))
       for kind, corrupt in kinds},
    "eval-out-is-input": Case(EVAL[:3] + ("--checkpoint", "out/metrics.csv") + EVAL[5:], "out/metrics.csv",
                              copy_of("run/checkpoint.kgec")),
    "analyze-types-fields": Case(ANALYZE, "data/types.tsv", wrong_field_count()),
    "analyze-types-utf8": Case(ANALYZE, "data/types.tsv", not_utf8()),
    "analyze-rules-fields": Case(ANALYZE, "data/rules.tsv", wrong_field_count()),
    "analyze-rules-unknown": Case(ANALYZE, "data/rules.tsv", unknown_name((0, 1))),
    "analyze-rules-confidence": Case(ANALYZE, "data/rules.tsv", bad_number((2,))),
    "analyze-rules-repeated": Case(ANALYZE, "data/rules.tsv", repeated_line),
    "analyze-out-is-input": Case(ANALYZE[:5] + ("--types", "out/purity_real.csv") + ANALYZE[7:],
                                 "out/purity_real.csv", copy_of("data/types.tsv")),
    **{f"significance-{ranks}-{kind}": Case(SIGNIFICANCE, ranks, corrupt) for ranks in ("ranks_a.csv", "ranks_b.csv")
       for kind, corrupt in (("fields", wrong_field_count(first=2, sep=b",")), ("utf8", not_utf8(first=2)),
                             ("rank", bad_number((3, 4), first=2, sep=b",")), ("cut", cut_inside_a_line))},
    "significance-out-is-input": Case(SIGNIFICANCE[:-1] + ("ranks_a.csv",), "ranks_a.csv", as_it_is),
}


def test_the_fixture_passes_every_command(base, tmp_path):
    # Each case's failure is then its corruption's doing.
    work = tmp_path / "work"
    shutil.copytree(base, work)
    with working_directory(work):
        for argv in (MINE, TRAIN, SWEEP, EVAL, ANALYZE, SIGNIFICANCE):
            assert run(argv) == (0, ""), argv
            shutil.rmtree("out", ignore_errors=True)  # the sweep writes to its own directory


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
@settings(derandomize=True, max_examples=4, deadline=None)
@given(data=st.data())
def test_a_corrupted_input_fails_naming_it_and_writes_nothing(base, case, data):
    with tempfile.TemporaryDirectory(dir=base.parent) as tmp:
        work = Path(tmp) / "work"
        shutil.copytree(base, work, copy_function=os.link)
        with working_directory(work):
            line = case.corrupt(data.draw, Path(case.path))
            before = snapshot(work)
            code, err = run(case.argv)
            after = snapshot(work)
    command = case.argv[0]
    named = f"{case.path}:" if line is None else f"{case.path}:{line}:"
    assert code == 1, err
    assert len(err.splitlines()) == 1 and err.startswith(f"kgec {command}: error: {named}"), err
    assert after == before
