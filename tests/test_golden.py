"""Golden digests: every CLI output on a fixed fixture is byte-identical to the
one recorded in ``tests/golden/digests.json``.

``tests/golden/data`` is ``bench/gen.py --workload planted --seed 3`` without
its checkpoint, with the first 45 lines of its ``test.txt`` moved to
``valid.txt``, since a sweep needs validation triples. The steps below run
``cli.main`` in one process, with relative paths inside a copy of
``tests/golden``: mine; train with the rules (stored at 32 bits) and a plain
run (at 64); a two-point ``--grid-file`` sweep, with the rules and two more
whose premise is inverted, and its resume; ``eval --dump-ranks`` of both
runs; ``analyze --types --ents``; ``significance``. Each step's exit code,
stdout and stderr, and the SHA-256 of every file left in the copy, inputs
included, are compared with the record. Only ``manifest.json``'s ``created``
time is masked.

A change that alters an output on purpose regenerates the record:

    python tests/golden/update.py

which rewrites ``digests.json`` and prints the entries that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy

from kgec import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"

_TRAIN = ["train", "--data", "data", "--config", "golden.cfg"]
_SWEEP = [*_TRAIN, "--ents", "inverted_rules.tsv", "--grid", "--grid-file", "grid.json", "--out", "runs/grid"]
STEPS = [
    ["mine", "--data", "data", "--out", "mined/rules.tsv", "--min-conf", "0.5", "--min-support", "5"],
    [*_TRAIN, "--ents", "data/rules.tsv", "--out", "runs/aer"],
    [*_TRAIN, "--mu", "0", "--no-projection", "--precision", "64", "--out", "runs/plain"],
    _SWEEP,
    _SWEEP,  # the resume: every point is in grid_state.json
    ["eval", "--data", "data", "--checkpoint", "runs/aer/checkpoint.kgec", "--out", "evals/aer", "--dump-ranks"],
    ["eval", "--data", "data", "--checkpoint", "runs/plain/checkpoint.kgec", "--out", "evals/plain", "--dump-ranks"],
    ["analyze", "--data", "data", "--checkpoint", "runs/aer/checkpoint.kgec", "--types", "data/types.tsv",
     "--ents", "mined/rules.tsv", "--thresh", "0.5", "--out", "analysis"],
    ["significance", "--ranks-a", "evals/aer/ranks.csv", "--ranks-b", "evals/plain/ranks.csv", "--out", "significance.csv"],
]


def versions() -> dict[str, str]:
    """The libraries whose arithmetic the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__, "openblas": f"{blas['name']} {blas['version']}"}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        data = re.sub(rb'"created": "[^"]*"', b'"created": null', data)
    return hashlib.sha256(data).hexdigest()


def run_steps(workdir: Path) -> dict:
    """Copy the fixture into ``workdir``, run every step there, and return the
    record ``digests.json`` holds."""
    shutil.copytree(GOLDEN, workdir, ignore=shutil.ignore_patterns("digests.json", "*.py", "__pycache__"))
    steps = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in STEPS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            steps.append({"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    finally:
        os.chdir(cwd)
    files = sorted(p for p in workdir.rglob("*") if p.is_file())
    return {
        "versions": versions(),
        "steps": steps,
        "files": {p.relative_to(workdir).as_posix(): _digest(p) for p in files},
    }


def changed_entries(old: dict, new: dict) -> list[str]:
    """The steps (by number) and files whose records differ."""
    old_steps, new_steps = old.get("steps", []), new["steps"]
    changed = [f"step {i}: {' '.join(new_steps[i]['argv'])}" for i in range(len(new_steps))
               if i >= len(old_steps) or old_steps[i] != new_steps[i]]
    old_files, new_files = old.get("files", {}), new["files"]
    return changed + sorted(name for name in old_files.keys() | new_files.keys()
                            if old_files.get(name) != new_files.get(name))


def test_every_cli_output_matches_its_golden_digest(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for name, version in versions().items():
        if version != expected["versions"][name]:
            pytest.fail(f"{name} is {version}, but {DIGESTS.name} was made with "
                        f"{expected['versions'][name]}, and outputs may differ by that alone; "
                        "re-record with python tests/golden/update.py")
    got = run_steps(tmp_path / "golden")
    assert changed_entries(expected, got) == []
