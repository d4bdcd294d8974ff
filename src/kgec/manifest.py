"""How kgec reads and writes files: every output is replaced atomically
through :func:`atomic_write`, CSV outputs go through :func:`write_csv`, text
inputs through :func:`read_lines` and JSON inputs through :func:`read_json`.
Also run manifests: a JSON snapshot of everything needed to reproduce a run,
written before the run starts."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kwargs):
    """Open ``<path>.tmp`` for writing, then fsync it and move it onto ``path``.

    If the body raises, the temp file is deleted and ``path`` keeps its old
    content, so a crash never leaves a truncated output behind.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Replace ``path`` atomically by a CSV file whose lines end in CRLF."""
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` for each line of a UTF-8 text file.

    Only the LF or CRLF terminator is removed; a lone CR stays in the line.
    Each line is decoded on its own, so a byte that is not UTF-8 raises
    ValueError naming the file and line.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield lineno, line.removesuffix("\n").removesuffix("\r")


def read_json(path: str | Path):
    """Parse a JSON file; a malformed one raises ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Config snapshot, input hashes, and planned outputs of one run."""

    command: str
    version: str
    seed: int
    config: dict
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    created: str = ""

    @classmethod
    def create(
        cls,
        command: str,
        version: str,
        seed: int,
        config: dict,
        input_paths: list[str | Path],
        output_paths: list[str | Path],
    ) -> "RunManifest":
        return cls(
            command=command,
            version=version,
            seed=seed,
            config=config,
            inputs={str(p): sha256_file(p) for p in input_paths},
            outputs=[str(p) for p in output_paths],
            created=datetime.now(timezone.utc).isoformat(),
        )

    def write(self, path: str | Path) -> None:
        with atomic_write(path, encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        return cls(**read_json(path))

    def verify_inputs(self) -> None:
        """Recompute input hashes; raise ValueError on any mismatch."""
        for path, recorded in self.inputs.items():
            actual = sha256_file(path)
            if actual != recorded:
                raise ValueError(
                    f"input {path} changed since the manifest was written "
                    f"(recorded {recorded[:12]}, found {actual[:12]})"
                )
