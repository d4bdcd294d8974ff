"""How kgec reads and writes files: every output is replaced atomically
through :func:`atomic_write`, CSV outputs go through :func:`write_csv`, text
inputs through :func:`read_lines` and JSON inputs through :func:`read_json`,
and :func:`sha256_file` hashes a file."""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import os
from contextlib import contextmanager
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
    One byte-order mark (U+FEFF) at the very start of the file is dropped.
    The file is read and decoded in one pass. A file that is not UTF-8 is
    decoded again line by line, so its lines up to the first bad one are
    yielded as before and that line raises ValueError naming the file and
    line, with the error of that line alone.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        lines = data.decode("utf-8").replace("\r\n", "\n").split("\n")
    except UnicodeDecodeError:
        for lineno, raw in enumerate(io.BytesIO(data), start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield lineno, line.removesuffix("\n").removesuffix("\r")
        return
    if lines[-1]:  # a last line with no LF loses one CR too
        lines[-1] = lines[-1].removesuffix("\r")
    else:  # the empty text after the final LF is no line
        lines.pop()
    yield from enumerate(lines, start=1)


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
