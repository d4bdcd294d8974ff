"""Rewrite ``tests/golden/digests.json`` from this tree's code and print the
steps and files whose record changed.

    python tests/golden/update.py

Run it when a change alters a CLI output on purpose, and name the printed
entries and the reason in CHANGES.md. ``tests/test_golden.py`` holds the
steps and checks the record.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_golden import DIGESTS, changed_entries, run_steps  # noqa: E402


def main() -> int:
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = run_steps(Path(tmp) / "golden")
    DIGESTS.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    if old.get("versions", new["versions"]) != new["versions"]:
        print(f"versions: {old['versions']} -> {new['versions']}")
    for entry in changed_entries(old, new):
        print(entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
