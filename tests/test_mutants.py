"""The mutant list of ``tests/mutate.py`` still fits the code it mutates.

These checks run no mutant and start no process; they catch an edit under a
mutant's text at tier-1 instead of at the next run of the script.
"""

import pytest

from mutate import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once_and_names_existing_tests(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    for test in mutant.tests:
        assert (ROOT / test.split("::")[0]).exists(), test
