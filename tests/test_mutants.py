"""The mutation table (tests/mutants.py) stays aimed at the code: each
mutant's old text must occur exactly once in its file, or a refactor
that moved the code would leave a mutant that edits nothing."""
import os

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_edits_one_place(mutant):
    with open(os.path.join(ROOT, mutant.path)) as fh:
        assert fh.read().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.selection


def test_mutants_have_distinct_names():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 8
