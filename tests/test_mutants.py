"""The soundness mutants of ``mutants.py`` stay applicable: each one's text
occurs exactly once in its file, so a refactor that moves a certifying line
must move its mutant too.  No mutant is applied here and no test is run."""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_once_in_its_file(mutant):
    text = (ROOT / "src" / "semilab" / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert all((ROOT / path).is_file() for path in mutant.tests)
