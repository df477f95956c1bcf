"""Every mutant in the catalog (tests/mutants.py) still finds its anchor
exactly once, so a refactor that moves the code must carry its mutants
along, and every library module but __init__.py has a mutant, so the
catalog's reach cannot shrink unnoticed. Running the mutants themselves
is `python tests/mutants.py`."""

import pytest

from mutants import MUTANTS, ROOT, anchor_count


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 45


def test_every_module_has_a_mutant():
    modules = {p.relative_to(ROOT).as_posix() for p in (ROOT / "src/polarspec").glob("*.py")}
    assert modules - {m.file for m in MUTANTS} == {"src/polarspec/__init__.py"}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_anchor_matches_exactly_once(mutant):
    assert anchor_count(mutant) == 1
    assert (ROOT / mutant.tests.split("::")[0]).is_file()
