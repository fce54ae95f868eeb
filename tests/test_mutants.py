"""The mutant table (``tests/mutants.py``) stays in step with the code:
each snippet occurs exactly once in its module, and each test file it
names exists. Running the mutants is not part of Tier-1."""

from mutants import MUTANTS, ROOT, SRC


def test_each_snippet_occurs_once():
    for m in MUTANTS:
        assert (SRC / m.module).read_text().count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet, m.name
        assert all((ROOT / t.split("::")[0]).is_file() for t in m.tests), m.name


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
