"""The committed reachability table is well-formed (AST only, no entry point).

``reachability.py --check`` (outside tier-1, minutes) decides whether the
table is *current*; this decides, in tier-1, that every row says what is
to become of its def in the agreed vocabulary, and that the def is there.
"""

from __future__ import annotations

from tests.tools.reachability import committed_table, defined_functions, disposition_problem


def test_table_is_not_empty():
    assert committed_table()


def test_every_row_has_a_disposition_from_the_vocabulary():
    problems = {
        f"{path}:{qual}": problem
        for (path, qual), disposition in committed_table().items()
        if (problem := disposition_problem(disposition))
    }
    assert not problems


def test_every_row_names_a_def_under_src():
    gone = sorted(set(committed_table()) - defined_functions())
    assert not gone


def test_the_vocabulary():
    assert disposition_problem("delete") is None
    assert disposition_problem("reference: tests/tools/reachability.py") is None
    assert disposition_problem("kept: served op") is None
    assert disposition_problem("kept: registry kind — the star builder") is None
    for bad in ("", "keep", "kept: it looked useful", "reference: tests/nowhere.py", "delete it"):
        assert disposition_problem(bad), bad
