"""The committed reachability tables are well-formed (AST only, no entry point).

``reachability.py --check`` (outside tier-1, minutes) decides whether the
tables are *current*; this decides, in tier-1, that every row says what is
to become of its def or parameter in the agreed vocabulary, that the def
or parameter is there, and that no row waits to be carried out.
"""

from __future__ import annotations

from tests.tools.reachability import (
    committed_options,
    committed_table,
    defined_functions,
    defined_parameters,
    disposition_problem,
)


def test_table_is_not_empty():
    assert committed_table()
    assert committed_options()


def test_every_row_has_a_disposition_from_the_vocabulary():
    problems = {
        f"{path}:{qual}": problem
        for (path, qual), disposition in committed_table().items()
        if (problem := disposition_problem(disposition))
    }
    assert not problems


def test_every_option_row_has_a_disposition_from_the_vocabulary():
    problems = {
        ":".join(key): problem
        for key, disposition in committed_options().items()
        if (problem := disposition_problem(disposition, options=True))
    }
    assert not problems


def test_every_row_names_a_def_under_src():
    gone = sorted(set(committed_table()) - defined_functions())
    assert not gone


def test_every_option_row_names_a_defaulted_parameter_under_src():
    gone = sorted(set(committed_options()) - defined_parameters())
    assert not gone


def test_no_committed_row_waits_to_be_carried_out():
    """A ``delete``, ``reference: …`` or ``constant`` row is carried out by
    the change that records it, so a committed row is always ``kept``."""
    pending = sorted(
        ":".join(key)
        for rows in (committed_table(), committed_options())
        for key, disposition in rows.items()
        if not disposition.startswith("kept: ")
    )
    assert not pending


def test_the_vocabulary():
    assert disposition_problem("delete") is None
    assert disposition_problem("reference: tests/tools/reachability.py") is None
    assert disposition_problem("kept: served op") is None
    assert disposition_problem("kept: registry kind — the star builder") is None
    for bad in ("", "keep", "kept: it looked useful", "reference: tests/nowhere.py", "delete it",
                "constant", "kept: outside input"):
        assert disposition_problem(bad), bad


def test_the_option_vocabulary():
    assert disposition_problem("constant", options=True) is None
    assert disposition_problem("kept: injected clock (SAN001)", options=True) is None
    assert disposition_problem("kept: outside input — `san-lint --select`", options=True) is None
    for bad in ("", "delete", "reference: tests/tools/reachability.py", "kept: served op",
                "kept: it looked useful", "constant it"):
        assert disposition_problem(bad, options=True), bad
