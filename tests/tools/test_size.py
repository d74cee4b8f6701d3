"""``tests/tools/size.py`` counts what it says it counts."""

from __future__ import annotations

from tests.tools.size import count_paths, count_source, main

FIXTURE = '''"""Module docstring,
over two lines."""

import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar

# a comment line


@dataclass(frozen=True)
class Settings:
    """Class docstring."""

    name: str
    size: int = 3  # a trailing comment
    tags: list = field(default_factory=list)
    LIMIT: ClassVar[int] = 9


@dataclasses.dataclass
class Bare:
    count: int = 0


class Plain:
    value: int = 1

    def method(self, a, b=2, *, c, d=None):
        """Method docstring."""
        text = """not a
        docstring"""
        return text


async def fetch(x=1, /, y=2, *args, z=3, **kwargs):
    return lambda q=4: q
'''


def test_the_fixture_counts():
    assert count_source(FIXTURE) == {
        "code lines": 20,
        "defs": 2,
        "defaulted parameters": 5,
        "defaulted dataclass fields": 3,
    }


def test_a_field_call_without_a_default_is_not_defaulted():
    source = """
from dataclasses import dataclass, field
import dataclasses


@dataclass
class Record:
    hint: str = field(compare=False)
    seed: int = field(kw_only=True)
    window: list = dataclasses.field(init=False, repr=False)
    size: int = field(default=3, compare=False)
    tags: list = dataclasses.field(default_factory=list)
"""
    assert count_source(source)["defaulted dataclass fields"] == 2


def test_files_and_directories_add_up(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("def f(x=1):\n    return x\n")
    totals = count_paths([tmp_path / "pkg", tmp_path / "b.py"])
    assert totals == {
        "code lines": 22,
        "defs": 3,
        "defaulted parameters": 6,
        "defaulted dataclass fields": 3,
    }


def test_main_prints_one_row_per_count(tmp_path, capsys):
    (tmp_path / "b.py").write_text("def f(x=1):\n    return x\n")
    assert main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[-1] for row in rows] == ["2", "1", "1", "0"]
