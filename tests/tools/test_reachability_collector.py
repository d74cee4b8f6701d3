"""The reachability collector records dataclass fields as it records parameters.

One subprocess runs a tiny fixture module under the generated
``sitecustomize.py``, with the fixture's directory standing in for ``src/``.
"""

from __future__ import annotations

import os
import subprocess
import sys

from tests.tools.reachability import _COLLECTOR

FIXTURE = '''\
from dataclasses import dataclass, field


@dataclass
class Config:
    name: str
    size: int = 3
    tags: list = field(default_factory=list)
    mode: str = "a"


@dataclass(frozen=True)
class Frozen:
    level: int = 1


Config("x")
Config("y", 5)  # positional
Config("z", 6, [1])  # a third size: past the cap of two
Config("w", mode="b")
Frozen()
Frozen(level=2)
'''


def _recorded_fields(tmp_path) -> dict[tuple[str, str], set[str]]:
    src, site, reach = tmp_path / "src", tmp_path / "site", tmp_path / "reach"
    for directory in (src, site, reach):
        directory.mkdir()
    (src / "fixture.py").write_text(FIXTURE)
    (site / "sitecustomize.py").write_text(_COLLECTOR)
    (tmp_path / "params.json").write_text("[]")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(site), str(src)]),
        "REACH_SRC": str(src) + os.sep,
        "REACH_DIR": str(reach),
        "REACH_PARAMS": str(tmp_path / "params.json"),
    }
    subprocess.run([sys.executable, "-c", "import fixture"], env=env, check=True)
    fields: dict[tuple[str, str], set[str]] = {}
    for file in reach.glob("*.tsv"):
        for line in file.read_text().splitlines():
            marker, *rest = line.split("\t")
            if marker == "@field":
                path, qual, name, print_ = rest
                assert path == str(src / "fixture.py")
                fields.setdefault((qual, name), set()).add(print_)
    return fields


def test_the_dataclass_branch(tmp_path):
    assert _recorded_fields(tmp_path) == {
        ("Config", "size"): {"int:3", "int:5"},  # explicit default, then positional; capped
        ("Config", "tags"): {"<factory>", "<builtins.list>"},  # the sentinel means default
        ("Config", "mode"): {"str:'a'", "str:'b'"},
        ("Frozen", "level"): {"int:1", "int:2"},  # its extra builtins local is no field
    }

