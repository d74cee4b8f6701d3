"""Which ``src/`` functions does no product entry point ever enter, and
which defaulted parameters and dataclass fields does none ever vary?

Run from the repository root (it takes a few minutes, so it is not part
of tier-1)::

    python tests/tools/reachability.py           # print the three tables
    python tests/tools/reachability.py --check   # compare with the committed ones

It prints the three docs/STATIC_ANALYSIS.md tables on stdout, each row
with the disposition the committed table gives it (blank for a new row).
With ``--check`` it prints nothing on stdout and exits 1 when any table is
stale: a never-entered def, a never-varied parameter or a never-varied
field has no row, or a row names one that is gone, or that some entry
point now enters or varies.

Every product entry point runs in its own subprocess with a generated
``sitecustomize.py`` on ``PYTHONPATH``. It installs a ``sys.setprofile``
collector (``threading.setprofile`` for later threads) that appends each
``src/`` code object the first time the process enters it to a file of
that process's own. For a code object with defaulted parameters it also
appends up to two distinct fingerprints of the value each one is bound
to (:func:`fingerprint`: scalars, enum members and tuples of these by
value, anything else by class). A dataclass-generated ``__init__`` (code
from ``<string>``) whose ``self`` is of a dataclass declared under
``src/`` gets the same treatment for every defaulted init field, keyed by
the class that declares the field; an omitted ``default_factory`` field
binds the dataclasses sentinel and is recorded as :data:`FACTORY`, which
is also the resolved default of such a field. A forked child reopens a
file of its own, so pool workers count. The entry points:

- every ``san-map`` subcommand on its smallest inputs (``chaos`` and
  ``tournament`` as CI runs them, plus one incremental ``chaos --config``
  run; ``generate`` for every kind; ``routes`` also on a fabric with a
  host-to-host cable), and ``san-lint`` (also ``--format json``);
- two failure paths, each expected to exit 1 (:data:`EXPECTED_EXIT`):
  ``san-lint`` on a file with a finding, and ``chaos --config --shrink``
  on a cell that fails (a probe budget of one);
- ``examples/*.py``;
- ``benchmarks/e2e/run.py --quick`` per workload (its results land in
  the git-ignored ``benchmarks/e2e/out/``, as any run's do);
- ``benchmarks/run_benchmarks.py --quick`` per suite, into a scratch
  ``--out``;
- ``san-map serve --burst``;
- a client session against ``san-map serve --config``: ping, tenants,
  stats (server-wide and per tenant), map, cut, plug, verify and
  shutdown, each op through :class:`~repro.service.client.MapClient`.

Every ``def`` under ``src/`` (by module and qualified name) that no
process entered is a row of the functions table. A defaulted parameter
is a row of the options table when every fingerprint recorded for it is
its default's (none at all if its def was never entered) and no call
site under ``src/``, ``examples/`` or ``benchmarks/`` passes it a literal
other than the default, traced or not. Defaults are resolved by
qualified name, so a nested def's default counts only when it is a
literal. A defaulted init field of a ``src/`` dataclass is a row of the
fields table by the same rule (a call site passes it by keyword, by
position or through ``dataclasses.replace``), and when besides no
``src/`` code writes it after construction (:func:`stored_attributes`):
the one rule covers config inputs never varied and record fields never
written. An entry point that exits with any status but its expected one
is reported and fails the run, because its functions would be listed as
unreachable.

A disposition is one of (``test_reachability_table.py`` holds the
committed tables to it in tier-1, and refuses the first three in a
committed row: a disposition is carried out by the change that records
it):

- ``delete`` (functions) — nothing calls it;
- ``reference: <path>`` (functions) — only tests call it, so it moves to
  the test helper at ``<path>`` that reads it;
- ``constant`` (options and fields) — the parameter or field goes and
  its value becomes a module or class constant or is inlined;
- ``kept: <reason>`` — one of :data:`KEPT_REASONS` (functions) or
  :data:`OPTION_KEPT_REASONS` (options and fields), optionally followed
  by `` — `` and a detail.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))  # for tests.tools.size when run as a script
from tests.tools.size import defaulted_fields  # noqa: E402

SRC = ROOT / "src"
TABLE = ROOT / "docs" / "STATIC_ANALYSIS.md"
HEADER = "| module | function | disposition |"
OPTIONS_HEADER = "| module | function | parameter | disposition |"
FIELDS_HEADER = "| module | class | field | disposition |"

#: Why a never-entered def stays in ``src/``.
KEPT_REASONS = (
    "protocol or base-class method",
    "error path on outside input",
    "served op",
    "path taken only on failure",
    "registry kind",
)

#: Why a never-varied parameter or field stays settable.
OPTION_KEPT_REASONS = (
    "deployment setting",
    "injected clock (SAN001)",
    "outside input",
    "registry kind parameter",
    "benchmark call shape",
)

_ROW = re.compile(r"^\| `([^`]+)` \| `([^`]+)` \| (.*?) ?\|$")
_OPTION_ROW = re.compile(r"^\| `([^`]+)` \| `([^`]+)` \| `([^`]+)` \| (.*?) ?\|$")

#: A one-tenant serve config and the client session run against it.
_TENANTS = [{"name": "t0", "topology": "ring", "params": {"size": 4}}]
_SESSION = '''\
import asyncio, subprocess, sys
from repro.service.client import MapClient


async def session(host, port):
    async with MapClient(host, port) as client:
        await client.ping()
        (tenant,) = await client.tenants()
        name = tenant["name"]
        await client.stats()
        assert (await client.map(name))["ok"]
        cut = await client.cut(name, auto=True)
        await client.request("plug", tenant=name, a=cut["cut"][0], b=cut["cut"][1])
        assert (await client.map(name))["ok"]
        assert (await client.verify(name))["ok"]
        await client.stats(name)
        await client.shutdown()


server = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", "--config", sys.argv[1], "--workers", "1"],
    stdout=subprocess.PIPE, text=True,
)
try:
    host, port = server.stdout.readline().rsplit(" ", 1)[1].rsplit(":", 1)
    asyncio.run(session(host, int(port)))
    sys.exit(server.wait(timeout=120))
finally:
    if server.poll() is None:  # the session failed before its shutdown
        server.kill()
'''

#: The smallest fabric with a host that is not a leaf: two hosts cabled
#: to each other beside a switch with two.
_HOST_CABLE = {
    "format": "san-map", "version": 1, "default_radix": 8,
    "hosts": [{"name": h} for h in ("h0", "h1", "h2", "h3")],
    "switches": [{"name": "s0", "radix": 8}],
    "wires": [
        {"a": {"node": "h0", "port": 0}, "b": {"node": "s0", "port": 0}},
        {"a": {"node": "h1", "port": 0}, "b": {"node": "s0", "port": 1}},
        {"a": {"node": "h2", "port": 0}, "b": {"node": "h3", "port": 0}},
    ],
}

#: An incremental campaign of one cut-then-heal cell.
_CAMPAIGN = {
    "name": "reachability",
    "scenarios": [{
        "name": "cut-then-heal", "seed": 103, "cycles": 3,
        "events": [{"action": "cut", "args": ["ring-s2", 1], "cycle": 1},
                   {"action": "heal", "args": ["ring-s2", 1], "cycle": 2}],
    }],
    "topologies": [{"kind": "ring", "size": 6}],
    "seeds": [0],
    "incremental": True,
}

#: The same cell held to a probe budget no map fits in, so it fails and
#: ``--shrink`` shrinks it.
_FAILING_CAMPAIGN = {**_CAMPAIGN, "name": "reachability-failing", "probe_budget": 1}

#: A module with one lint finding (SAN008, a mutable default argument).
_FINDING = "def grow(items=[]):\n    items.append(1)\n    return items\n"

#: The exit status of an entry point that fails by design; every other
#: entry point must exit 0.
EXPECTED_EXIT = {"san-lint finding": 1, "chaos shrink": 1}


#: Shared by the collector and :func:`fingerprint`, so a recorded value
#: and a resolved default are fingerprinted by the same code.
_FINGERPRINT = '''\
import enum

#: The fingerprint of a default_factory field's default.
FACTORY = "<factory>"


def fingerprint(value):
    if isinstance(value, enum.Enum):
        return f"{type(value).__qualname__}.{value.name}"
    if value is None or type(value) in (bool, int, float, str, bytes):
        return f"{type(value).__name__}:{value!r}"
    if type(value) is tuple:
        return "(" + ",".join(map(fingerprint, value)) + ")"
    return f"<{type(value).__module__}.{type(value).__qualname__}>"
'''

_COLLECTOR = _FINGERPRINT + '''
import json, os, sys, threading

_SRC = os.environ["REACH_SRC"]
_DIR = os.environ["REACH_DIR"]
with open(os.environ["REACH_PARAMS"]) as _f:
    _DEFAULTED = {(path, qual): names for path, qual, names in json.load(_f)}
_seen = {}
_open_params = {}  # id(code) -> {parameter: fingerprints seen}, until two
_initializers = set()  # id(code) of every dataclass-generated __init__
_open_fields = {}  # class -> {field: (path, declaring qualname, fingerprints seen)}, until two
_out = None


def _open():
    global _out
    _seen.clear()
    _open_params.clear()
    _initializers.clear()
    _open_fields.clear()
    _out = open(os.path.join(_DIR, f"{os.getpid()}.tsv"), "a", buffering=1)


def _defaulted_fields(cls):
    """A dataclass's defaulted init fields, each with the src/ class declaring it."""
    import dataclasses

    if not dataclasses.is_dataclass(cls):
        return {}
    fields = {}
    for field in dataclasses.fields(cls):
        if not field.init or (field.default is dataclasses.MISSING
                              and field.default_factory is dataclasses.MISSING):
            continue
        owner = next(c for c in cls.__mro__ if field.name in c.__dict__.get("__annotations__", {}))
        path = getattr(sys.modules.get(owner.__module__), "__file__", None) or ""
        if path.startswith(_SRC):
            fields[field.name] = (path, owner.__qualname__, set())
    return fields


def _record_fields(local):
    cls = type(local.get("self"))
    fields = _open_fields.get(cls)
    if fields is None:
        fields = _open_fields[cls] = _defaulted_fields(cls)
    for name, (path, owner, prints) in list(fields.items()):
        value = local.get(name)
        # An omitted default_factory field binds the dataclasses sentinel.
        factory = type(value).__name__ == "_HAS_DEFAULT_FACTORY_CLASS"
        print_ = FACTORY if factory else fingerprint(value)
        if print_ not in prints:
            prints.add(print_)
            _out.write(f"@field\\t{path}\\t{owner}\\t{name}\\t{print_}\\n")
            if len(prints) == 2:
                del fields[name]


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    key = id(code)
    if key not in _seen:
        _seen[key] = code  # kept alive, so an id is never reused
        if code.co_filename.startswith(_SRC):
            _out.write(f"{code.co_filename}\\t{code.co_qualname}\\n")
            names = _DEFAULTED.get((code.co_filename, code.co_qualname))
            if names:
                _open_params[key] = {name: set() for name in names}
        elif code.co_filename == "<string>" and code.co_name == "__init__":
            _initializers.add(key)
    if key in _initializers:
        _record_fields(frame.f_locals)
        return
    params = _open_params.get(key)
    if params is None:
        return
    local = frame.f_locals
    for name, prints in list(params.items()):
        print_ = fingerprint(local.get(name))
        if print_ not in prints:
            prints.add(print_)
            _out.write(f"{code.co_filename}\\t{code.co_qualname}\\t{name}\\t{print_}\\n")
            if len(prints) == 2:
                del params[name]
    if not params:
        del _open_params[key]


_open()
os.register_at_fork(after_in_child=_open)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def entry_points(scratch: Path) -> list[tuple[str, list[str]]]:
    """``(label, argv)`` of every product entry point, smallest inputs."""
    py = sys.executable
    san_map = [py, "-m", "repro"]
    ring, mapped = str(scratch / "ring.json"), str(scratch / "map.json")
    inputs = {"tenants.json": _TENANTS, "host-cable.json": _HOST_CABLE, "campaign.json": _CAMPAIGN,
              "failing.json": _FAILING_CAMPAIGN}
    for name, doc in inputs.items():
        (scratch / name).write_text(json.dumps(doc))
    (scratch / "finding.py").write_text(_FINDING)
    sys.path.insert(0, str(SRC))
    from repro.topology.generators.named import NAMED_TOPOLOGIES

    # Every kind ``generate`` offers (the fat trees have no flags there).
    runs = [
        (f"generate {kind}", [*san_map, "generate", "--topology", kind,
                              "--out", str(scratch / f"{kind}.json")])
        for kind in NAMED_TOPOLOGIES
        if kind != "ring" and not kind.startswith("fat-tree")
    ]
    runs += [
        ("generate", [*san_map, "generate", "--topology", "ring", "--out", ring]),
        ("analyze", [*san_map, "analyze", "--network", ring]),
        ("map", [*san_map, "map", "--network", ring, "--out", mapped, "--render",
                 "--profile", "--stats"]),
        ("map list", [*san_map, "map", "--mapper", "list"]),
        ("routes", [*san_map, "routes", "--map", mapped, "--verify-against", ring]),
        ("routes lash", [*san_map, "routes", "--map", mapped, "--scheme", "lash"]),
        ("routes host cable", [*san_map, "routes", "--map", str(scratch / "host-cable.json")]),
        ("tournament", [*san_map, "tournament", "--quick", "--out", str(scratch / "t.json"),
                        "--check-against", "benchmarks/BENCH_tournament.json"]),
        ("chaos", [*san_map, "chaos", "--report", str(scratch / "r.json"),
                   "--corpus", str(scratch / "corpus")]),
        ("chaos replay", [*san_map, "chaos", "--replay-corpus", "tests/chaos/corpus"]),
        ("chaos incremental", [*san_map, "chaos", "--config", str(scratch / "campaign.json"),
                               "--verbose", "--shrink"]),
        ("chaos shrink", [*san_map, "chaos", "--config", str(scratch / "failing.json"),
                          "--shrink"]),
        ("serve", [*san_map, "serve", "--burst", "1", "--tenants", "2", "--workers", "1"]),
        ("client session", [py, "-c", _SESSION, str(scratch / "tenants.json")]),
        ("experiment", [*san_map, "experiment", "all"]),
        ("export-data", [*san_map, "export-data", "--out", str(scratch / "data")]),
        ("san-lint", [py, "-m", "repro.analysis.cli", "src/repro", "benchmarks", "examples"]),
        ("san-lint rules", [py, "-m", "repro.analysis.cli", "--list-rules"]),
        ("san-lint json", [py, "-m", "repro.analysis.cli", "--format", "json", "src/repro/analysis"]),
        ("san-lint finding", [py, "-m", "repro.analysis.cli", str(scratch / "finding.py")]),
    ]
    runs += [(f"example {p.stem}", [py, str(p)]) for p in sorted(ROOT.glob("examples/*.py"))]
    for workload in ("now_cold", "now_recover", "fattree_map", "served_churn"):
        runs.append((f"e2e {workload}", [py, "benchmarks/e2e/run.py", "--quick",
                                         "--seconds", "1", "--workload", workload]))
    for suite in ("micro", "scale", "remap"):
        runs.append((f"bench {suite}", [py, "benchmarks/run_benchmarks.py", "--quick",
                                        "--repeats", "1", "--suite", suite,
                                        "--out", str(scratch / "bench")]))
    return runs


def _defs(root: Path = SRC):
    """``(module path, qualname, def node, is a method)`` of every ``def`` under ``root``."""

    def walk(node: ast.AST, prefix: str, path: str, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                yield path, qual, child, in_class
                yield from walk(child, qual + ".<locals>.", path, False)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".", path, True)
            else:
                yield from walk(child, prefix, path, in_class)

    for file in sorted(root.rglob("*.py")):
        yield from walk(ast.parse(file.read_text()), "", str(file.relative_to(ROOT)), False)


def defined_functions() -> set[tuple[str, str]]:
    """``(module path, qualname)`` of every ``def`` under ``src/``."""
    return {(path, qual) for path, qual, _, _ in _defs()}


def _defaults(node: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, ast.expr]:
    args = node.args
    positional = args.posonlyargs + args.args
    named = dict(zip([a.arg for a in positional[len(positional) - len(args.defaults):]],
                     args.defaults))
    named.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return named


def defaulted_parameters() -> dict[tuple[str, str], dict[str, ast.expr]]:
    """``(module path, qualname) -> {parameter: default expression}`` under ``src/``."""
    return {(path, qual): named for path, qual, node, _ in _defs() if (named := _defaults(node))}


def defined_parameters() -> set[tuple[str, str, str]]:
    return {(*key, name) for key, named in defaulted_parameters().items() for name in named}


_fingerprint_ns: dict = {}
exec(_FINGERPRINT, _fingerprint_ns)
#: The collector's fingerprint: scalars, enum members and tuples of these
#: by value, anything else by class.
fingerprint = _fingerprint_ns["fingerprint"]
FACTORY = _fingerprint_ns["FACTORY"]


def _literal(node: ast.expr) -> tuple[bool, object]:
    try:
        return True, ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return False, None


def _lookup(path: str, qual: str) -> object:
    """The object ``qual`` names in the ``src/`` module at ``path`` (None under ``<locals>``)."""
    import importlib
    import inspect

    if "<locals>" in qual:
        return None
    sys.path.insert(0, str(SRC))
    module = ".".join(Path(path).relative_to("src").with_suffix("").parts)
    obj = importlib.import_module(module.removesuffix(".__init__"))
    for part in qual.split("."):
        obj = inspect.getattr_static(obj, part, None)
        obj = getattr(obj, "__func__", None) or getattr(obj, "fget", None) or obj
    return obj


def default_fingerprints(
    params: dict[tuple[str, str], dict[str, ast.expr]],
) -> dict[tuple[str, str, str], str | None]:
    """Each default, resolved by qualified name and fingerprinted (None: unresolved)."""
    import inspect

    prints: dict[tuple[str, str, str], str | None] = {}
    for (path, qual), named in params.items():
        func = _lookup(path, qual)
        func = inspect.unwrap(func) if callable(func) else None
        signature = inspect.signature(func).parameters if func is not None else {}
        for name, node in named.items():
            if name in signature:
                prints[(path, qual, name)] = fingerprint(signature[name].default)
            else:
                ok, value = _literal(node)
                prints[(path, qual, name)] = fingerprint(value) if ok else None
    return prints


def statically_varied(
    params: dict[tuple[str, str], dict[str, ast.expr]],
    defaults: dict[tuple[str, str, str], str | None],
) -> set[tuple[str, str, str]]:
    """Parameters a call site under ``src/``, ``examples/`` or ``benchmarks/``
    passes a literal other than the default, traced or not.

    A call is matched to every def of the called name (a class name calls
    its ``__init__``), so a shared name can only hide a row, never add one.
    """
    by_name: dict[str, list[tuple[tuple[str, str], list[str]]]] = {}
    for path, qual, node, method in _defs():
        if (path, qual) not in params:
            continue
        positional = [a.arg for a in node.args.posonlyargs + node.args.args]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        if method and not static:
            positional = positional[1:]
        parts = qual.split(".")
        name = parts[-2] if parts[-1] == "__init__" and len(parts) > 1 else parts[-1]
        by_name.setdefault(name, []).append(((path, qual), positional))
    return _varied_at_call_sites(by_name, params, defaults)


def _varied_at_call_sites(
    by_name: dict[str, list[tuple[tuple[str, str], list[str]]]],
    params: dict[tuple[str, str], dict[str, ast.expr]],
    defaults: dict[tuple[str, str, str], str | None],
) -> set[tuple[str, str, str]]:
    """The ``(*key, name)`` a call of a name in ``by_name`` passes a non-default literal,
    by keyword or by the key's ``positional`` names."""
    varied = set()
    for root in ("src", "examples", "benchmarks"):
        for file in sorted((ROOT / root).rglob("*.py")):
            for call in ast.walk(ast.parse(file.read_text())):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                for key, positional in by_name.get(name, ()):
                    passed = [(kw.arg, kw.value) for kw in call.keywords if kw.arg]
                    for index, arg in enumerate(call.args):
                        if isinstance(arg, ast.Starred) or index >= len(positional):
                            break
                        passed.append((positional[index], arg))
                    for param, value in passed:
                        if param not in params[key]:
                            continue
                        ok, literal = _literal(value)
                        if ok and fingerprint(literal) != defaults[(*key, param)]:
                            varied.add((*key, param))
    return varied


Bound = dict[tuple[str, str, str], set[str]]


def read_runs(reach_dir: Path) -> tuple[set[tuple[str, str]], Bound, Bound]:
    """The defs the runs entered, each parameter's recorded fingerprints,
    and each dataclass field's."""
    seen: set[tuple[str, str]] = set()
    bound: Bound = {}
    fields: Bound = {}
    for file in reach_dir.glob("*.tsv"):
        for line in file.read_text().splitlines():
            if line.startswith("@field\t"):
                _, filename, qual, name, print_ = line.split("\t")
                key = (str(Path(filename).relative_to(ROOT)), qual, name)
                fields.setdefault(key, set()).add(print_)
                continue
            filename, qual, *param = line.split("\t")
            path = str(Path(filename).relative_to(ROOT))
            seen.add((path, qual))
            if param:
                name, print_ = param
                bound.setdefault((path, qual, name), set()).add(print_)
    return seen, bound, fields


def _bound_to_default(defaults: dict[tuple[str, str, str], str | None], bound: Bound) -> set:
    """The keys with a resolved default that every run bound to it (or never bound)."""
    return {
        key for key, default in defaults.items()
        if default is not None and bound.get(key, {default}) == {default}
    }


def never_varied(bound: Bound) -> set[tuple[str, str, str]]:
    """Every defaulted ``src/`` parameter no run and no literal call site varies."""
    params = defaulted_parameters()
    defaults = default_fingerprints(params)
    return _bound_to_default(defaults, bound) - statically_varied(params, defaults)


def _dataclasses(root: Path = SRC):
    """``(module path, class qualname, {field: default expression})`` of every
    ``@dataclass`` under ``root`` with a defaulted init field."""

    def init(value: ast.expr) -> bool:
        return not (isinstance(value, ast.Call) and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in value.keywords
        ))

    def walk(node: ast.AST, prefix: str, path: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qual = prefix + child.name
                named = {stmt.target.id: stmt.value for stmt in defaulted_fields(child)
                         if isinstance(stmt.target, ast.Name) and init(stmt.value)}
                if named:
                    yield path, qual, named
                yield from walk(child, qual + ".", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, prefix + child.name + ".<locals>.", path)
            else:
                yield from walk(child, prefix, path)

    for file in sorted(root.rglob("*.py")):
        yield from walk(ast.parse(file.read_text()), "", str(file.relative_to(ROOT)))


def defined_fields() -> set[tuple[str, str, str]]:
    """``(module path, class qualname, field)`` of every defaulted init field under ``src/``."""
    return {(path, qual, name) for path, qual, named in _dataclasses() for name in named}


#: Methods that write into the container they are called on.
_MUTATORS = frozenset({"append", "extend", "insert", "add", "update", "setdefault",
                       "pop", "popitem", "remove", "discard", "clear"})


def stored_attributes() -> set[str]:
    """Every attribute name ``src/`` writes after construction: ``x.name = …``,
    ``x.name += …``, ``del x.name``, ``setattr``/``object.__setattr__`` with
    a literal name, or a write into its container (``x.name[k] = …``,
    ``x.name.append(…)`` and the other :data:`_MUTATORS`)."""
    names = set()
    for file in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(file.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                names.add(node.attr)
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                  and isinstance(node.value, ast.Attribute)):
                names.add(node.value.attr)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("setattr", "__setattr__") and len(node.args) >= 2 \
                        and isinstance(node.args[1], ast.Constant):
                    names.add(node.args[1].value)
                elif name in _MUTATORS and isinstance(func, ast.Attribute) \
                        and isinstance(func.value, ast.Attribute):
                    names.add(func.value.attr)
    return names


def never_varied_fields(bound: Bound) -> set[tuple[str, str, str]]:
    """Every defaulted ``src/`` dataclass field that every built object bound
    to its default, that no call site passes a non-default literal (by
    keyword, by position or through ``dataclasses.replace``), and that no
    ``src/`` code stores to after construction."""
    import dataclasses

    params: dict[tuple[str, str], dict[str, ast.expr]] = {}
    defaults: dict[tuple[str, str, str], str | None] = {}
    by_name: dict[str, list[tuple[tuple[str, str], list[str]]]] = {}
    for path, qual, named in _dataclasses():
        cls = _lookup(path, qual)
        fields = {f.name: f for f in dataclasses.fields(cls)} if cls is not None else {}
        params[(path, qual)] = named
        for name in named:
            field = fields.get(name)
            defaults[(path, qual, name)] = None if field is None else (
                FACTORY if field.default is dataclasses.MISSING else fingerprint(field.default))
        positional = [name for name, field in fields.items() if field.init]
        by_name.setdefault(qual.split(".")[-1], []).append(((path, qual), positional))
        by_name.setdefault("replace", []).append(((path, qual), []))
    unvaried = _bound_to_default(defaults, bound) - _varied_at_call_sites(by_name, params, defaults)
    stored = stored_attributes()
    return {key for key in unvaried if key[2] not in stored}


def _committed(header: str, row: re.Pattern, path: Path) -> dict[tuple[str, ...], str]:
    rows: dict[tuple[str, ...], str] = {}
    lines = iter(path.read_text().splitlines())
    for line in lines:
        if line == header:
            break
    next(lines, None)  # the |---| rule
    for line in lines:
        match = row.match(line)
        if match is None:
            break
        *key, disposition = match.groups()
        rows[("src/" + key[0], *key[1:])] = disposition.strip()
    return rows


def committed_table(path: Path = TABLE) -> dict[tuple[str, ...], str]:
    """``(module path, qualname) -> disposition`` of the committed functions table."""
    return _committed(HEADER, _ROW, path)


def committed_options(path: Path = TABLE) -> dict[tuple[str, ...], str]:
    """``(module path, qualname, parameter) -> disposition`` of the committed options table."""
    return _committed(OPTIONS_HEADER, _OPTION_ROW, path)


def committed_fields(path: Path = TABLE) -> dict[tuple[str, ...], str]:
    """``(module path, class qualname, field) -> disposition`` of the committed fields table."""
    return _committed(FIELDS_HEADER, _OPTION_ROW, path)


def disposition_problem(disposition: str, options: bool = False) -> str | None:
    """Why ``disposition`` is not from the functions (or options) vocabulary, or None."""
    if disposition == ("constant" if options else "delete"):
        return None
    kind, _, rest = disposition.partition(": ")
    if kind == "reference" and not options:
        return None if (ROOT / rest).is_file() else f"no file {rest}"
    if kind == "kept":
        reason = rest.split(" — ")[0]
        return None if reason in (OPTION_KEPT_REASONS if options else KEPT_REASONS) \
            else f"unknown reason {reason!r}"
    vocabulary = "constant / kept: <reason>" if options else "delete / reference: <path> / kept: <reason>"
    return f"not {vocabulary}: {disposition!r}"


def check(never: set, defined: set, rows: dict) -> list[str]:
    """Every way a committed table disagrees with this run."""
    problems = [f"no row for {':'.join(key)}" for key in sorted(never - set(rows))]
    for key in sorted(set(rows) - never):
        gone = key not in defined
        problems.append(f"row for {':'.join(key)}, which is " + ("gone" if gone else "now reached"))
    return problems


def _print_table(header: str, keys: set, rows: dict) -> None:
    print(header)
    print("|" + "---|" * (header.count("|") - 1))
    for key in sorted(keys):
        disposition = rows.get(key)
        cell = f" {disposition} " if disposition else " "
        cells = " | ".join(f"`{part}`" for part in (key[0].removeprefix("src/"), *key[1:]))
        print(f"| {cells} |{cell}|")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a committed table is out of date")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        (scratch / "site").mkdir()
        (scratch / "site" / "sitecustomize.py").write_text(_COLLECTOR)
        reach_dir = scratch / "reach"
        reach_dir.mkdir()
        params_file = scratch / "params.json"
        params_file.write_text(json.dumps([
            [str(ROOT / path), qual, list(named)]
            for (path, qual), named in sorted(defaulted_parameters().items())
        ]))
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(scratch / "site"), str(SRC)]),
            "REACH_SRC": str(SRC) + os.sep,
            "REACH_DIR": str(reach_dir),
            "REACH_PARAMS": str(params_file),
        }
        failed = []
        for label, cmd in entry_points(scratch):
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
            print(f"{label}: exit {done.returncode}", file=sys.stderr)
            if done.returncode != EXPECTED_EXIT.get(label, 0):
                failed.append(label)
                print(done.stderr[-2000:], file=sys.stderr)
        seen, bound, bound_fields = read_runs(reach_dir)
    defined = defined_functions()
    never = defined - seen
    unvaried = never_varied(bound)
    unvaried_fields = never_varied_fields(bound_fields)
    print(f"{len(never)} functions never entered, {len(unvaried)} parameters never varied, "
          f"{len(unvaried_fields)} fields never varied"
          + (f"; entry points failed: {', '.join(failed)}" if failed else ""),
          file=sys.stderr)
    if args.check:
        problems = check(never, defined, committed_table())
        problems += check(unvaried, defined_parameters(), committed_options())
        problems += check(unvaried_fields, defined_fields(), committed_fields())
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1 if failed or problems else 0
    _print_table(HEADER, never, committed_table())
    print()
    _print_table(OPTIONS_HEADER, unvaried, committed_options())
    print()
    _print_table(FIELDS_HEADER, unvaried_fields, committed_fields())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
