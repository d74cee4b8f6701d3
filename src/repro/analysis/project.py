"""Whole-program view for sanflow: symbol table, call graph, taint terms.

The per-module rules (SAN001–SAN011) each look at one file; the sanflow
rules (SAN012–SAN014) need facts that live *between* files: which classes
inherit an ``*_epoch`` property, where a constructor argument ultimately
comes from, which classes are :class:`~repro.simulator.stack.ProbeLayer`
descendants. This module supplies that view in two stages:

1. :func:`summarize_module` distills one parsed module into a plain-dict
   **module summary**: imports, class bases, per-method epoch-flow facts
   (computed with :mod:`repro.analysis.flow`), RNG construction sites with
   **taint terms**, call sites with per-argument taint terms, and layer
   purity facts. Summaries are JSON-serializable by construction — they
   are exactly what the incremental cache stores, so warm runs never
   re-parse an unchanged file.
2. :class:`Project` joins the summaries: resolves dotted names through
   the import graph, walks class ancestry across modules, indexes call
   sites by resolved callee, and evaluates taint terms through the call
   graph.

Taint terms are tiny dicts (``{"k": ...}``):

- ``s`` — seed-derived (parameter/attribute whose name contains "seed");
- ``c`` — compile-time constant (an explicit literal seed is replayable);
- ``b`` — bad, with a ``why`` (wall clock, ``id()``, untraceable, ...);
- ``j`` — join: every branch must be seed-derived;
- ``p`` — the value of parameter ``n`` of function ``fn``: resolved at
  project time against every recorded call site of ``fn``;
- ``x`` — the return value of a call, resolved to the callee's return
  taint with arguments bound to its parameters.
"""

from __future__ import annotations

import ast
from typing import Any, Iterable, Iterator

from repro.analysis.flow import all_paths_hit, build_cfg, unguarded_path_nodes

__all__ = [
    "Project",
    "TaintVerdict",
    "summarize_module",
]

# A summary/term is plain JSON data end to end.
Summary = dict[str, Any]
Term = dict[str, Any]

#: Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Receiver names treated as Network/FaultModel instances by SAN014 (on
#: top of explicit ``Network``/``FaultModel`` parameter annotations).
NETFAULT_NAMES = frozenset(
    {
        "net",
        "network",
        "_net",
        "_network",
        "fault",
        "faults",
        "_faults",
        "fault_model",
        "_fault_model",
    }
)

#: Annotation class names that mark a parameter as simulator state.
NETFAULT_TYPES = frozenset({"Network", "FaultModel"})

#: Call roots that can never be replayable seed sources.
_BAD_SEED_ROOTS = frozenset({"time", "datetime", "uuid", "secrets"})
_BAD_SEED_CALLS = frozenset(
    {"id", "object", "input", "getpid", "urandom", "token_bytes", "getenv"}
)

#: Pure builtins through which seed-ness passes unchanged.
_COMBINE_CALLS = frozenset(
    {"hash", "int", "abs", "min", "max", "pow", "divmod", "str", "ord", "len", "sum", "round"}
)

#: Builtin/stdlib callees whose call sites carry no seed information worth
#: indexing (keeps summaries and the cache small).
_UNINDEXED_CALLEES = frozenset(
    {
        "isinstance",
        "issubclass",
        "len",
        "print",
        "range",
        "enumerate",
        "zip",
        "sorted",
        "reversed",
        "getattr",
        "setattr",
        "hasattr",
        "repr",
        "format",
        "super",
        "type",
        "list",
        "dict",
        "set",
        "tuple",
        "frozenset",
        "str",
        "int",
        "float",
        "bool",
        "sum",
        "min",
        "max",
        "abs",
        "round",
        "iter",
        "next",
        "map",
        "filter",
        "any",
        "all",
        "vars",
        "id",
        "hash",
        "open",
    }
)

_INIT_METHODS = ("__init__", "__post_init__")

#: Methods exempt from SAN012: they run before the object is shared (or
#: rebuild it wholesale), so no cache can hold a stale view across them.
EPOCH_EXEMPT_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "__setstate__", "__deepcopy__", "__copy__"}
)

#: The canonical ProbeLayer roots: subclassing any of these makes a class
#: a middleware layer even when the stack module itself is outside the
#: analyzed file set.
LAYER_ROOT_CLASSES = frozenset(
    {
        "ProbeLayer",
        "CountingLayer",
        "CapLayer",
        "TraceBusLayer",
        "RetryLayer",
        "InterferenceLayer",
        "LockstepLayer",
        "ChaosLayer",
    }
)
LAYER_ROOT_MODULE = "repro.simulator.stack"

_MAX_TAINT_DEPTH = 25


def _seedlike(name: str) -> bool:
    return "seed" in name.lower()


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _receiver_name(node: ast.expr) -> str | None:
    """Terminal identifier of the object an attribute hangs off."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_epoch_attr(attr: str) -> bool:
    return attr == "_epoch" or attr.endswith("_epoch")


# ---------------------------------------------------------------------------
# taint-term constructors
# ---------------------------------------------------------------------------

def _seed() -> Term:
    return {"k": "s"}


def _const() -> Term:
    return {"k": "c"}


def _bad(why: str) -> Term:
    return {"k": "b", "why": why}


def _join(terms: list[Term]) -> Term:
    flat: list[Term] = []
    for t in terms:
        if t["k"] == "j":
            flat.extend(t["ts"])
        else:
            flat.append(t)
    if not flat:
        return _bad("empty expression")
    if len(flat) == 1:
        return flat[0]
    # A join of only-good terms (or with any bad term) collapses now.
    if all(t["k"] in ("s", "c") for t in flat):
        return _seed()
    for t in flat:
        if t["k"] == "b":
            return t
    return {"k": "j", "ts": flat}


def _param(fn: str, name: str) -> Term:
    return {"k": "p", "fn": fn, "n": name}


# ---------------------------------------------------------------------------
# module summarization
# ---------------------------------------------------------------------------


class _ModuleSummarizer:
    """Single pass over one module tree producing its summary dict."""

    def __init__(self, module: str, path: str, tree: ast.Module) -> None:
        self.module = module
        self.path = path
        self.tree = tree
        self.imports: dict[str, str] = {}
        self.classes: dict[str, Summary] = {}
        self.functions: dict[str, Summary] = {}
        self.rng_sites: list[Summary] = []
        self.call_sites: list[Summary] = []
        self._module_assigns: dict[str, list[ast.expr]] = {}
        self._class_nodes: dict[str, ast.ClassDef] = {}

    # -- entry point ----------------------------------------------------

    def run(self) -> Summary:
        self._collect_imports()
        self._collect_module_assigns()
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self._class_nodes[node.name] = node
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._summarize_function(node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._summarize_class(node)
        # Module-scope RNG constructions and call sites.
        self._scan_executable(self.tree.body, fn=None, cls=None, skip_defs=True)
        return {
            "module": self.module,
            "path": self.path,
            "imports": self.imports,
            "classes": self.classes,
            "functions": self.functions,
            "rng_sites": self.rng_sites,
            "call_sites": self.call_sites,
        }

    # -- imports and module scope --------------------------------------

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    pkg_parts = self.module.split(".")
                    # `from . import x` in module a.b.c → package a.b
                    pkg = ".".join(pkg_parts[: len(pkg_parts) - node.level])
                    base = f"{pkg}.{base}".rstrip(".") if base else pkg
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}" if base else alias.name

    def _collect_module_assigns(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._module_assigns.setdefault(target.id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self._module_assigns.setdefault(node.target.id, []).append(node.value)

    # -- functions ------------------------------------------------------

    def _qual(self, name: str, cls: str | None) -> str:
        return f"{self.module}:{cls}.{name}" if cls else f"{self.module}:{name}"

    def _summarize_function(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None
    ) -> None:
        qual = self._qual(fn.name, cls)
        args = fn.args
        all_params = [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]
        if cls is not None and all_params and all_params[0] in ("self", "cls"):
            all_params = all_params[1:]
        env = _FunctionEnv(self, fn, cls)
        defaults: dict[str, Term] = {}
        pos_params = [a.arg for a in (*args.posonlyargs, *args.args)]
        if cls is not None and pos_params and pos_params[0] in ("self", "cls"):
            pos_params = pos_params[1:]
        for name, default in zip(pos_params[::-1], args.defaults[::-1]):
            defaults[name] = env.classify(default)
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                defaults[a.arg] = env.classify(default)
        returns: list[Term] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                returns.append(env.classify(node.value))
        self.functions[qual.split(":", 1)[1]] = {
            "qualname": qual,
            "line": fn.lineno,
            "cls": cls,
            "params": all_params,
            "defaults": defaults,
            "return_taint": _join(returns) if returns else _bad(
                f"`{fn.name}()` has no traceable return value"
            ),
        }
        self._scan_executable(fn.body, fn=fn, cls=cls, skip_defs=False)

    # -- RNG sites and call sites ---------------------------------------

    def _rng_ctor(self, call: ast.Call) -> str | None:
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        if dotted in ("random.Random", "numpy.random.default_rng"):
            return dotted
        if self.imports.get(dotted) in ("random.Random", "numpy.random.default_rng"):
            return self.imports[dotted]
        if dotted.endswith(".default_rng"):
            root = dotted.split(".")[0]
            if self.imports.get(root, root) == "numpy":
                return "numpy.random.default_rng"
        return None

    def _scan_executable(
        self,
        body: list[ast.stmt],
        fn: ast.FunctionDef | ast.AsyncFunctionDef | None,
        cls: str | None,
        skip_defs: bool,
    ) -> None:
        env = _FunctionEnv(self, fn, cls)
        fn_qual = self._qual(fn.name, cls) if fn is not None else None
        for stmt in body:
            if skip_defs and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not stmt:
                    continue  # nested defs summarized separately
                if not isinstance(node, ast.Call):
                    continue
                ctor = self._rng_ctor(node)
                if ctor is not None:
                    self._record_rng_site(node, ctor, env)
                else:
                    self._record_call_site(node, env, cls)

    def _record_rng_site(
        self, call: ast.Call, ctor: str, env: "_FunctionEnv"
    ) -> None:
        if not call.args and not call.keywords:
            term = _bad("no seed argument: falls back on OS entropy")
        elif call.args:
            term = env.classify(call.args[0])
        else:
            kw = call.keywords[0]
            term = (
                env.classify(kw.value)
                if kw.arg is not None
                else _bad("seed passed through a **-splat")
            )
        self.rng_sites.append(
            {"line": call.lineno, "col": call.col_offset, "ctor": ctor, "term": term}
        )

    def _record_call_site(
        self, call: ast.Call, env: "_FunctionEnv", cls: str | None
    ) -> None:
        callee = _dotted(call.func)
        if callee is None or callee in _UNINDEXED_CALLEES:
            return
        if not call.args and not call.keywords:
            self.call_sites.append(
                {"callee": callee, "cls": cls, "line": call.lineno, "args": [], "kwargs": {}}
            )
            return
        args = [
            _bad("*-splat argument") if isinstance(a, ast.Starred) else env.classify(a)
            for a in call.args
        ]
        kwargs: dict[str, Term] = {}
        splat = False
        for kw in call.keywords:
            if kw.arg is None:
                splat = True
            else:
                kwargs[kw.arg] = env.classify(kw.value)
        site = {
            "callee": callee,
            "cls": cls,
            "line": call.lineno,
            "args": args,
            "kwargs": kwargs,
        }
        if splat:
            site["splat"] = True
        self.call_sites.append(site)

    # -- classes ---------------------------------------------------------

    def _summarize_class(self, node: ast.ClassDef) -> None:
        bases = [b for b in (_dotted(base) for base in node.bases) if b is not None]
        is_dataclass = any(
            (_dotted(d) or "").split(".")[-1] == "dataclass"
            for d in node.decorator_list
        )
        fields: list[str] = []
        field_defaults: dict[str, Term] = {}
        env = _FunctionEnv(self, None, node.name)
        epoch_properties: list[str] = []
        methods: dict[str, Summary] = {}
        method_nodes: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields.append(stmt.target.id)
                if stmt.value is not None:
                    field_defaults[stmt.target.id] = env.classify(stmt.value)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = {
                    (_dotted(d) or "").split(".")[-1] for d in stmt.decorator_list
                }
                if "property" in decorators or "cached_property" in decorators:
                    if stmt.name.endswith("_epoch"):
                        epoch_properties.append(stmt.name)
                    continue
                if "staticmethod" in decorators:
                    continue
                method_nodes[stmt.name] = stmt
                self._summarize_function(stmt, cls=node.name)
        self._epoch_flow(node, method_nodes, methods)
        self.classes[node.name] = {
            "name": node.name,
            "line": node.lineno,
            "bases": bases,
            "is_dataclass": is_dataclass,
            "fields": fields,
            "field_defaults": field_defaults,
            "epoch_properties": epoch_properties,
            "methods": methods,
        }

    # -- SAN012 flow facts ----------------------------------------------

    def _mutation_desc(self, stmt: ast.stmt) -> list[tuple[str, str]]:
        """``(attr, description)`` pairs for self-state mutations in stmt."""
        out: list[tuple[str, str]] = []
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            base = target
            sub = False
            if isinstance(base, ast.Subscript):
                base, sub = base.value, True
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and not _is_epoch_attr(base.attr)
            ):
                verb = "writes" if not isinstance(stmt, ast.Delete) else "deletes from"
                what = f"self.{base.attr}[...]" if sub else f"self.{base.attr}"
                out.append((base.attr, f"{verb} `{what}`"))
        # In-place container mutation: self.<attr>.pop(...) etc.
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"
                and not _is_epoch_attr(func.value.attr)
            ):
                out.append(
                    (
                        func.value.attr,
                        f"mutates `self.{func.value.attr}` via `.{func.attr}()`",
                    )
                )
        return out

    @staticmethod
    def _stmt_bumps(stmt: ast.stmt, bump_methods: set[str]) -> bool:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.AugAssign, ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and _is_epoch_attr(target.attr)
                    ):
                        return True
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and (func.attr == "_bump_epoch" or func.attr in bump_methods)
                ):
                    return True
        return False

    def _epoch_flow(
        self,
        node: ast.ClassDef,
        method_nodes: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
        methods: dict[str, Summary],
    ) -> None:
        """Per-method mutation/bump facts with the in-class bump fixpoint.

        A method counts as a *bump* for its siblings when every one of its
        returning paths bumps the epoch — so ``remove_node`` calling
        ``disconnect`` is credited, and the fixpoint converges because the
        bump set only grows.
        """
        cfgs = {name: build_cfg(m) for name, m in method_nodes.items()}
        bump_methods: set[str] = set()
        while True:
            new_bumps = {
                name
                for name, cfg in cfgs.items()
                if name not in bump_methods
                and all_paths_hit(
                    cfg,
                    cfg.nodes_matching(
                        lambda s: self._stmt_bumps(s, bump_methods)
                    ),
                )
                and cfg.nodes_matching(
                    lambda s: self._stmt_bumps(s, bump_methods)
                )
            }
            if not new_bumps:
                break
            bump_methods |= new_bumps
        for name, m in method_nodes.items():
            cfg = cfgs[name]
            impurities = _layer_impurities(m)
            mutation_nodes: dict[int, list[tuple[str, str]]] = {}
            for n, stmt in cfg.stmts.items():
                found = self._mutation_desc(stmt)
                if found:
                    mutation_nodes[n] = found
            guards = cfg.nodes_matching(lambda s: self._stmt_bumps(s, bump_methods))
            unguarded = unguarded_path_nodes(cfg, set(mutation_nodes), guards)
            facts: list[Summary] = []
            if name not in EPOCH_EXEMPT_METHODS:
                for n in sorted(unguarded):
                    stmt = cfg.stmts[n]
                    for attr, desc in mutation_nodes[n]:
                        facts.append(
                            {
                                "line": stmt.lineno,
                                "col": stmt.col_offset,
                                "attr": attr,
                                "desc": desc,
                            }
                        )
            methods[name] = {
                "line": m.lineno,
                "mutates": bool(mutation_nodes),
                "always_bumps": name in bump_methods,
                "unbumped_mutations": facts,
                "impurities": impurities,
            }


def _annotation_receivers(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameter names annotated as Network/FaultModel."""
    names: set[str] = set()
    args = fn.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        ann = a.annotation
        if ann is None:
            continue
        dotted = _dotted(ann) or (
            ann.value if isinstance(ann, ast.Constant) and isinstance(ann.value, str) else ""
        )
        if dotted and str(dotted).split(".")[-1].strip('"') in NETFAULT_TYPES:
            names.add(a.arg)
    return names


def _layer_impurities(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[Summary]:
    """SAN014 raw facts: direct Network/FaultModel state mutation in a method.

    Recorded for every method of every class; the project pass keeps only
    those belonging to ProbeLayer descendants.
    """
    receivers = NETFAULT_NAMES | _annotation_receivers(fn)

    def is_netfault(node: ast.expr) -> bool:
        name = _receiver_name(node)
        return name is not None and name in receivers

    out: list[Summary] = []

    def flag(node: ast.AST, desc: str) -> None:
        out.append(
            {
                "line": getattr(node, "lineno", fn.lineno),
                "col": getattr(node, "col_offset", 0),
                "desc": desc,
            }
        )

    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = (
                node.targets
                if isinstance(node, (ast.Assign, ast.Delete))
                else [node.target]
            )
            for target in targets:
                base = target
                if isinstance(base, ast.Subscript):
                    base = base.value
                if isinstance(base, ast.Attribute) and is_netfault(base.value):
                    flag(node, f"direct write to `{ast.unparse(target)}`")
        elif isinstance(node, ast.Call):
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            # private API call on a net/fault receiver: net._anything(...)
            if (
                func.attr.startswith("_")
                and not func.attr.startswith("__")
                and is_netfault(func.value)
            ):
                flag(node, f"private call `{ast.unparse(func)}()`")
            # in-place container mutation: faults.dead_wires.add(...)
            elif (
                func.attr in MUTATING_METHODS
                and isinstance(func.value, ast.Attribute)
                and is_netfault(func.value.value)
            ):
                flag(node, f"in-place mutation `{ast.unparse(func)}()`")
    return out


class _FunctionEnv:
    """Expression-taint classification in one function's scope."""

    def __init__(
        self,
        summarizer: _ModuleSummarizer,
        fn: ast.FunctionDef | ast.AsyncFunctionDef | None,
        cls: str | None,
    ) -> None:
        self.s = summarizer
        self.fn = fn
        self.cls = cls
        self.params: set[str] = set()
        self.locals: dict[str, list[ast.expr]] = {}
        if fn is not None:
            args = fn.args
            self.params = {
                a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            }
            self.params.discard("self")
            self.params.discard("cls")
            if args.vararg:
                self.params.add(args.vararg.arg)
            if args.kwarg:
                self.params.add(args.kwarg.arg)
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.locals.setdefault(target.id, []).append(node.value)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    if isinstance(node.target, ast.Name) and getattr(node, "value", None):
                        self.locals.setdefault(node.target.id, []).append(node.value)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if isinstance(node.target, ast.Name):
                        self.locals.setdefault(node.target.id, []).append(node.iter)
                elif isinstance(node, ast.NamedExpr):
                    if isinstance(node.target, ast.Name):
                        self.locals.setdefault(node.target.id, []).append(node.value)

    @property
    def _fn_qual(self) -> str:
        assert self.fn is not None
        return self.s._qual(self.fn.name, self.cls)

    def classify(self, expr: ast.expr, _depth: int = 0, _names: frozenset = frozenset()) -> Term:
        if _depth > 12:
            return _bad("expression too deep to trace")
        classify = self.classify
        if isinstance(expr, ast.Constant):
            if expr.value is None:
                return _bad("`None` seeds from OS entropy")
            return _const()
        if isinstance(expr, ast.Name):
            name = expr.id
            if _seedlike(name):
                return _seed()
            if name in _names:
                return _seed()  # self-referential rebinding: judged elsewhere
            if self.fn is not None and name in self.params:
                return _param(self._fn_qual, name)
            values = self.locals.get(name) or self.s._module_assigns.get(name)
            if values:
                return _join(
                    [classify(v, _depth + 1, _names | {name}) for v in values]
                )
            return _bad(f"cannot trace `{name}` to a seed")
        if isinstance(expr, ast.Attribute):
            if _seedlike(expr.attr):
                return _seed()
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                return self._classify_self_attr(expr.attr, _depth, _names)
            return _bad(f"cannot trace `{ast.unparse(expr)}` to a seed")
        if isinstance(expr, ast.BinOp):
            return _join(
                [classify(expr.left, _depth + 1, _names), classify(expr.right, _depth + 1, _names)]
            )
        if isinstance(expr, ast.UnaryOp):
            return classify(expr.operand, _depth + 1, _names)
        if isinstance(expr, ast.BoolOp):
            return _join([classify(v, _depth + 1, _names) for v in expr.values])
        if isinstance(expr, ast.IfExp):
            return _join(
                [classify(expr.body, _depth + 1, _names), classify(expr.orelse, _depth + 1, _names)]
            )
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return _join([classify(e, _depth + 1, _names) for e in expr.elts])
        if isinstance(expr, ast.Subscript):
            return classify(expr.value, _depth + 1, _names)
        if isinstance(expr, ast.Call):
            return self._classify_call(expr, _depth, _names)
        if isinstance(expr, ast.JoinedStr):
            parts = [
                classify(v.value, _depth + 1, _names)
                for v in expr.values
                if isinstance(v, ast.FormattedValue)
            ]
            return _join(parts) if parts else _const()
        return _bad(f"untraceable seed expression `{ast.unparse(expr)[:60]}`")

    def _classify_self_attr(self, attr: str, depth: int, names: frozenset) -> Term:
        cls_node = self.s._class_nodes.get(self.cls or "")
        if cls_node is None:
            return _bad(f"cannot trace `self.{attr}` to a seed")
        # A dataclass field is a constructor parameter in disguise.
        is_dataclass = any(
            (_dotted(d) or "").split(".")[-1] == "dataclass"
            for d in cls_node.decorator_list
        )
        for stmt in cls_node.body:
            if (
                is_dataclass
                and isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == attr
            ):
                return _param(f"{self.s.module}:{cls_node.name}.__init__", attr)
        # Otherwise trace assignments in __init__/__post_init__.
        terms: list[Term] = []
        for stmt in cls_node.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name in _INIT_METHODS
            ):
                init_env = _FunctionEnv(self.s, stmt, cls_node.name)
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Assign):
                        for target in node.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                                and target.attr == attr
                            ):
                                terms.append(
                                    init_env.classify(node.value, depth + 1, names)
                                )
        if terms:
            return _join(terms)
        return _bad(f"cannot trace `self.{attr}` to a seed")

    def _classify_call(self, call: ast.Call, depth: int, names: frozenset) -> Term:
        dotted = _dotted(call.func)
        if dotted is None:
            return _bad("untraceable callable in seed expression")
        parts = dotted.split(".")
        root, leaf = parts[0], parts[-1]
        if root in _BAD_SEED_ROOTS or leaf in _BAD_SEED_CALLS:
            return _bad(f"`{dotted}()` is not a replayable seed source")
        arg_terms = [self.classify(a, depth + 1, names) for a in call.args]
        kw_terms = {
            kw.arg: self.classify(kw.value, depth + 1, names)
            for kw in call.keywords
            if kw.arg is not None
        }
        if leaf in _COMBINE_CALLS:
            return _join(arg_terms + list(kw_terms.values())) if (
                arg_terms or kw_terms
            ) else _const()
        return {
            "k": "x",
            "f": dotted,
            "m": self.s.module,
            "c": self.cls,
            "a": arg_terms,
            "kw": kw_terms,
            "line": call.lineno,
        }


def summarize_module(module: str, path: str, tree: ast.Module) -> Summary:
    """Distill one parsed module into its JSON-ready sanflow summary."""
    return _ModuleSummarizer(module, str(path), tree).run()


# ---------------------------------------------------------------------------
# the whole-program view
# ---------------------------------------------------------------------------


class TaintVerdict:
    """Outcome of tracing one RNG seed argument through the call graph."""

    __slots__ = ("ok", "why")

    def __init__(self, ok: bool, why: str = "") -> None:
        self.ok = ok
        self.why = why


class Project:
    """Symbol table, import graph, class ancestry, and call-graph queries."""

    def __init__(self, summaries: Iterable[Summary]) -> None:
        self.modules: dict[str, Summary] = {s["module"]: s for s in summaries}
        self._call_index: dict[str, list[Summary]] | None = None
        self._ancestry_cache: dict[tuple[str, str], list[tuple[str, str]]] = {}

    # -- symbol resolution ----------------------------------------------

    def _split_symbol(self, full: str) -> tuple[str, str] | None:
        """Split a fully-dotted path into (known module, symbol path)."""
        parts = full.split(".")
        for i in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:i])
            if mod in self.modules:
                return mod, ".".join(parts[i:])
        return None

    def resolve(
        self, module: str, dotted: str, cls: str | None = None
    ) -> tuple[str, str, str] | None:
        """Resolve a dotted name to ``(kind, module, symbol)``.

        ``kind`` is ``"class"`` or ``"func"``; method symbols come back as
        ``"Class.method"``. Returns None for names outside the project.
        """
        summary = self.modules.get(module)
        if summary is None:
            return None
        parts = dotted.split(".")
        if parts[0] == "self" and cls is not None:
            if len(parts) == 2:
                return self._resolve_method(module, cls, parts[1])
            return None
        imports: dict[str, str] = summary["imports"]
        if parts[0] in imports:
            full = ".".join([imports[parts[0]], *parts[1:]])
        elif parts[0] in summary["classes"] or parts[0] in summary["functions"]:
            full = f"{module}.{dotted}"
        else:
            full = dotted
        split = self._split_symbol(full)
        if split is None:
            return None
        mod, symbol = split
        target = self.modules[mod]
        head = symbol.split(".")[0]
        # Re-exported names (e.g. package __init__) resolve one more hop.
        if head in target["imports"] and head not in target["classes"]:
            return self.resolve(mod, symbol)
        if head in target["classes"]:
            if "." in symbol:
                _, meth = symbol.split(".", 1)
                return self._resolve_method(mod, head, meth)
            return ("class", mod, head)
        if symbol in target["functions"]:
            return ("func", mod, symbol)
        return None

    def _resolve_method(
        self, module: str, cls: str, method: str
    ) -> tuple[str, str, str] | None:
        for mod, cname in self.ancestry(module, cls):
            target = self.modules.get(mod)
            if target is None:
                continue
            if f"{cname}.{method}" in target["functions"]:
                return ("func", mod, f"{cname}.{method}")
        return None

    def function(self, module: str, symbol: str) -> Summary | None:
        target = self.modules.get(module)
        if target is None:
            return None
        return target["functions"].get(symbol)

    def function_by_qualname(self, qualname: str) -> Summary | None:
        if ":" not in qualname:
            return None
        module, symbol = qualname.split(":", 1)
        return self.function(module, symbol)

    # -- class ancestry --------------------------------------------------

    def ancestry(self, module: str, cls: str) -> list[tuple[str, str]]:
        """The class plus every resolvable ancestor, as (module, name).

        Unresolvable bases (outside the analyzed file set) appear as
        ``("<external>", dotted_name)`` so heuristics can still key off
        well-known root names.
        """
        key = (module, cls)
        cached = self._ancestry_cache.get(key)
        if cached is not None:
            return cached
        out: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()
        queue: list[tuple[str, str]] = [(module, cls)]
        while queue:
            mod, name = queue.pop(0)
            if (mod, name) in seen:
                continue
            seen.add((mod, name))
            out.append((mod, name))
            summary = self.modules.get(mod)
            if summary is None:
                continue
            info = summary["classes"].get(name)
            if info is None:
                continue
            for base in info["bases"]:
                resolved = self.resolve(mod, base)
                if resolved is not None and resolved[0] == "class":
                    queue.append((resolved[1], resolved[2]))
                else:
                    # Keep the *resolved import target* when we know it, so
                    # `from repro.simulator.stack import ProbeLayer` is
                    # recognizable even without the stack module on disk.
                    target = summary["imports"].get(base.split(".")[0])
                    dotted = (
                        ".".join([target, *base.split(".")[1:]]) if target else base
                    )
                    out.append(("<external>", dotted))
        self._ancestry_cache[key] = out
        return out

    def epoch_properties_of(self, module: str, cls: str) -> list[str]:
        """Epoch properties exposed by the class or any ancestor."""
        props: list[str] = []
        for mod, name in self.ancestry(module, cls):
            summary = self.modules.get(mod)
            if summary is None:
                continue
            info = summary["classes"].get(name)
            if info is not None:
                props.extend(p for p in info["epoch_properties"] if p not in props)
        return props

    def is_probe_layer(self, module: str, cls: str) -> bool:
        for mod, name in self.ancestry(module, cls):
            leaf = name.split(".")[-1]
            if leaf in LAYER_ROOT_CLASSES and (
                mod == LAYER_ROOT_MODULE
                or mod == "<external>"
                and (name == leaf or name.startswith(LAYER_ROOT_MODULE))
                or leaf == "ProbeLayer"
            ):
                if (mod, name) != (module, cls):
                    return True
        return False

    # -- call graph -------------------------------------------------------

    def _constructor_key(self, module: str, cls: str) -> tuple[str, Summary] | None:
        """The ``__init__`` binding target of a class, walking ancestry."""
        for mod, name in self.ancestry(module, cls):
            summary = self.modules.get(mod)
            if summary is None:
                continue
            info = summary["classes"].get(name)
            if info is None:
                continue
            init = summary["functions"].get(f"{name}.__init__")
            if init is not None:
                return f"{mod}:{name}.__init__", init
            if info["is_dataclass"]:
                synthetic = {
                    "qualname": f"{mod}:{name}.__init__",
                    "cls": name,
                    "params": info["fields"],
                    "defaults": info["field_defaults"],
                    "return_taint": _bad("constructor"),
                }
                return f"{mod}:{name}.__init__", synthetic
        return None

    def call_index(self) -> dict[str, list[Summary]]:
        """Resolved callee qualname → recorded call sites."""
        if self._call_index is not None:
            return self._call_index
        index: dict[str, list[Summary]] = {}
        self._synthetic_inits: dict[str, Summary] = {}
        for summary in self.modules.values():
            module = summary["module"]
            for site in summary["call_sites"]:
                resolved = self.resolve(module, site["callee"], site.get("cls"))
                if resolved is None:
                    continue
                kind, mod, symbol = resolved
                if kind == "class":
                    ctor = self._constructor_key(mod, symbol)
                    if ctor is None:
                        continue
                    key, fn_summary = ctor
                    self._synthetic_inits.setdefault(key, fn_summary)
                else:
                    key = f"{mod}:{symbol}"
                index.setdefault(key, []).append(site)
        self._call_index = index
        return index

    def _callable_summary(self, qualname: str) -> Summary | None:
        found = self.function_by_qualname(qualname)
        if found is not None:
            return found
        self.call_index()
        return self._synthetic_inits.get(qualname)

    # -- taint evaluation -------------------------------------------------

    def evaluate_taint(self, term: Term) -> TaintVerdict:
        """Judge a taint term: does it provably derive from an explicit seed?"""
        return self._eval(term, {}, (), 0)

    def _eval(
        self,
        term: Term,
        bindings: dict[tuple[str, str], Term],
        stack: tuple[tuple[str, str], ...],
        depth: int,
    ) -> TaintVerdict:
        if depth > _MAX_TAINT_DEPTH:
            return TaintVerdict(False, "seed trace exceeded depth limit")
        kind = term["k"]
        if kind in ("s", "c"):
            return TaintVerdict(True)
        if kind == "b":
            return TaintVerdict(False, term["why"])
        if kind == "j":
            for sub in term["ts"]:
                verdict = self._eval(sub, bindings, stack, depth + 1)
                if not verdict.ok:
                    return verdict
            return TaintVerdict(True)
        if kind == "p":
            return self._eval_param(term, bindings, stack, depth)
        if kind == "x":
            return self._eval_call(term, bindings, stack, depth)
        return TaintVerdict(False, f"unknown taint term {kind!r}")

    def _eval_param(
        self,
        term: Term,
        bindings: dict[tuple[str, str], Term],
        stack: tuple[tuple[str, str], ...],
        depth: int,
    ) -> TaintVerdict:
        fn, name = term["fn"], term["n"]
        key = (fn, name)
        if key in bindings:
            return self._eval(bindings[key], bindings, stack, depth + 1)
        if key in stack:
            return TaintVerdict(True)  # recursive derivation: judged at entry
        fn_summary = self._callable_summary(fn)
        if fn_summary is None:
            return TaintVerdict(False, f"unknown function `{fn}` in seed trace")
        sites = self.call_index().get(fn, [])
        if not sites:
            return TaintVerdict(
                False,
                f"no call sites found to prove parameter `{name}` of `{fn}` "
                "is a seed",
            )
        params: list[str] = fn_summary["params"]
        for site in sites:
            bound = self._bind_site(site, params, name, fn_summary)
            if bound is None:
                continue  # a splat may carry it; don't guess (cf. SAN010)
            verdict = self._eval(bound, bindings, (*stack, key), depth + 1)
            if not verdict.ok:
                where = f"{site['callee']}(...) at line {site['line']}"
                return TaintVerdict(
                    False, f"call site {where} passes a non-seed for `{name}`: "
                    f"{verdict.why}"
                )
        return TaintVerdict(True)

    @staticmethod
    def _bind_site(
        site: Summary, params: list[str], name: str, fn_summary: Summary
    ) -> Term | None:
        if name in site["kwargs"]:
            return site["kwargs"][name]
        if name in params:
            idx = params.index(name)
            if idx < len(site["args"]):
                return site["args"][idx]
        default = fn_summary.get("defaults", {}).get(name)
        if default is not None:
            return default
        if site.get("splat"):
            return None
        return _bad(f"parameter `{name}` not bound at this call site")

    def _eval_call(
        self,
        term: Term,
        bindings: dict[tuple[str, str], Term],
        stack: tuple[tuple[str, str], ...],
        depth: int,
    ) -> TaintVerdict:
        resolved = self.resolve(term["m"], term["f"], term.get("c"))
        if resolved is None:
            if _seedlike(term["f"].split(".")[-1]):
                # An unresolvable helper *named* like a seed derivation:
                # accept when all its inputs are seed-derived.
                inputs = [*term["a"], *term["kw"].values()]
                return self._eval(_join(inputs) if inputs else _seed(), bindings, stack, depth + 1)
            return TaintVerdict(
                False, f"cannot resolve call `{term['f']}()` in seed trace"
            )
        kind, mod, symbol = resolved
        if kind == "class":
            return TaintVerdict(
                False, f"`{term['f']}(...)` constructs an object, not a seed"
            )
        fn_summary = self.function(mod, symbol)
        if fn_summary is None:
            return TaintVerdict(False, f"unknown function `{term['f']}`")
        qual = f"{mod}:{symbol}"
        params: list[str] = fn_summary["params"]
        new_bindings = dict(bindings)
        for i, arg in enumerate(term["a"]):
            if i < len(params):
                new_bindings[(qual, params[i])] = arg
        for kw_name, arg in term["kw"].items():
            new_bindings[(qual, kw_name)] = arg
        verdict = self._eval(
            fn_summary["return_taint"], new_bindings, stack, depth + 1
        )
        if not verdict.ok:
            return TaintVerdict(
                False, f"via `{term['f']}()`: {verdict.why}"
            )
        return verdict

    # -- iteration helpers for the rules ---------------------------------

    def iter_classes(self) -> Iterator[tuple[Summary, Summary]]:
        """(module summary, class summary) pairs across the project."""
        for summary in self.modules.values():
            for info in summary["classes"].values():
                yield summary, info

    def iter_rng_sites(self) -> Iterator[tuple[Summary, Summary]]:
        for summary in self.modules.values():
            for site in summary["rng_sites"]:
                yield summary, site
