"""The SAN rule set: domain invariants of the mapping reproduction.

Each rule enforces one assumption the paper's correctness argument rests
on (Sections 2-3) or one engineering discipline the simulator substrate
needs to stay deterministic and replayable. See ``docs/STATIC_ANALYSIS.md``
for the full rationale of every rule.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import ModuleInfo
from repro.analysis.registry import Rule, register

__all__ = [
    "NoWallClock",
    "NoUnseededRng",
    "NoFloatTimingEquality",
    "NoSilentBroadExcept",
    "ProbeConstructionViaService",
    "NoMutableDefaults",
    "ServiceEvaluatesViaCache",
    "NoAdHocServiceWrappers",
    "ProbeLayerPurity",
    "MappersViaRegistry",
]

#: Packages whose code runs under the simulated clock (SAN001).
SIMULATED_TIME_PACKAGES = ("repro.simulator", "repro.core")


def _terminal_name(node: ast.expr) -> str | None:
    """Last identifier of a Name/Attribute expression (``c`` for ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _call_name(node: ast.Call) -> str | None:
    """Terminal identifier of the called object (``Foo`` for ``a.b.Foo()``)."""
    return _terminal_name(node.func)


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


#: Methods whose presence marks a class as a ProbeService implementation.
_SERVICE_METHODS = frozenset({"probe_host", "probe_switch"})


def _class_is_service(cls: ast.ClassDef) -> bool:
    """Does this class implement (or inherit) the ProbeService protocol?"""
    for stmt in cls.body:
        if (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name in _SERVICE_METHODS
        ):
            return True
    # Subclasses of a *ProbeService base inherit the protocol methods.
    return any(
        (base_name := _dotted(base)) is not None
        and base_name.split(".")[-1].endswith("ProbeService")
        for base in cls.bases
    )


@register
class NoWallClock(Rule):
    rule_id = "SAN001"
    title = "no wall-clock reads in simulator/core hot paths"
    rationale = (
        "Mapping time is *simulated* time: the probe service's accumulated "
        "cost defines `now`. A wall-clock read in repro.simulator or "
        "repro.core couples results to host speed and destroys "
        "byte-for-byte replayability of Figure 7/9 runs."
    )
    hint = (
        "use the simulated clock (ProbeStats.elapsed_us) instead of the "
        "host's wall clock"
    )

    _TIME_FNS = frozenset(
        {
            "time",
            "monotonic",
            "perf_counter",
            "process_time",
            "time_ns",
            "monotonic_ns",
            "perf_counter_ns",
            "process_time_ns",
        }
    )
    _DATETIME_FNS = frozenset({"now", "utcnow", "today"})

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        if not module.in_package(*SIMULATED_TIME_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._TIME_FNS:
                        yield self.diag(
                            module,
                            node,
                            f"wall-clock import `from time import {alias.name}` "
                            "in simulated-time code",
                        )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if parts[0] == "time" and parts[-1] in self._TIME_FNS:
                    yield self.diag(
                        module, node, f"wall-clock call `{dotted}()` in simulated-time code"
                    )
                elif (
                    len(parts) >= 2
                    and parts[-2] == "datetime"
                    and parts[-1] in self._DATETIME_FNS
                ):
                    yield self.diag(
                        module, node, f"wall-clock call `{dotted}()` in simulated-time code"
                    )


@register
class NoUnseededRng(Rule):
    rule_id = "SAN002"
    title = "no unseeded randomness"
    rationale = (
        "Every stochastic path (jitter, daemon placement, fault injection, "
        "randomized probing) must be replayable from a seed. The global "
        "`random` module and the legacy `np.random.*` functions share hidden "
        "process-wide state, and `random.Random()` / `default_rng()` with no "
        "argument seed from OS entropy; one call silently breaks replay."
    )
    hint = (
        "construct an explicit `random.Random(seed)` (or "
        "`numpy.random.default_rng(seed)`) and thread it through the call site"
    )

    _ALLOWED_RANDOM = frozenset({"Random", "SystemRandom", "getstate"})
    _ALLOWED_NP = frozenset({"default_rng", "Generator", "SeedSequence", "BitGenerator"})
    _SEEDABLE_CTORS = frozenset({"Random", "default_rng"})

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        numpy_aliases = {"numpy"}
        imports_random = False
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "random":
                        imports_random = True
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in self._ALLOWED_RANDOM:
                            yield self.diag(
                                module,
                                node,
                                f"`from random import {alias.name}` uses the "
                                "shared global RNG state",
                            )
                elif node.module in ("numpy.random", "numpy"):
                    for alias in node.names:
                        if node.module == "numpy.random" and alias.name not in self._ALLOWED_NP:
                            yield self.diag(
                                module,
                                node,
                                f"`from numpy.random import {alias.name}` uses "
                                "the legacy global numpy RNG",
                            )
            elif (
                isinstance(node, ast.Call)
                and _call_name(node) in self._SEEDABLE_CTORS
                and not node.args
                and not node.keywords
            ):
                yield self.diag(
                    module,
                    node,
                    f"`{ast.unparse(node)}` has no seed argument: it falls "
                    "back on OS entropy",
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                value = node.value
                if (
                    imports_random
                    and isinstance(value, ast.Name)
                    and value.id == "random"
                    and node.attr not in self._ALLOWED_RANDOM
                ):
                    yield self.diag(
                        module,
                        node,
                        f"`random.{node.attr}` draws from the unseeded global RNG",
                    )
                elif (
                    isinstance(value, ast.Attribute)
                    and value.attr == "random"
                    and isinstance(value.value, ast.Name)
                    and value.value.id in numpy_aliases
                    and node.attr not in self._ALLOWED_NP
                ):
                    yield self.diag(
                        module,
                        node,
                        f"`{value.value.id}.random.{node.attr}` uses the legacy "
                        "global numpy RNG",
                    )


#: Identifier fragments that mark a value as carrying simulated time.
_TIMING_TOKENS = frozenset(
    {
        "latency",
        "elapsed",
        "delay",
        "cost",
        "rtt",
        "timeout",
        "jitter",
        "duration",
        "us",
        "ms",
        "now",
        "wake",
    }
)


def _is_timing_name(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return False
    tokens = {t for t in name.lower().strip("_").split("_") if t}
    return bool(tokens & _TIMING_TOKENS)


@register
class NoFloatTimingEquality(Rule):
    rule_id = "SAN003"
    title = "no float ==/!= on latency or timing values"
    rationale = (
        "Probe costs and clocks are floats accumulated in different orders "
        "across runs and platforms; exact equality on them makes results "
        "depend on summation order, which determinism forbids relying on."
    )
    hint = (
        "compare timing floats with `math.isclose(...)` or an explicit "
        "epsilon/ordering check, never `==`/`!=`"
    )

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                pair = (left, right)
                if not any(_is_timing_name(side) for side in pair):
                    continue
                # Comparisons against None / strings / bools are identity or
                # category checks, not float comparisons.
                if any(
                    isinstance(side, ast.Constant)
                    and (side.value is None or isinstance(side.value, (str, bool)))
                    for side in pair
                ):
                    continue
                yield self.diag(
                    module,
                    node,
                    "exact float equality on a timing value "
                    f"(`{ast.unparse(left)} {'==' if isinstance(op, ast.Eq) else '!='} "
                    f"{ast.unparse(right)}`)",
                )


@register
class NoSilentBroadExcept(Rule):
    rule_id = "SAN006"
    title = "no bare/broad except that silently swallows"
    rationale = (
        "Under the paper's system model a deduction contradiction is a "
        "*signal* (MappingError), not noise. A swallowed broad exception "
        "turns model violations and probe corruption into silently wrong "
        "maps; every handler must be narrow, or re-raise, or record/log "
        "the exception it caught."
    )
    hint = (
        "catch the narrowest exception type that can actually occur, or "
        "re-raise / log / store the bound exception instead of discarding it"
    )

    _BROAD = frozenset({"Exception", "BaseException"})
    _LOGGERS = frozenset({"logging", "log", "logger", "warnings"})

    def _is_broad(self, type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True  # bare `except:`
        if isinstance(type_node, ast.Name):
            return type_node.id in self._BROAD
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_node.elts)
        return False

    def _handler_is_honest(self, handler: ast.ExceptHandler) -> bool:
        bound = handler.name
        for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
            if isinstance(node, ast.Raise):
                return True
            if bound and isinstance(node, ast.Name) and node.id == bound:
                return True
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted and dotted.split(".")[0] in self._LOGGERS:
                    return True
        return False

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if node.type is None:
                yield self.diag(module, node, "bare `except:` swallows everything")
            elif not self._handler_is_honest(node):
                caught = ast.unparse(node.type)
                yield self.diag(
                    module,
                    node,
                    f"broad `except {caught}` neither re-raises, logs, nor "
                    "uses the caught exception",
                )


@register
class ProbeConstructionViaService(Rule):
    rule_id = "SAN007"
    title = "probe records built only by ProbeService implementations"
    rationale = (
        "Mapping algorithms may observe the network *only* through the "
        "response function R exposed by ProbeService (Section 2.3). A "
        "mapper fabricating ProbeRecord objects is inventing observations "
        "— it breaks the in-band honesty of the reproduction and corrupts "
        "the Figure 6 probe accounting."
    )
    hint = (
        "call probe_host()/probe_switch() on a ProbeService and let the "
        "service record the probe; only service implementations construct "
        "ProbeRecord"
    )

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        if module.in_package("repro.simulator"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or _call_name(node) != "ProbeRecord":
                continue
            cls = module.enclosing_class(node)
            if cls is not None and _class_is_service(cls):
                continue
            yield self.diag(
                module,
                node,
                "ProbeRecord constructed outside a ProbeService implementation",
            )


@register
class NoMutableDefaults(Rule):
    rule_id = "SAN008"
    title = "no mutable default arguments"
    rationale = (
        "A mutable default is shared across every call of the function — "
        "state leaking between mapping runs is exactly the kind of hidden "
        "coupling that makes 'same seed, same result' false."
    )
    hint = (
        "default to None and create the list/dict/set inside the function "
        "body (or use dataclasses.field(default_factory=...))"
    )

    _FACTORY_CALLS = frozenset(
        {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node)
            return name in self._FACTORY_CALLS
        return False

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in [*args.defaults, *args.kw_defaults]:
                if default is not None and self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.diag(
                        module,
                        default,
                        f"mutable default argument in `{name}` "
                        f"(`{ast.unparse(default)}`)",
                    )


@register
class ServiceEvaluatesViaCache(Rule):
    rule_id = "SAN009"
    title = "probe services evaluate paths through the incremental cache"
    rationale = (
        "Probe services walk overlapping turn prefixes thousands of times "
        "per mapping run; the IncrementalPathEvaluator trie is the single "
        "evaluation authority that makes them O(1) per extension and keeps "
        "the cache counters honest. A direct evaluate_route() call inside a "
        "ProbeService silently bypasses the cache: the result is still "
        "correct, so nothing fails — the evaluation cost and the reported "
        "hit rate just quietly stop meaning anything."
    )
    hint = (
        "use IncrementalPathEvaluator (probe_info()/loopback_info()) or "
        "the service's _probe_info()/_loopback_info() helpers; the "
        "pure-walk oracle is a test-side subclass "
        "(tests/simulator/reference_service.py)"
    )

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        # No package exemption: the quiescent service itself has no
        # pure-walk arm left to exempt.
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or _call_name(node) != "evaluate_route":
                continue
            cls = module.enclosing_class(node)
            if cls is None or not _class_is_service(cls):
                continue
            yield self.diag(
                module,
                node,
                "direct evaluate_route() call inside a ProbeService "
                "implementation bypasses the evaluation cache",
            )


@register
class NoAdHocServiceWrappers(Rule):
    rule_id = "SAN011"
    title = "probe-service behavior composes as stack layers, not wrappers"
    rationale = (
        "Every probe walks one accounting path: the quiescent engine "
        "evaluates, applies the composed middleware layers, and counts it "
        "into the one ProbeStats. A class outside the stack that "
        "re-implements one of the five probe kinds forks that "
        "path — its probes bypass the layers' counting, capping, chaos "
        "triggers and trace bus, and the five wrapper classes this rule "
        "replaced each drifted from the engine in exactly that way."
    )
    hint = (
        "subclass ProbeLayer (before/gate/after/retry_after_miss hooks) and "
        "compose it via build_service_stack(layers=...); a new probe *kind* "
        "is a method on QuiescentProbeService routed through _transact()"
    )

    #: The probe entry points owned by the stacked engine, one per kind.
    _CANONICAL = frozenset(
        {
            "probe_host",
            "probe_switch",
            "probe_loopback",
            "probe_host_any",
            "probe_switch_id",
        }
    )

    #: The only modules allowed to define the canonical entry points.
    _STACK_MODULES = frozenset(
        {"repro.simulator.stack", "repro.simulator.quiescent"}
    )

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        if module.module in self._STACK_MODULES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            # The ProbeService Protocol *declares* the entry points; only
            # concrete implementations fork the accounting path.
            if any(
                (base := _dotted(b)) is not None
                and base.split(".")[-1] == "Protocol"
                for b in node.bases
            ):
                continue
            for stmt in node.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name in self._CANONICAL
                ):
                    yield self.diag(
                        module,
                        stmt,
                        f"`{node.name}.{stmt.name}` re-implements a canonical "
                        "probe entry point outside the service stack",
                    )


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


def _layer_impurities(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[tuple[ast.AST, str]]:
    """Direct Network/FaultModel state mutations in one method, as
    ``(offending node, description)`` pairs."""
    receivers = NETFAULT_NAMES | _annotation_receivers(fn)

    def is_netfault(node: ast.expr) -> bool:
        """Does the attribute hang off a Network/FaultModel receiver?"""
        return _terminal_name(node) in receivers

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
                    yield node, f"direct write to `{ast.unparse(target)}`"
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
                yield node, f"private call `{ast.unparse(func)}()`"
            # in-place container mutation: faults.__dict__.update(...)
            elif (
                func.attr in MUTATING_METHODS
                and isinstance(func.value, ast.Attribute)
                and is_netfault(func.value.value)
            ):
                yield node, f"in-place mutation `{ast.unparse(func)}()`"


@register
class ProbeLayerPurity(Rule):
    rule_id = "SAN014"
    title = "ProbeLayer hooks leave Network/FaultModel state alone"
    rationale = (
        "The middleware stack's equivalence proofs (stacked service ≡ "
        "bare service + accounting) assume layers observe probes but "
        "never perturb the substrate. A hook that writes Network or "
        "FaultModel state directly — bypassing the epoch-bumping "
        "mutators — invalidates both the proofs and every cached walk, "
        "without any epoch trace of the change. Chaos layers *may* "
        "inject faults, but only through the public mutators, which "
        "this rule still permits."
    )
    hint = (
        "call a public epoch-bumping mutator (`set_drop_prob`, "
        "`connect`, `disconnect`, ...) instead of touching simulator "
        "state from a layer hook"
    )

    @staticmethod
    def _class_is_layer(cls: ast.ClassDef) -> bool:
        """Every layer derives, by name, from a ``*Layer`` base."""
        return any(
            (base_name := _dotted(base)) is not None
            and base_name.split(".")[-1].endswith("Layer")
            for base in cls.bases
        )

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or not self._class_is_layer(node):
                continue
            for stmt in node.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for culprit, desc in _layer_impurities(stmt):
                    yield self.diag(
                        module,
                        culprit,
                        f"ProbeLayer hook `{node.name}.{stmt.name}` {desc} — "
                        "simulator state must change only through "
                        "epoch-bumping mutators",
                    )


@register
class MappersViaRegistry(Rule):
    rule_id = "SAN015"
    title = "mappers register in MAPPER_REGISTRY and are built by name"
    rationale = (
        "The Mapper protocol is only a seam if every algorithm is "
        "reachable through it: an unregistered mapper class cannot be "
        "raced by the tournament, driven by the remap daemon or named in "
        "a service payload, and a consumer layer that calls a concrete "
        "constructor silently re-couples itself to one algorithm — the "
        "exact duplication the registry replaced across the daemon, "
        "chaos runner, workers, CLI, experiments and benchmarks."
    )
    hint = (
        "decorate the class with @register_mapper(name, summary=...) and "
        "construct through create_mapper(name, ...) / "
        "map_cycle(mapper=name); direct constructor calls stay "
        "legal inside repro.core and in the module defining the class"
    )

    #: ``FooMapper`` — the naming convention every algorithm follows.
    _MAPPER_NAME = re.compile(r"^[A-Z]\w*Mapper$")

    #: Packages whose modules may construct mapper classes directly: the
    #: algorithm internals themselves (election, parallel drivers, the
    #: registry module). Tests are outside sanlint's scope already.
    _CONSTRUCTION_PACKAGES = ("repro.core",)

    def _is_mapper_class(self, cls: ast.ClassDef) -> bool:
        """A class that implements the protocol (or extends a mapper).

        ``map()`` is the protocol; a ``*Mapper`` base inherits it.
        """
        if not self._MAPPER_NAME.match(cls.name):
            return False
        if any(
            (base := _dotted(b)) is not None
            and base.split(".")[-1] == "Protocol"
            for b in cls.bases
        ):
            return False
        has_map = any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "map"
            for stmt in cls.body
        )
        extends_mapper = any(
            (base := _dotted(b)) is not None
            and self._MAPPER_NAME.match(base.split(".")[-1])
            for b in cls.bases
        )
        return has_map or extends_mapper

    @staticmethod
    def _is_registered(cls: ast.ClassDef) -> bool:
        for deco in cls.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = _dotted(target)
            if name is not None and name.split(".")[-1] == "register_mapper":
                return True
        return False

    def check(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        if module.module == "repro.core.mapper_protocol":
            return
        defined = {
            node.name
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        may_construct = module.in_package(*self._CONSTRUCTION_PACKAGES)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                if self._is_mapper_class(node) and not self._is_registered(node):
                    yield self.diag(
                        module,
                        node,
                        f"mapper class `{node.name}` is not decorated with "
                        "@register_mapper — it is invisible to the registry",
                    )
            elif isinstance(node, ast.Call) and not may_construct:
                name = _call_name(node)
                if (
                    name is not None
                    and self._MAPPER_NAME.match(name)
                    and name not in defined
                ):
                    yield self.diag(
                        module,
                        node,
                        f"direct `{name}(...)` construction outside "
                        "repro.core — build it by registry name instead",
                    )
