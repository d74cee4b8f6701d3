"""In-memory spans around the calls into each layer, recorded from outside.

Nothing under ``src/`` knows it is being traced. :meth:`Tracer.instrumented`
temporarily rebinds the public functions the two remap pipelines call
(``RemapperDaemon.run_cycle`` and ``service.workers.run_map_job``) to
wrappers that open a span, so the ledger always times what the product
really calls: a pipeline that stops calling a function loses that row to
``*_other_ms`` instead of the benchmark silently timing dead code.

Probe entry points are far too hot for a span each (tens of thousands per
cycle); the probe service is replaced by an attribute-forwarding stand-in
that only accumulates calls and busy time per method.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Span name -> the public callables it covers, as (module, attribute) or
#: (module, class, attribute). Span names are ``<layer>.<what>`` with
#: layer = the package under ``src/repro``.
TARGETS: dict[str, tuple[tuple[str, ...], ...]] = {
    "topology.search_depth": (("repro.topology.analysis", "recommended_search_depth"),),
    "topology.diff": (("repro.topology.diff", "diff_networks"),),
    "topology.match": (("repro.topology.isomorphism", "match_networks"),),
    "topology.effective": (
        ("repro.chaos.oracles", "effective_network"),
        ("repro.topology.analysis", "core_network"),
    ),
    "topology.to_dict": (("repro.topology.serialize", "network_to_dict"),),
    "topology.from_dict": (("repro.topology.serialize", "network_from_dict"),),
    "topology.affected_since": (("repro.topology.model", "Network", "affected_since"),),
    "simulator.stack_build": (("repro.simulator.stack", "build_service_stack"),),
    "routing.orient": (("repro.routing.updown", "orient_updown"),),
    "routing.phase_graph": (("repro.routing.paths", "build_phase_graph"),),
    "routing.paths": (("repro.routing.paths", "all_pairs_updown_paths"),),
    "routing.compile": (("repro.routing.compile_routes", "compile_route_tables"),),
    "routing.deadlock": (("repro.routing.deadlock", "routes_deadlock_free"),),
    "routing.distribute": (("repro.routing.incremental", "distribute_incremental"),),
    "service.payload": (("repro.service.tenant", "TenantState", "job_payload"),),
    "service.adopt": (("repro.service.tenant", "TenantState", "adopt"),),
    "service.seed_decode": (("repro.service.serialize", "map_result_from_dict"),),
    "service.result_encode": (
        ("repro.service.serialize", "map_result_to_dict"),
        ("repro.service.serialize", "route_tables_to_dict"),
    ),
    "service.tables_decode": (("repro.service.serialize", "route_tables_from_dict"),),
}

#: Probe-service methods whose calls and busy time are accumulated.
SERVICE_METHODS = {
    "probe_host": "simulator.probe",
    "probe_switch": "simulator.probe",
    "warm_siblings": "simulator.warm",
    "warm_prefix": "simulator.warm",
    "route_crosses": "simulator.crosses",
}


class Forwarder:
    """Stand-in that forwards every attribute to ``target``.

    Methods named in ``wrappers`` are returned wrapped (and cached, so the
    hot path pays one plain attribute hit); everything else — properties,
    counters, optional capabilities probed with ``getattr`` — is read from
    the target on every access.
    """

    def __init__(
        self, target: object, wrappers: dict[str, Callable[[Callable], Callable]]
    ) -> None:
        self.__dict__["_target"] = target
        self.__dict__["_wrappers"] = wrappers

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._target, name)
        wrap = self._wrappers.get(name)
        if wrap is None:
            return value
        wrapped = self.__dict__[name] = wrap(value)
        return wrapped


class Tracer:
    """Spans (name, start, end, parent, cycle id) plus busy-time counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[dict] = []
        self.cycle: int | None = None
        self._open: list[int] = []
        #: counter name -> [calls, busy seconds]
        self.busy: dict[str, list] = {}
        #: what the instrumented cycle built, until harvest() reads it
        self._services: list = []
        self._map_results: list = []
        self._profilers: list = []
        #: sums of the built objects' own counters, by counter name
        self.totals: dict[str, float] = defaultdict(float)
        #: served job payloads, kept for the in-process replay
        self.payloads: list = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "name": name,
            "start": self.clock(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "cycle": self.cycle,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._open.pop()

    def spanned(self, name: str, fn: Callable, keep: list | None = None) -> Callable:
        """``fn`` run inside a span; results are appended to ``keep``."""

        def call(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep is not None:
                keep.append(result)
            return result

        return call

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with calls and busy time added to ``busy[name]``."""
        slot = self.busy.setdefault(name, [0, 0.0])
        clock = self.clock

        def call(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += clock() - start

        return call

    # ------------------------------------------------------------------
    def _traced_service(self, build: Callable) -> Callable:
        def call(*args: Any, **kwargs: Any) -> Forwarder:
            with self.span("simulator.stack_build"):
                service = build(*args, **kwargs)
            self._services.append(service)
            return Forwarder(
                service,
                {
                    method: (lambda fn, name=name: self.counted(name, fn))
                    for method, name in SERVICE_METHODS.items()
                },
            )

        return call

    def _traced_mapper_spec(self, spec: Any) -> Any:
        """The registry spec with a factory that times map()/seed_with()
        and hands the mapper the public PhaseProfiler on our clock."""
        from repro.core.instrumentation import PhaseProfiler

        def factory(service: object, **kwargs: Any) -> Forwarder:
            profiler = PhaseProfiler(self.clock)
            self._profilers.append(profiler)
            mapper = spec.factory(service, profiler=profiler, **kwargs)
            return Forwarder(
                mapper,
                {
                    "map": lambda fn: self.spanned("core.map", fn, self._map_results),
                    "seed_with": lambda fn: self.spanned("core.seed_with", fn),
                },
            )

        # accepted_kwargs() filters driver defaults by the factory's
        # signature; keep presenting the real one.
        factory.__signature__ = inspect.signature(spec.factory)  # type: ignore[attr-defined]
        return dataclasses.replace(spec, factory=factory)

    @contextmanager
    def instrumented(self) -> Iterator[None]:
        """Rebind every target to its span wrapper; restore on exit."""
        from repro.core.mapper_protocol import MAPPER_REGISTRY, get_mapper_spec

        undo: list[tuple[object, str, object]] = []

        def rebind(owner: object, attr: str, value: object) -> None:
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for name, targets in TARGETS.items():
            for module_name, *path in targets:
                owner: Any = importlib.import_module(module_name)
                if len(path) == 2:
                    owner = getattr(owner, path[0], None)
                original = getattr(owner, path[-1], None)
                if original is None:
                    continue  # the product no longer has it: row reads 0
                if name == "simulator.stack_build":
                    wrapper = self._traced_service(original)
                elif name == "service.payload":
                    wrapper = self.spanned(name, original, self.payloads)
                else:
                    wrapper = self.spanned(name, original)
                if inspect.isclass(owner):
                    rebind(owner, path[-1], wrapper)
                    continue
                # Consumers bound the function with ``from x import f``:
                # rebind it in every repro module that holds it.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro"):
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                rebind(module, attr, wrapper)
        berkeley = get_mapper_spec("berkeley")
        MAPPER_REGISTRY["berkeley"] = self._traced_mapper_spec(berkeley)
        try:
            yield
        finally:
            MAPPER_REGISTRY["berkeley"] = berkeley
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    @contextmanager
    def traced(self, root: str, cycle: int) -> Iterator[None]:
        """One instrumented unit of work under a root span."""
        self.cycle = cycle
        with self.instrumented(), self.span(root):
            yield
        self.harvest()

    def harvest(self) -> None:
        """Fold the counters of what the last traced cycle built into
        ``totals`` and let the objects go: a retained probe service keeps
        its whole evaluation trie alive."""
        for service in self._services:
            cache = service.eval_cache_stats
            if cache is not None:
                for key in ("hits", "misses", "hinted", "nodes", "nodes_dropped"):
                    self.totals[f"cache_{key}"] += getattr(cache, key)
        for result in self._map_results:
            for key in ("explorations", "merges", "kept_nodes"):
                self.totals[key] += getattr(result, key)
        for profiler in self._profilers:
            for phase, (_calls, seconds) in profiler.snapshot().phases.items():
                self.totals[f"phase_{phase}_s"] += seconds
        self._services.clear()
        self._map_results.clear()
        self._profilers.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus what its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own
