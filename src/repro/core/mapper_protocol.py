"""The public ``Mapper`` protocol and the mapper registry.

The paper's Berkeley algorithm is one point in a design space: the
Myricom ``map_once`` baseline (Section 5.1), the hypothetical
self-identifying-switch mapper (Section 5.2), the randomized
coupon-collecting variant (Section 6) and newer strategies (an
information-gain probe ordering, a spanning-tree-first mapper) all answer
the same question — *what is the network?* — with different probe
budgets. This module is the seam that lets every consumer layer (the
remapper daemon, the chaos runner, the map service workers, the CLI, the
experiments, the tournament harness) race them interchangeably:

* :class:`Mapper` — the structural protocol every algorithm satisfies:
  ``map() -> MapResult``, the theorem's ``N - F``, is every mapper's only
  entry point. What an experiment studies beyond the map (Myricom's probe
  breakdown, the coupon hits) is read off the mapper after ``map()``.
* :attr:`MapperSpec.capabilities` — the optional parts of the interface
  (``seed_with`` incremental seeding, ``profiler`` phase timing), derived
  from the registered factory itself, so a listing cannot claim what the
  class does not have.
* :data:`MAPPER_REGISTRY` — string-keyed specs. Construction goes
  through :func:`create_mapper`/:func:`resolve_mapper_factory` so the
  choice of algorithm is data (``mapper_factory="berkeley"``), not an
  import; sanlint's SAN015 keeps direct constructor calls out of the
  consumer layers.

Registration is lazy: looking up a name imports its defining module,
which registers the class via :func:`register_mapper` at import time.
That keeps ``import repro.core.mapper_protocol`` free of heavyweight
imports while still making every built-in algorithm reachable by name.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Protocol,
    runtime_checkable,
)

if TYPE_CHECKING:
    from repro.core.mapper import MapResult

__all__ = [
    "MAPPER_REGISTRY",
    "Mapper",
    "MapperSpec",
    "UnknownMapperError",
    "build_mapper_service",
    "create_mapper",
    "get_mapper_spec",
    "iter_mapper_specs",
    "mapper_names",
    "register_mapper",
    "resolve_mapper_factory",
]


@runtime_checkable
class Mapper(Protocol):
    """What every discovery algorithm looks like to a driver.

    ``map()`` probes the network through the service the mapper was
    constructed with and returns a :class:`~repro.core.mapper.MapResult`.
    Everything beyond that — seeding, profiling — is optional, and the
    registry spec's :attr:`~MapperSpec.capabilities` names what a
    factory has.
    """

    def map(self) -> "MapResult":
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class MapperSpec:
    """One registry entry: how to build a mapper and what it supports."""

    name: str
    factory: Callable[..., Mapper]
    summary: str
    #: Probe-service class this algorithm needs (or benefits from) —
    #: e.g. the self-id baseline needs ``SelfIdProbeService``. ``None``
    #: means the default quiescent core is enough.
    service_cls: type | None = None

    def create(
        self, service: object, *, search_depth: int, **kwargs: Any
    ) -> Mapper:
        """Construct the mapper against ``service``.

        Unknown keyword arguments raise ``TypeError`` exactly as the
        underlying constructor would — capabilities, not silent dropping,
        are how optional features are negotiated.
        """
        return self.factory(service, search_depth=search_depth, **kwargs)

    @property
    def capabilities(self) -> tuple[str, ...]:
        """The optional parts of the interface the factory has, in listing
        order: ``seed_with`` when it has that method (a prior-map seed
        installed before ``map()``, the incremental-remap fast path), and
        ``profiler`` when its constructor takes that keyword (per-phase
        wall-clock accumulated into the caller's ``PhaseProfiler``)."""
        has = {
            "seed_with": hasattr(self.factory, "seed_with"),
            "profiler": bool(self.accepted_kwargs({"profiler": None})),
        }
        return tuple(name for name, on in has.items() if on)

    def accepted_kwargs(self, candidates: dict[str, Any]) -> dict[str, Any]:
        """Filter ``candidates`` down to kwargs the factory accepts.

        Used by drivers that hold one set of defaults for every
        algorithm (e.g. the remapper daemon's ``max_explorations``):
        algorithms that understand an option get it, the rest are built
        without it. A ``**kwargs`` factory accepts everything.
        """
        try:
            params = inspect.signature(self.factory).parameters
        except (TypeError, ValueError):  # pragma: no cover - C callables
            return dict(candidates)
        if any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
        ):
            return dict(candidates)
        return {k: v for k, v in candidates.items() if k in params}


class UnknownMapperError(ValueError):
    """Lookup of a mapper name that is not in the registry."""

    def __init__(self, name: str) -> None:
        known = ", ".join(mapper_names())
        super().__init__(f"unknown mapper {name!r} (known: {known})")
        self.name = name


#: String key -> spec for every registered discovery algorithm.
MAPPER_REGISTRY: dict[str, MapperSpec] = {}

# name -> defining module; importing the module registers the spec.
_LAZY_MODULES: dict[str, str] = {
    "berkeley": "repro.core.mapper",
    "berkeley-infogain": "repro.core.infogain",
    "coupon": "repro.extensions.randomized",
    "myricom": "repro.baselines.myricom",
    "selfid": "repro.baselines.selfid",
    "spanning-tree": "repro.extensions.spanning_tree",
}


def register_mapper(
    name: str,
    *,
    summary: str,
    service_cls: type | None = None,
) -> Callable[[type], type]:
    """Class decorator: add a mapper class to :data:`MAPPER_REGISTRY`.

    The spec's capabilities are derived from the class, so a subclass has
    whatever its base has. The class gains a ``registry_name`` attribute
    for round-tripping.
    """

    def decorate(cls: type) -> type:
        existing = MAPPER_REGISTRY.get(name)
        if existing is not None and existing.factory is not cls:
            raise ValueError(f"mapper name {name!r} is already registered")
        MAPPER_REGISTRY[name] = MapperSpec(
            name=name,
            factory=cls,
            summary=summary,
            service_cls=service_cls,
        )
        cls.registry_name = name  # type: ignore[attr-defined]
        return cls

    return decorate


def mapper_names() -> list[str]:
    """Sorted names of every mapper reachable by name (forces no imports)."""
    return sorted(set(MAPPER_REGISTRY) | set(_LAZY_MODULES))


def get_mapper_spec(name: str) -> MapperSpec:
    """Resolve a registry name, importing its defining module if needed."""
    spec = MAPPER_REGISTRY.get(name)
    if spec is None and name in _LAZY_MODULES:
        importlib.import_module(_LAZY_MODULES[name])
        spec = MAPPER_REGISTRY.get(name)
    if spec is None:
        raise UnknownMapperError(name)
    return spec


def iter_mapper_specs() -> list[MapperSpec]:
    """Every registered spec, name-sorted (loads all lazy modules)."""
    return [get_mapper_spec(name) for name in mapper_names()]


def create_mapper(
    name: str, service: object, *, search_depth: int, **kwargs: Any
) -> Mapper:
    """Build the named mapper against ``service`` — the one front door."""
    return get_mapper_spec(name).create(
        service, search_depth=search_depth, **kwargs
    )


def resolve_mapper_factory(
    factory: str | Callable[[object, int], Mapper],
    **default_kwargs: Any,
) -> Callable[[object, int], Mapper]:
    """Normalize a registry name or callable into ``(service, depth) ->``.

    Drivers (remapper daemon, chaos runner) accept ``mapper_factory`` as
    either an injected callable or a registry name; ``default_kwargs``
    are driver-wide options passed through to algorithms whose
    constructors accept them (see :meth:`MapperSpec.accepted_kwargs`).
    """
    if callable(factory):
        return factory
    spec = get_mapper_spec(factory)
    kwargs = spec.accepted_kwargs(default_kwargs)

    def build(service: object, depth: int) -> Mapper:
        return spec.create(service, search_depth=depth, **kwargs)

    return build


def build_mapper_service(
    mapper: str | MapperSpec | Callable[[object, int], Mapper],
    net: object,
    mapper_host: str,
    **stack_kwargs: Any,
) -> Any:
    """Build a probe-service stack suitable for the given mapper.

    Honors the spec's ``service_cls`` (e.g. ``SelfIdProbeService`` for
    the self-id baseline) unless the caller passes an explicit
    ``service_cls`` of its own; an injected factory callable declares
    none and gets the default core. Everything else goes straight to
    :func:`repro.simulator.stack.build_service_stack`.
    """
    from repro.simulator.stack import build_service_stack

    if not callable(mapper):
        spec = (
            mapper if isinstance(mapper, MapperSpec) else get_mapper_spec(mapper)
        )
        if spec.service_cls is not None:
            stack_kwargs.setdefault("service_cls", spec.service_cls)
    return build_service_stack(net, mapper_host, **stack_kwargs)
