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
  entry point, and it runs once per mapper (:func:`maps_once`; a second
  call raises :class:`MapperReusedError`). What an experiment studies
  beyond the map (Myricom's probe breakdown, the coupon hits) is read off
  the mapper after ``map()``.
* :attr:`MapperSpec.capabilities` — the optional parts of the interface
  (``seed_with`` incremental seeding, ``profiler`` phase timing), derived
  from the registered factory itself, so a listing cannot claim what the
  class does not have.
* :data:`MAPPER_REGISTRY` — string-keyed specs. Construction goes
  through :func:`create_mapper` (or ``map_cycle(mapper=name)``) so the
  choice of algorithm is data (``mapper_factory="berkeley"``), not an
  import; sanlint's SAN015 keeps direct constructor calls out of the
  consumer layers. Every factory is called the same way:
  ``spec.factory(service, search_depth=..., **options)``, and every
  mapper reads the switch radix from its service (``service.radix``);
  an option the constructor does not take raises its ``TypeError``.

Registration is lazy: looking up a name imports its defining module,
which registers the class via :func:`register_mapper` at import time.
That keeps ``import repro.core.mapper_protocol`` free of heavyweight
imports while still making every built-in algorithm reachable by name.
"""

from __future__ import annotations

import functools
import importlib
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
    "MapperReusedError",
    "MapperSpec",
    "UnknownMapperError",
    "create_mapper",
    "get_mapper_spec",
    "iter_mapper_specs",
    "mapper_names",
    "maps_once",
    "register_mapper",
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

    @property
    def capabilities(self) -> tuple[str, ...]:
        """The optional parts of the interface the factory has, in listing
        order: ``seed_with`` when it has that method (a prior-map seed
        installed before ``map()``, the incremental-remap fast path), and
        ``profiler`` when it is a model graph, whose constructor takes
        that keyword (per-phase wall-clock accumulated into the caller's
        ``PhaseProfiler``)."""
        from repro.core.model_graph import ModelGraph

        has = {
            "seed_with": hasattr(self.factory, "seed_with"),
            "profiler": isinstance(self.factory, type)
            and issubclass(self.factory, ModelGraph),
        }
        return tuple(name for name, on in has.items() if on)


class MapperReusedError(RuntimeError):
    """``map()`` called a second time on one mapper. A mapper maps once:
    build a fresh one per map."""


def maps_once(method: Callable[[Any], "MapResult"]) -> Callable[[Any], "MapResult"]:
    """Decorate a mapper's ``map()`` so that a second call raises
    :class:`MapperReusedError` instead of mapping on leftover state."""

    @functools.wraps(method)
    def map_(self: Any) -> "MapResult":
        if getattr(self, "_mapped", False):
            raise MapperReusedError(
                f"{type(self).__name__}.map() was already called; "
                "a mapper maps once"
            )
        self._mapped = True
        return method(self)

    return map_


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
) -> Callable[[type], type]:
    """Class decorator: add a mapper class to :data:`MAPPER_REGISTRY`.

    The spec's capabilities are derived from the class, so a subclass has
    whatever its base has.
    """

    def decorate(cls: type) -> type:
        existing = MAPPER_REGISTRY.get(name)
        if existing is not None and existing.factory is not cls:
            raise ValueError(f"mapper name {name!r} is already registered")
        MAPPER_REGISTRY[name] = MapperSpec(name=name, factory=cls, summary=summary)
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
    """Build the named mapper against ``service`` — the one front door.

    ``kwargs`` go to the constructor as they are: one it does not take
    raises its ``TypeError``.
    """
    return get_mapper_spec(name).factory(
        service, search_depth=search_depth, **kwargs
    )
