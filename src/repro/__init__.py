"""repro — a reproduction of *System Area Network Mapping* (SPAA 1997).

Mainwaring, Chun, Schleimer & Wilkerson's probe-based algorithm maps a
switched system-area network (Myrinet-like: anonymous 8-port crossbars,
source-based cut-through routing, relative port addressing) purely from
in-band probe messages, then derives mutually deadlock-free UP*/DOWN*
routes from the map.

Quickstart::

    from repro import (
        create_mapper, build_service_stack,
        build_subcluster, recommended_search_depth, match_networks,
    )

    net = build_subcluster("C")                      # the paper's testbed
    svc = build_service_stack(net, "C-svc")          # in-band probe access
    depth = recommended_search_depth(net, "C-svc")   # the proven Q+D+1
    result = create_mapper("berkeley", svc, search_depth=depth).map()
    assert match_networks(result.network, net)       # got the truth back

Every discovery algorithm registers in
:data:`repro.core.mapper_protocol.MAPPER_REGISTRY` ("berkeley",
"berkeley-infogain", "myricom", "selfid", "coupon", "spanning-tree");
``create_mapper(name, service, search_depth=...)`` builds any of them
behind the same :class:`~repro.core.mapper_protocol.Mapper` protocol,
at the switch radix the service reports (``svc.radix``, the fabric's
widest switch); any other keyword goes to the constructor as it is
(``max_explorations=`` where the algorithm has that bound), and one the
constructor does not take raises its ``TypeError``. A mapper's ``map()``
runs once: build a fresh mapper for each map. A model-graph map that
reaches :data:`repro.core.mapper.EXPLORATION_LIMIT` explorations
unfinished raises :class:`~repro.core.mapper.ExplorationLimitError`.

Package layout:

- :mod:`repro.topology` — the network model, generators, analyses;
- :mod:`repro.simulator` — the Myrinet substrate (message semantics,
  collision models, probes, timing, contention, faults);
- :mod:`repro.core` — the Berkeley Algorithm (simplified + production),
  planner, master/slave and election drivers;
- :mod:`repro.baselines` — the Myricom Algorithm and the self-identifying
  switch hypothetical;
- :mod:`repro.routing` — UP*/DOWN* routing, deadlock verification,
  route compilation and distribution;
- :mod:`repro.extensions` — Section 6 future work, implemented;
- :mod:`repro.experiments` — regenerate every table and figure.
"""

from repro.baselines import MyricomMapper, SelfIdMapper
from repro.core import BerkeleyMapper, MapResult, MappingError
from repro.core.mapper_protocol import (
    MAPPER_REGISTRY,
    Mapper,
    MapperSpec,
    create_mapper,
    mapper_names,
)
from repro.core.remapper import RemapCycle, RemapperDaemon
from repro.routing import (
    all_pairs_updown_paths,
    compile_route_tables,
    distribute_incremental,
    orient_updown,
    routes_deadlock_free,
)
from repro.simulator import (
    CircuitModel,
    CutThroughModel,
    PacketModel,
    QuiescentProbeService,
    build_service_stack,
)
from repro.topology import Network, NetworkBuilder
from repro.topology.analysis import (
    core_network,
    recommended_search_depth,
    separated_set,
)
from repro.topology.generators import (
    build_full_now,
    build_subcluster,
    combine_subclusters,
    random_san,
)
from repro.topology.diff import MapDiff, diff_networks
from repro.topology.isomorphism import match_networks
from repro.topology.serialize import load_network, save_network

__version__ = "1.0.0"

__all__ = [
    "BerkeleyMapper",
    "CircuitModel",
    "CutThroughModel",
    "MAPPER_REGISTRY",
    "MapResult",
    "Mapper",
    "MapperSpec",
    "MappingError",
    "MapDiff",
    "MyricomMapper",
    "Network",
    "NetworkBuilder",
    "PacketModel",
    "QuiescentProbeService",
    "RemapCycle",
    "RemapperDaemon",
    "SelfIdMapper",
    "__version__",
    "all_pairs_updown_paths",
    "build_full_now",
    "build_service_stack",
    "build_subcluster",
    "combine_subclusters",
    "compile_route_tables",
    "core_network",
    "create_mapper",
    "diff_networks",
    "distribute_incremental",
    "load_network",
    "mapper_names",
    "match_networks",
    "orient_updown",
    "random_san",
    "recommended_search_depth",
    "routes_deadlock_free",
    "save_network",
    "separated_set",
]
