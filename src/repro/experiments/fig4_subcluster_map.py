"""Figure 4 — the automatically generated map of the C subcluster.

"This 35-node cluster is typical of the three subclusters of the system.
The single host at the bottom is a machine dedicated to running system
services." The paper's figure is a drawing of the mapper's output; here the
mapper runs for real, the produced map is verified isomorphic to the actual
core, and both an ASCII rendering and Graphviz source are emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.instrumentation import cache_summary
from repro.core.mapper import MapResult
from repro.core.remapper import map_cycle
from repro.experiments.common import system
from repro.simulator.path_eval import EvalCacheStats
from repro.topology.isomorphism import IsomorphismReport, match_networks
from repro.topology.render import to_ascii, to_dot

__all__ = ["MapExperiment", "run", "main"]


@dataclass(slots=True)
class MapExperiment:
    system: str
    result: MapResult
    verification: IsomorphismReport
    ascii_map: str
    dot_source: str
    cache: EvalCacheStats


def run(name: str = "C") -> MapExperiment:
    fixture = system(name)
    # A fresh copy of the shared fixture: probe walks are cached on the
    # fabric they walk (``Network.walk_trie``), so mapping the fixture
    # itself would count walks an earlier run cached as this run's hits.
    result, svc = map_cycle(
        fixture.net.copy(), fixture.mapper_host, search_depth=fixture.search_depth
    )
    verification = match_networks(result.network, fixture.core)
    return MapExperiment(
        system=name,
        result=result,
        verification=verification,
        ascii_map=to_ascii(result.network, title=f"map of {name}"),
        dot_source=to_dot(result.network, title=f"san-map-{name}"),
        cache=svc.eval_cache_stats,
    )


def main() -> None:
    exp = run("C")
    print(exp.ascii_map)
    print(
        f"verification: map isomorphic to actual core = "
        f"{bool(exp.verification)}"
        + (f" ({exp.verification.reason})" if exp.verification.reason else "")
    )
    print(cache_summary(exp.cache))
    print(
        f"(Graphviz source available from run().dot_source — "
        f"{len(exp.dot_source.splitlines())} lines)"
    )


if __name__ == "__main__":
    main()
