"""Mapping-as-a-service: the long-running daemon of the paper's abstract.

"The system periodically discovers the network topology and uses it to
compute and to distribute a set of mutually deadlock-free routes to all
network interfaces." This package is the service boundary around that
loop: an asyncio server hosting many independent virtual clusters
(tenants), each with its own network, fault model, and remap cycles,
serving ``map`` / ``route`` / ``verify`` / ``stats`` queries over a
length-prefixed JSON protocol. CPU-heavy mapping runs in a process pool
of simulator workers while the event loop keeps serving route lookups
from an in-memory route-table store.

See ``docs/SERVICE.md`` for the protocol, tenancy model, worker-pool
design and failure semantics.
"""

from repro.service.client import MapClient, ServiceError
from repro.service.loadgen import LoadReport, run_load, synthetic_tenants
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frames,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.service.serialize import (
    SerializationError,
    map_result_from_dict,
    map_result_to_dict,
    route_tables_from_dict,
    route_tables_to_dict,
)
from repro.service.server import MapServer, ServerStats
from repro.service.tenant import TenantSpec, TenantState, build_tenant_network

__all__ = [
    "LoadReport",
    "MapClient",
    "MapServer",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "SerializationError",
    "ServerStats",
    "ServiceError",
    "TenantSpec",
    "TenantState",
    "build_tenant_network",
    "decode_frames",
    "encode_frame",
    "map_result_from_dict",
    "map_result_to_dict",
    "read_frame",
    "route_tables_from_dict",
    "route_tables_to_dict",
    "run_load",
    "synthetic_tenants",
    "write_frame",
]
