"""The asyncio map server: many tenants, one event loop, N simulator workers.

Concurrency model (documented in detail in ``docs/SERVICE.md``):

- the **event loop** owns all tenant state and serves every query that
  only reads it — ``route`` lookups hit the in-memory route-table store
  and never block on mapping;
- **remap cycles** are pure CPU and run in a ``ProcessPoolExecutor`` of
  simulator workers (:func:`repro.service.workers.run_map_job`); the
  tenant's job payload is serialized JSON, so worker processes share
  nothing with the server and a crashed worker loses one cycle, not the
  service: the server replaces a pool that a dead worker broke;
- per tenant, at most **one cycle is in flight**: concurrent ``map``
  requests for the same tenant coalesce onto the running cycle's future
  (they all observe the same outcome), while cycles for *different*
  tenants run in parallel across the pool.

Failure semantics: a cycle that errors (probe-model contradiction,
worker crash) or fails verification (map not isomorphic to the effective
fabric, routes not deadlock-free) is recorded and counted, but the
tenant keeps serving the previous route-table generation — degraded, not
down — and the bad map is never used to seed the next cycle.
"""

from __future__ import annotations

import asyncio
import sys
import time
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import islice
from typing import Any, Iterable

from repro.service.protocol import ProtocolError, read_frame, write_frame
from repro.service.serialize import (
    SerializationError,
    map_result_from_dict,
    route_tables_from_dict,
)
from repro.service.tenant import TenantSpec, TenantState
from repro.service.workers import run_map_job
from repro.routing.deadlock import routes_deadlock_free
from repro.routing.incremental import route_deliveries
from repro.topology.model import TopologyError

__all__ = ["MapServer", "ServerStats", "percentile"]

#: Latency samples retained per op (ring buffer; p99 over the last window).
_LATENCY_WINDOW = 8192


def percentile(samples: Iterable[float], q: float) -> float:
    """The q-quantile (0..1) of a sample set, by rank; 0.0 when empty."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


class ServerStats:
    """Per-op counters and wall-clock latency windows.

    This is *service* observability, not simulator state: wall-clock here
    measures the server's own handling latency, which is exactly what a
    load generator and an operator dashboard need. (Simulated probe time
    lives in the per-tenant ``ProbeStats``, untouched by this class.)
    """

    def __init__(self) -> None:
        self.requests: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self._latency: dict[str, deque[float]] = {}
        #: Process pools built to replace one a dead worker broke.
        self.pool_restarts = 0

    def record(self, op: str, seconds: float, *, ok: bool) -> None:
        self.requests[op] = self.requests.get(op, 0) + 1
        if not ok:
            self.errors[op] = self.errors.get(op, 0) + 1
        window = self._latency.get(op)
        if window is None:
            window = self._latency[op] = deque(maxlen=_LATENCY_WINDOW)
        window.append(seconds)

    def latency_summary(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for op, window in sorted(self._latency.items()):
            out[op] = {
                "n": len(window),
                "p50_ms": round(percentile(window, 0.50) * 1e3, 4),
                "p99_ms": round(percentile(window, 0.99) * 1e3, 4),
                "max_ms": round(max(window) * 1e3, 4),
            }
        return out

    def snapshot(self) -> dict:
        return {
            "requests": dict(sorted(self.requests.items())),
            "errors": dict(sorted(self.errors.items())),
            "latency": self.latency_summary(),
            "pool_restarts": self.pool_restarts,
        }


def _error(code: str, message: str) -> dict:
    return {"ok": False, "error": code, "message": message}


class MapServer:
    """Host N independent virtual clusters behind one socket.

    ``executor`` accepts any :class:`concurrent.futures.Executor` (tests
    inject a thread pool or an inline executor for determinism); by
    default :meth:`start` creates a ``ProcessPoolExecutor`` with
    ``max_workers`` simulator workers and :meth:`stop` shuts it down. A
    worker that dies breaks that pool, and the server replaces the pool
    it owns; an injected executor belongs to its caller and is never
    replaced.
    """

    def __init__(
        self,
        tenants: Iterable[TenantSpec | TenantState],
        *,
        max_workers: int | None = None,
        executor: Executor | None = None,
    ) -> None:
        self.tenants: dict[str, TenantState] = {}
        for item in tenants:
            state = item if isinstance(item, TenantState) else TenantState(item)
            if state.spec.name in self.tenants:
                raise ValueError(f"duplicate tenant {state.spec.name!r}")
            self.tenants[state.spec.name] = state
        self._max_workers = max_workers
        self._executor = executor
        self._owns_executor = False
        self._server: asyncio.AbstractServer | None = None
        self._inflight: dict[str, asyncio.Task] = {}
        self._background: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._closing = asyncio.Event()
        self.stats = ServerStats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("server already started")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._max_workers)
            self._owns_executor = True
        self._server = await asyncio.start_server(self._handle_conn, host, port)
        return self.address

    async def stop(self) -> None:
        self._closing.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Close established connections too (close() only stops listening);
        # their handler loops see EOF and exit instead of being abandoned.
        for conn in list(self._conn_writers):
            conn.close()
        # Exclude ourselves: the shutdown op runs stop() *as* a background
        # task, and a task cancelling a gather that contains itself recurses
        # forever inside Task.cancel.
        current = asyncio.current_task()
        pending = [
            t
            for t in (*self._inflight.values(), *self._background)
            if not t.done() and t is not current
        ]
        for task in pending:
            task.cancel()
        # Drain without raising: outcomes of cancelled cycles were already
        # folded into their tenants (or never will be — server is gone).
        await asyncio.gather(*pending, return_exceptions=True)
        self._inflight.clear()
        self._background.clear()
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self._owns_executor = False

    async def wait_closed(self) -> None:
        """Block until :meth:`stop` (e.g. a ``shutdown`` request) runs."""
        await self._closing.wait()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    await write_frame(writer, _error("protocol", str(exc)))
                    break
                if request is None:
                    break
                response = await self.handle_request(request)
                await write_frame(writer, response)
                if (
                    isinstance(request, dict)
                    and request.get("op") == "shutdown"
                    and response.get("ok")
                ):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-frame; nothing to answer
        except asyncio.CancelledError:
            # Loop teardown cancelled us mid-read; exit quietly (on 3.11
            # the streams done-callback logs any handler that dies
            # cancelled, which turns every shutdown into a traceback).
            pass
        finally:
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass  # already torn down

    async def handle_request(self, request: Any) -> dict:
        """Dispatch one request; never raises (errors become responses)."""
        start = time.perf_counter()
        if not isinstance(request, dict) or not isinstance(request.get("op"), str):
            response = _error("bad-request", "request must be an object with 'op'")
            self.stats.record("?", time.perf_counter() - start, ok=False)
            return response
        op = request["op"]
        handler = getattr(self, f"_op_{op.replace('-', '_')}", None)
        if handler is None:
            response = _error("unknown-op", f"no such op {op!r}")
        else:
            try:
                response = await handler(request)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - one request must not kill the serve loop
                response = _error(
                    "internal-error", f"{type(exc).__name__}: {exc}"
                )
        self.stats.record(
            op, time.perf_counter() - start, ok=bool(response.get("ok"))
        )
        return response

    def _tenant(self, request: dict) -> TenantState:
        name = request.get("tenant")
        if not isinstance(name, str):
            raise KeyError("request needs a string 'tenant' field")
        try:
            return self.tenants[name]
        except KeyError:
            raise KeyError(f"unknown tenant {name!r}") from None

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    async def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "tenants": len(self.tenants)}

    async def _op_tenants(self, request: dict) -> dict:
        include_hosts = request.get("include_hosts", False)
        if type(include_hosts) is not bool:
            return _error("bad-request", "'include_hosts' must be a boolean")
        return {
            "ok": True,
            "tenants": [
                {
                    "name": t.spec.name,
                    "topology": t.spec.topology,
                    "status": t.status,
                    "generation": t.generation,
                    "hosts": t.net.n_hosts,
                    "switches": t.net.n_switches,
                    "remap_in_flight": t.spec.name in self._inflight,
                    **(
                        {"host_names": sorted(t.net.hosts)}
                        if include_hosts
                        else {}
                    ),
                }
                for t in self.tenants.values()
            ],
        }

    async def _op_map(self, request: dict) -> dict:
        try:
            tenant = self._tenant(request)
        except KeyError as exc:
            return _error("unknown-tenant", str(exc))
        wait, include_result = request.get("wait", True), request.get("include_result", False)
        if type(wait) is not bool or type(include_result) is not bool:
            return _error("bad-request", "'wait' and 'include_result' must be booleans")
        if not wait:
            task = self._ensure_cycle(tenant)
            return {
                "ok": True,
                "tenant": tenant.spec.name,
                "dispatched": True,
                "coalesced": task is None,
            }
        outcome = await self.run_map_cycle(tenant.spec.name)
        response = {
            "ok": bool(outcome.get("adopted")),
            "tenant": tenant.spec.name,
            "generation": tenant.generation,
            **{
                k: outcome[k]
                for k in (
                    "adopted",
                    "error",
                    "message",
                    "mismatch",
                    "seeded",
                    "seed_fallback",
                    "kept_nodes",
                    "probes",
                    "elapsed_ms",
                    "n_routes",
                    "deadlock_free",
                    "isomorphic",
                )
                if k in outcome
            },
        }
        if include_result and "map_result" in outcome:
            response["map_result"] = outcome["map_result"]
        if not response["ok"]:
            response.setdefault("error", "cycle-not-adopted")
            response.setdefault(
                "message", "cycle finished but failed verification"
            )
        return response

    async def _op_route(self, request: dict) -> dict:
        try:
            tenant = self._tenant(request)
        except KeyError as exc:
            return _error("unknown-tenant", str(exc))
        src, dst = request.get("src"), request.get("dst")
        if not isinstance(src, str) or not isinstance(dst, str):
            return _error("bad-request", "route needs string 'src' and 'dst'")
        tenant.route_queries += 1
        if tenant.tables is None:
            tenant.route_misses += 1
            return _error("unmapped", f"tenant {tenant.spec.name!r} has no map yet")
        table = tenant.tables.get(src)
        compiled = table.routes.get(dst) if table is not None else None
        if compiled is None:
            tenant.route_misses += 1
            return _error("no-route", f"no route {src!r} -> {dst!r}")
        return {
            "ok": True,
            "tenant": tenant.spec.name,
            "src": src,
            "dst": dst,
            "turns": list(compiled.turns),
            "hops": compiled.hops,
            "generation": tenant.generation,
        }

    async def _op_verify(self, request: dict) -> dict:
        """Check the served tables against the tenant's *actual* fabric.

        ``sample`` bounds the delivery check to the first N (src, dst)
        pairs in sorted order — deterministic, so repeated verifies cover
        the same routes. The full check is O(hosts²) route evaluations.
        Each failure names how its route ended (a ``PathStatus`` value, or
        ``unreachable endpoint`` for a host the fabric no longer has).
        """
        try:
            tenant = self._tenant(request)
        except KeyError as exc:
            return _error("unknown-tenant", str(exc))
        if tenant.tables is None:
            return _error("unmapped", f"tenant {tenant.spec.name!r} has no map yet")
        sample = request.get("sample")
        if sample is not None and (
            not isinstance(sample, int) or isinstance(sample, bool) or sample < 1
        ):
            return _error("bad-request", "'sample' must be a positive integer")
        deadlock_free = routes_deadlock_free(tenant.tables)
        checked = delivered = 0
        failures: list[dict] = []
        # A sample past the route count checks every route (islice takes
        # no stop beyond sys.maxsize).
        for src, dst, failure in islice(
            route_deliveries(tenant.tables, tenant.net),
            None if sample is None else min(sample, sys.maxsize),
        ):
            checked += 1
            if failure is None:
                delivered += 1
            elif len(failures) < 10:
                failures.append({"src": src, "dst": dst, "status": failure})
        return {
            "ok": deadlock_free and delivered == checked,
            "tenant": tenant.spec.name,
            "generation": tenant.generation,
            "deadlock_free": deadlock_free,
            "routes_checked": checked,
            "routes_delivered": delivered,
            "failures": failures,
        }

    async def _op_stats(self, request: dict) -> dict:
        if "tenant" in request:
            try:
                tenant = self._tenant(request)
            except KeyError as exc:
                return _error("unknown-tenant", str(exc))
            return {
                "ok": True,
                "tenant": tenant.spec.name,
                "status": tenant.status,
                "generation": tenant.generation,
                "maps_completed": tenant.maps_completed,
                "maps_failed": tenant.maps_failed,
                "seed_fallbacks": tenant.seed_fallbacks,
                "probes_total": tenant.probes_total,
                "route_queries": tenant.route_queries,
                "route_misses": tenant.route_misses,
                "remap_in_flight": tenant.spec.name in self._inflight,
                "last_cycle": tenant.last_cycle,
            }
        return {
            "ok": True,
            "tenants": len(self.tenants),
            "inflight_cycles": len(self._inflight),
            "server": self.stats.snapshot(),
            "totals": {
                "maps_completed": sum(
                    t.maps_completed for t in self.tenants.values()
                ),
                "maps_failed": sum(t.maps_failed for t in self.tenants.values()),
                "route_queries": sum(
                    t.route_queries for t in self.tenants.values()
                ),
            },
        }

    async def _op_cut(self, request: dict) -> dict:
        """Cut a cable on the tenant's actual network (models a failure).

        The next remap cycle discovers the change in-band; with an
        incremental spec the cycle seeds from the delta journal exactly
        like :class:`RemapperDaemon` would.
        """
        try:
            tenant = self._tenant(request)
        except KeyError as exc:
            return _error("unknown-tenant", str(exc))
        auto = request.get("auto", False)
        if type(auto) is not bool:
            return _error("bad-request", "'auto' must be a boolean")
        if auto:
            # Deterministic churn for load generators that don't know the
            # topology: cut the first (sorted) switch-to-switch cable.
            candidates = sorted(
                (
                    w
                    for w in tenant.net.wires
                    if tenant.net.is_switch(w.a.node)
                    and tenant.net.is_switch(w.b.node)
                ),
                key=lambda w: (w.a, w.b),
            )
            if not candidates:
                return _error("no-wire", "no switch-to-switch wire left to cut")
            wire = candidates[0]
        else:
            node, port = request.get("node"), request.get("port")
            if (
                not isinstance(node, str)
                or not isinstance(port, int)
                or isinstance(port, bool)
            ):
                return _error(
                    "bad-request", "cut needs string 'node' and int 'port', or 'auto'"
                )
            try:
                wire = tenant.net.wire_at(node, port)
            except TopologyError as exc:  # no such node, or no such port on it
                return _error("no-wire", str(exc))
            if wire is None:
                return _error("no-wire", f"no wire at {node}:{port}")
        tenant.net.disconnect(wire)
        return {
            "ok": True,
            "tenant": tenant.spec.name,
            "cut": [[wire.a.node, wire.a.port], [wire.b.node, wire.b.port]],
        }

    async def _op_plug(self, request: dict) -> dict:
        """Plug a cable between two free ports on the actual network."""
        try:
            tenant = self._tenant(request)
        except KeyError as exc:
            return _error("unknown-tenant", str(exc))
        a, b = request.get("a"), request.get("b")
        for end in (a, b):
            if (
                not isinstance(end, list)
                or len(end) != 2
                or not isinstance(end[0], str)
                or not isinstance(end[1], int)
                or isinstance(end[1], bool)
            ):
                return _error("bad-request", "plug needs 'a' and 'b' [node, port]")
        try:
            tenant.net.connect(a[0], a[1], b[0], b[1])
        except (KeyError, ValueError) as exc:
            return _error("bad-plug", str(exc))
        return {"ok": True, "tenant": tenant.spec.name}

    async def _op_shutdown(self, request: dict) -> dict:
        task = asyncio.get_running_loop().create_task(self.stop())
        self._background.add(task)
        task.add_done_callback(self._background.discard)
        return {"ok": True, "stopping": True}

    # ------------------------------------------------------------------
    # remap cycles
    # ------------------------------------------------------------------
    def _ensure_cycle(self, tenant: TenantState) -> asyncio.Task | None:
        """The running cycle task for a tenant, starting one if idle.

        Returns the *new* task, or ``None`` when an in-flight cycle was
        coalesced onto.
        """
        name = tenant.spec.name
        if name in self._inflight:
            return None
        task = asyncio.get_running_loop().create_task(self._cycle(tenant))
        self._inflight[name] = task
        task.add_done_callback(lambda _t: self._inflight.pop(name, None))
        return task

    async def run_map_cycle(self, name: str) -> dict:
        """Run (or join) one remap cycle for a tenant; returns the outcome."""
        tenant = self.tenants[name]
        self._ensure_cycle(tenant)
        # Shield the shared task: one canceled waiter must not cancel the
        # cycle every other waiter coalesced onto.
        return await asyncio.shield(self._inflight[name])

    async def _cycle(self, tenant: TenantState) -> dict:
        executor = self._executor
        if executor is None:
            raise RuntimeError("server is not started (no executor)")
        payload = tenant.job_payload()
        loop = asyncio.get_running_loop()
        try:
            outcome = await loop.run_in_executor(executor, run_map_job, payload)
        except asyncio.CancelledError:
            raise
        except BrokenProcessPool as exc:
            # A worker process died, and with it the pool and every job in
            # it. Cycles that meet one breakage all hold the same broken
            # pool: the first replaces it, the rest find it replaced. No
            # await separates the check from the swap, so the event loop
            # serialises them.
            if self._owns_executor and self._executor is executor:
                executor.shutdown(wait=False, cancel_futures=True)
                self._executor = ProcessPoolExecutor(max_workers=self._max_workers)
                self.stats.pool_restarts += 1
            outcome = _error("worker-died", f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 - a failed job degrades one tenant, not the server
            outcome = _error("worker-failed", f"{type(exc).__name__}: {exc}")
        result = tables = None
        if outcome.get("ok"):
            # The map and the tables are checked here, before they touch the
            # tenant: a bad map_result would poison every later seed, so it
            # is decoded whole and refused on whatever the worker's seed
            # decode would refuse it on; a delta is applied to the served
            # generation; and tables are served only if they are
            # deadlock-free as decoded. The rest adopt() stores comes from
            # the payload and from these two, not from the worker's word.
            try:
                result = map_result_from_dict(outcome.get("map_result"))
                tables = route_tables_from_dict(outcome["tables"], base=tenant.base)
                if not routes_deadlock_free(tables):
                    raise SerializationError(
                        "route-tables: the channel dependency graph has a cycle"
                    )
            except (KeyError, TypeError, ValueError) as exc:
                outcome = _error("bad-worker-outcome", str(exc))
                result = tables = None
        return {**outcome, **tenant.adopt(payload, outcome, result, tables)}
