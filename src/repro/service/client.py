"""A small asyncio client for the map server.

One :class:`MapClient` holds one TCP connection and issues requests
sequentially over it (the protocol has no request IDs — responses come
back in order). Concurrency comes from opening several clients: the load
generator opens one per simulated tenant operator plus a pool of route
queriers.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.service.protocol import ProtocolError, read_frame, write_frame

__all__ = ["MapClient", "ServiceError"]


class ServiceError(RuntimeError):
    """The server answered with ``ok: false``.

    Carries the machine-readable ``code`` so callers can branch on it
    (``unmapped`` and ``no-route`` are normal service states, not bugs).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class MapClient:
    """One connection to a :class:`repro.service.server.MapServer`."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()

    async def __aenter__(self) -> "MapClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass  # server already gone; the socket is closed either way
            self._writer = None
            self._reader = None

    async def request(self, op: str, **fields: Any) -> dict:
        """Send one request, await its response; raises on ``ok: false``."""
        response = await self.request_raw(op, **fields)
        if not response.get("ok"):
            raise ServiceError(
                str(response.get("error", "error")),
                str(response.get("message", response)),
            )
        return response

    async def request_raw(self, op: str, **fields: Any) -> dict:
        """Send one request and return the response dict verbatim."""
        if self._reader is None or self._writer is None:
            raise RuntimeError("client is not connected")
        async with self._lock:
            await write_frame(self._writer, {"op": op, **fields})
            response = await read_frame(self._reader)
        if response is None:
            raise ProtocolError("server closed the connection mid-request")
        if not isinstance(response, dict):
            raise ProtocolError(f"server sent a non-object response: {response!r}")
        return response

    # Convenience wrappers mirroring the op vocabulary ------------------
    async def ping(self) -> dict:
        return await self.request("ping")

    async def tenants(self) -> list[dict]:
        return (await self.request("tenants"))["tenants"]

    async def map(self, tenant: str) -> dict:
        """Map ``tenant`` and wait for the cycle (``request_raw("map",
        tenant=..., wait=False)`` starts one without waiting)."""
        return await self.request_raw("map", tenant=tenant, wait=True)

    async def route(self, tenant: str, src: str, dst: str) -> dict:
        return await self.request_raw("route", tenant=tenant, src=src, dst=dst)

    async def verify(self, tenant: str, *, sample: int | None = None) -> dict:
        fields: dict[str, Any] = {"tenant": tenant}
        if sample is not None:
            fields["sample"] = sample
        return await self.request_raw("verify", **fields)

    async def stats(self, tenant: str | None = None) -> dict:
        if tenant is None:
            return await self.request("stats")
        return await self.request("stats", tenant=tenant)

    async def cut(
        self,
        tenant: str,
        node: str | None = None,
        port: int | None = None,
        *,
        auto: bool = False,
    ) -> dict:
        if auto:
            return await self.request_raw("cut", tenant=tenant, auto=True)
        return await self.request_raw("cut", tenant=tenant, node=node, port=port)

    async def shutdown(self) -> dict:
        return await self.request("shutdown")
