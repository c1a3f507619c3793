"""The daemon: one listener speaking NDJSON and HTTP/1.1.

:class:`ServeDaemon` binds a TCP port (and/or a unix socket) and sniffs
the first line of every connection: an HTTP request line gets a minimal
one-shot HTTP/1.1 exchange (``GET /healthz``, ``GET /metrics``,
``GET /stats``, ``POST /run``, ``POST /sweep``); anything else is
treated as the first request of a persistent newline-delimited-JSON
session (pipelining friendly: clients may write many request lines
before reading responses — they come back in order).

Shutdown contract (SIGTERM/SIGINT): stop accepting, close idle
connections, let busy connections finish their current request and
write the response, then drain the service — which commits the journal
— and exit.  A client mid-simulation at SIGTERM still gets its answer,
and the journal left behind replays warm on the next start.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import re
import signal
from typing import Any, Dict, List, Optional, Set

from repro.serve import protocol
from repro.serve.protocol import MAX_LINE_BYTES, ProtocolError
from repro.serve.service import SimulationService

__all__ = ["ServeDaemon", "serve"]

log = logging.getLogger("repro.serve")

#: First-line sniff: an HTTP request line routes the whole connection.
_HTTP_LINE = re.compile(
    rb"^(GET|HEAD|POST|PUT|DELETE|OPTIONS|PATCH) \S+ HTTP/1\.[01]\r?\n$"
)

#: Largest accepted HTTP POST body (sweeps are bounded anyway).
_MAX_HTTP_BODY = 8 << 20

_HTTP_REASON = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Structured error kind -> HTTP status for the REST surface.
_KIND_STATUS = {
    "protocol": 400,
    "bad-request": 400,
    "invalid-config": 400,
    "poisoned": 422,
    "busy": 429,
    "draining": 503,
    "timeout": 504,
    "scheduler-error": 500,
    "failed": 500,
}


class _Conn:
    """Book-keeping for one live connection (drain coordination)."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


class ServeDaemon:
    """Listener + connection handling around one SimulationService."""

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: Optional[int] = 0,
        socket_path: Optional[str] = None,
        ready_file: Optional[str] = None,
        drain_grace_s: float = 30.0,
    ):
        if port is None and socket_path is None:
            raise ValueError("need a TCP port or a unix socket path")
        self.service = service
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.ready_file = ready_file
        self.drain_grace_s = drain_grace_s
        self.bound_port: Optional[int] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._conns: Set[_Conn] = set()
        self._conn_tasks: Set["asyncio.Task"] = set()
        self._stop_event: Optional[asyncio.Event] = None
        self._draining = False

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> None:
        self._stop_event = asyncio.Event()
        if self.port is not None:
            srv = await asyncio.start_server(
                self._on_connection, self.host, self.port,
                limit=MAX_LINE_BYTES,
            )
            self._servers.append(srv)
            self.bound_port = srv.sockets[0].getsockname()[1]
        if self.socket_path is not None:
            srv = await asyncio.start_unix_server(
                self._on_connection, path=self.socket_path,
                limit=MAX_LINE_BYTES,
            )
            self._servers.append(srv)
        self._write_ready_file()
        where = []
        if self.bound_port is not None:
            where.append(f"{self.host}:{self.bound_port}")
        if self.socket_path is not None:
            where.append(self.socket_path)
        print(f"advection-repro serve: listening on {' and '.join(where)}",
              flush=True)

    def _write_ready_file(self) -> None:
        if self.ready_file is None:
            return
        doc = {
            "host": self.host,
            "port": self.bound_port,
            "socket": self.socket_path,
            "pid": os.getpid(),
        }
        tmp = self.ready_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, self.ready_file)

    def request_shutdown(self) -> None:
        """Signal-safe (via call_soon_threadsafe) drain trigger."""
        if self._stop_event is not None:
            self._stop_event.set()

    def _install_signals(self, loop: asyncio.AbstractEventLoop) -> None:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError):
                signal.signal(
                    sig,
                    lambda *_: loop.call_soon_threadsafe(
                        self.request_shutdown
                    ),
                )

    async def run(self) -> int:
        """start(), serve until SIGTERM/SIGINT/request_shutdown, drain."""
        await self.start()
        self._install_signals(asyncio.get_running_loop())
        await self._stop_event.wait()
        return await self.shutdown()

    async def shutdown(self) -> int:
        """Graceful drain; 0 when every in-flight job finished in time."""
        log.info("draining: refusing new work, finishing in-flight jobs")
        self._draining = True
        for srv in self._servers:
            srv.close()
        self.service.begin_drain()
        # Idle connections (blocked waiting for a request line) are cut
        # now; busy ones finish their request and exit their loop.
        for conn in list(self._conns):
            if not conn.busy:
                conn.writer.close()
        if self._conn_tasks:
            await asyncio.wait(self._conn_tasks, timeout=self.drain_grace_s)
        clean = await self.service.drain(self.drain_grace_s)
        for srv in self._servers:
            with contextlib.suppress(Exception):
                await srv.wait_closed()
        for conn in list(self._conns):
            conn.writer.close()
        if self.socket_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)
        if self.ready_file is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.ready_file)
        log.info("drained %s", "clean" if clean else "with stragglers")
        return 0 if clean else 1

    # -- connection handling --------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        metrics = self.service.metrics
        metrics.inc("connections")
        metrics.gauge_add("active_connections", 1)
        conn = _Conn(writer)
        self._conns.add(conn)
        try:
            try:
                first = await reader.readline()
            except ValueError:
                await self._reject_oversize(writer)
                return
            if not first:
                return
            if _HTTP_LINE.match(first):
                metrics.inc("http_requests")
                await self._handle_http(first, reader, writer)
            else:
                await self._ndjson_loop(first, reader, writer, conn)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except Exception:
            log.exception("connection handler failed")
        finally:
            self._conns.discard(conn)
            metrics.gauge_add("active_connections", -1)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _reject_oversize(self, writer: asyncio.StreamWriter) -> None:
        """A line blew the stream limit: answer once, then hang up (the
        byte stream is no longer in sync with line framing)."""
        self.service.metrics.inc("protocol_errors")
        writer.write(protocol.encode_message(protocol.error_response(
            None, "protocol",
            f"request line exceeds {MAX_LINE_BYTES} bytes",
        )))
        with contextlib.suppress(Exception):
            await writer.drain()

    # -- NDJSON ---------------------------------------------------------------
    async def _ndjson_loop(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn: _Conn,
    ) -> None:
        line = first
        while line:
            if line.strip():
                try:
                    doc = protocol.decode_line(line)
                except ProtocolError as exc:
                    # Torn/garbage line: answer with a structured error
                    # and keep the session alive (framing still holds —
                    # we consumed through the newline).
                    self.service.metrics.inc("protocol_errors")
                    writer.write(protocol.encode_message(
                        protocol.error_response(None, exc.kind, str(exc))
                    ))
                    await writer.drain()
                else:
                    conn.busy = True
                    try:
                        emit = None
                        if isinstance(doc, dict) and doc.get("stream"):
                            async def emit(event: Dict[str, Any]) -> None:
                                writer.write(protocol.encode_message(event))
                                await writer.drain()
                        response = await self.service.handle(doc, emit)
                        writer.write(protocol.encode_message(response))
                        await writer.drain()
                    finally:
                        conn.busy = False
            if self._draining:
                return
            try:
                line = await reader.readline()
            except ValueError:
                await self._reject_oversize(writer)
                return

    # -- HTTP/1.1 -------------------------------------------------------------
    async def _handle_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        parts = first.decode("latin-1").strip().split(" ")
        method, path = parts[0], parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        status, body, ctype = await self._http_route(
            method, path, headers, reader
        )
        reason = _HTTP_REASON.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        if method != "HEAD":
            writer.write(body)
        await writer.drain()

    async def _http_route(self, method, path, headers, reader):
        """Returns ``(status, body_bytes, content_type)``."""
        path = path.split("?", 1)[0]
        if method in ("GET", "HEAD"):
            if path == "/healthz":
                if self.service.draining:
                    return 503, b"draining\n", "text/plain; charset=utf-8"
                return 200, b"ok\n", "text/plain; charset=utf-8"
            if path == "/metrics":
                text = self.service.render_metrics()
                return 200, text.encode("utf-8"), "text/plain; charset=utf-8"
            if path == "/stats":
                body = json.dumps(self.service.stats_body()).encode("utf-8")
                return 200, body, "application/json"
            return 404, b'{"error": "not found"}\n', "application/json"
        if method == "POST" and path in ("/run", "/sweep"):
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                length = -1
            if length < 0 or length > _MAX_HTTP_BODY:
                return 413, b'{"error": "bad content-length"}\n', \
                    "application/json"
            raw = await reader.readexactly(length) if length else b""
            try:
                doc = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                doc = None
            if not isinstance(doc, dict):
                body = json.dumps(protocol.error_response(
                    None, "protocol", "POST body must be a JSON object"
                )).encode("utf-8")
                return 400, body + b"\n", "application/json"
            doc.setdefault("verb", path[1:])
            doc.pop("stream", None)  # progress streaming is NDJSON-only
            response = await self.service.handle(doc, None)
            status = 200
            if not response.get("ok"):
                kind = (response.get("error") or {}).get("type", "failed")
                status = _KIND_STATUS.get(kind, 500)
            body = json.dumps(response).encode("utf-8") + b"\n"
            return status, body, "application/json"
        return 405, b'{"error": "method not allowed"}\n', "application/json"


def serve(
    host: str = "127.0.0.1",
    port: Optional[int] = 0,
    socket_path: Optional[str] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    journal: Optional[str] = None,
    max_inflight: int = 8,
    timeout_s: Optional[float] = 300.0,
    ready_file: Optional[str] = None,
    drain_grace_s: float = 30.0,
) -> int:
    """Blocking entry point: build the service, run the daemon to drain."""
    service = SimulationService(
        jobs=jobs,
        cache_dir=cache_dir,
        journal=journal,
        max_inflight=max_inflight,
        default_timeout_s=timeout_s,
    )
    daemon = ServeDaemon(
        service,
        host=host,
        port=port,
        socket_path=socket_path,
        ready_file=ready_file,
        drain_grace_s=drain_grace_s,
    )
    try:
        return asyncio.run(daemon.run())
    finally:
        service.close()
