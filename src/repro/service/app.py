"""The resident analysis service: asyncio HTTP front door.

``AnalysisService`` glues the three resident pieces together:

* a :class:`~repro.service.pool.WorkerPool` of persistent analysis
  workers (decoded graphs and :mod:`repro.cache` state stay warm
  across requests, crashed workers are replaced automatically),
* a :class:`~repro.service.rescache.ResultCache` keyed by content
  fingerprint with single-flight dedup (identical concurrent
  submissions compute once; all callers get bit-for-bit the same
  response), and
* a thin framework-free HTTP/1.1 router on ``asyncio.start_server``
  (stdlib only — no web framework in the dependency footprint).

Endpoints (all bodies JSON, all graphs in the :mod:`repro.io` payload
codec)::

    GET    /health                     worker slots; replaces dead ones
    GET    /stats                      cache + pool + session counters
    POST   /analyze                    {"graph", "bindings", "options"}
    POST   /analyze_parametric         {"graph", "domain", "max_boxes"}
    POST   /simulate                   {"graph", "bindings", "options"}
    POST   /lint                       {"graph", "bindings"} -> diagnostics
    POST   /batch                      {"graphs", "items", "options"}
    POST   /session                    open an edit-replay session
    POST   /session/<sid>/edits        apply edits + re-analyze (warm);
                                       {"preflight": true} dry-runs the
                                       script first and 422s with the
                                       diagnostics if it would end broken
    DELETE /session/<sid>              close a session

Errors come back as the structured envelope of
:mod:`repro.service.wire` with the status :func:`~repro.service.wire.error_status`
assigns, so a deadlock surfaces as 422 + its blocked-actor set and a
malformed request as 400 — the client reconstructs the original
exception type either way.

For tests and docs, :func:`serve_in_thread` runs a service on an
ephemeral port inside a daemon thread and tears it down on exit.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import re
import threading
from typing import Callable, NamedTuple

from ..analysis import STAGE_SWITCHES
from ..cache import bindings_key, domain_key
from ..errors import as_count
from ..io import (parametric_report_to_dict, payload_fingerprint,
                  report_to_dict, trace_to_dict)
from .pool import WorkerPool
from .rescache import ResultCache
from .wire import (BadRequest, SessionNotFound, error_from_dict, error_status,
                   error_to_dict)

#: ``analyze`` options accepted over the wire, all plain values: the
#: stage switches and the stages' parameters.
_ANALYZE_OPTIONS = frozenset({*STAGE_SWITCHES, "iterations",
                              "parametric_domain"})

#: ``simulate`` options accepted over the wire.  ``record_values`` is
#: deliberately absent: token payloads are arbitrary Python objects
#: with no JSON form (the timing view ships; see
#: :func:`repro.io.trace_to_dict`).
_SIMULATE_OPTIONS = frozenset({
    "until", "limits", "max_firings", "cores", "capacities",
})


def _options(data, allowed: frozenset, op: str) -> dict:
    """The wire ``options`` object of ``op``: an object naming only
    ``allowed`` options (absent means none)."""
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise BadRequest(f"options must be an object, got {type(data).__name__}")
    unknown = set(data) - allowed
    if unknown:
        raise BadRequest(f"unknown {op} options: {sorted(unknown)}")
    return dict(data)


def _parse_options(data) -> dict:
    """Validate/normalize the wire ``options`` object for ``analyze``.

    ``iterations`` is checked here, before any result-cache key is
    built: single-flight coalescing must never hand a valid request the
    error of a concurrent invalid one that shares its key."""
    options = _options(data, _ANALYZE_OPTIONS, "analyze")
    if "iterations" in options:
        options["iterations"] = as_count("iterations", options["iterations"],
                                         minimum=1)
    domain = options.get("parametric_domain")
    if isinstance(domain, dict):
        # JSON has no tuples; bounds arrive as 2-lists.
        options["parametric_domain"] = {
            name: tuple(bounds) for name, bounds in domain.items()
        }
    return options


def _parse_simulate_options(data) -> dict:
    """Validate the wire ``options`` object for ``simulate``: absent or
    not, it must name a stop condition."""
    options = _options(data, _SIMULATE_OPTIONS, "simulate")
    if all(options.get(name) is None
           for name in ("until", "limits", "max_firings")):
        raise BadRequest(
            "simulate needs a stop condition in options: "
            "'until', 'limits' or 'max_firings'"
        )
    return options


def _analyze_key(options: dict) -> tuple:
    """Cache-key view of parsed ``analyze`` options: ``iterations``
    sizes only the timed run, so it keys the result only when
    ``with_throughput`` asks for that run."""
    if not options.get("with_throughput"):
        options = {name: value for name, value in options.items()
                   if name != "iterations"}
    return _options_key(options)


def _options_key(options: dict) -> tuple:
    """Hashable cache-key view of a parsed options object."""
    items = []
    for name in sorted(options):
        value = options[name]
        if name == "parametric_domain":
            value = domain_key(value)
        elif isinstance(value, dict):
            value = tuple(sorted(value.items()))
        items.append((name, value))
    return tuple(items)


def _parametric_args(data) -> dict:
    domain = data.get("domain")
    if not isinstance(domain, dict) or not domain:
        raise BadRequest("analyze_parametric needs a non-empty "
                         "'domain' object of name -> [lo, hi]")
    return {"domain": {name: tuple(bounds) for name, bounds in domain.items()},
            "max_boxes": as_count("max_boxes", data.get("max_boxes", 20_000))}


class _Op(NamedTuple):
    """One stateless endpoint: its worker op (also the cache-key tag),
    the parser of its request into worker arguments, their cache-key
    parts, and the encoder of the worker's reply into response fields."""

    name: str
    parse: Callable[[dict], dict]
    key: Callable[[dict], tuple]
    encode: Callable[[dict], dict]


#: Endpoint path -> its op.  ``/batch`` items run the ``analyze`` op.
_OPS = {
    "analyze": _Op(
        "analyze",
        lambda data: {"bindings": data.get("bindings"),
                      "options": _parse_options(data.get("options"))},
        lambda args: (bindings_key(args["bindings"]),
                      _analyze_key(args["options"])),
        lambda reply: {"report": report_to_dict(reply["report"])},
    ),
    "analyze_parametric": _Op(
        "parametric", _parametric_args,
        lambda args: (domain_key(args["domain"]), args["max_boxes"]),
        lambda reply: {"report": parametric_report_to_dict(reply["parametric"])},
    ),
    "simulate": _Op(
        "simulate",
        lambda data: {"bindings": data.get("bindings"),
                      "options": _parse_simulate_options(data.get("options"))},
        lambda args: (bindings_key(args["bindings"]),
                      _options_key(args["options"])),
        lambda reply: {"trace": trace_to_dict(reply["trace"])},
    ),
    "lint": _Op(
        "lint",
        lambda data: {"bindings": data.get("bindings")},
        lambda args: (bindings_key(args["bindings"]),),
        lambda reply: {"diagnostics": reply["diagnostics"]},
    ),
}


class _Session:
    """Parent-side record of one edit-replay session: which worker
    holds it (sticky — the worker owns the mutable graph) and the
    latest content key its graph resolves to."""

    __slots__ = ("sid", "handle", "graph_key", "lock")

    def __init__(self, sid: str, handle, graph_key: str):
        self.sid = sid
        self.handle = handle
        self.graph_key = graph_key
        self.lock = asyncio.Lock()


class AnalysisService:
    """A resident analysis service instance (see module docs)."""

    def __init__(self, *, workers: int = 2, cache_limit: int = 256,
                 max_attempts: int = 3, test_hooks: bool = False,
                 health_interval: float = 2.0,
                 start_method: str | None = None):
        self.pool = WorkerPool(workers, max_attempts=max_attempts,
                               test_hooks=test_hooks,
                               start_method=start_method)
        self.cache = ResultCache(cache_limit)
        self.test_hooks = test_hooks
        self.health_interval = health_interval
        self.sessions: dict[str, _Session] = {}
        self._session_ids = itertools.count(1)
        self._server: asyncio.AbstractServer | None = None
        self._health_task: asyncio.Task | None = None
        self._client_tasks: set[asyncio.Task] = set()
        self.requests = 0
        self.host: str | None = None
        self.port: int | None = None

    # -- lifecycle -------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        await self.pool.start()
        self._server = await asyncio.start_server(self._serve_client,
                                                  host, port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        if self.health_interval:
            self._health_task = asyncio.ensure_future(self._health_loop())

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
            self._health_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # closing the listener does not close accepted keep-alive
        # connections; reap them so the loop shuts down clean
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks,
                                 return_exceptions=True)
        await self.pool.stop()
        self.sessions.clear()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            await self.pool.check_health()

    # -- HTTP plumbing ---------------------------------------------------
    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
            task.add_done_callback(self._client_tasks.discard)
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, path, _version = (
                        request_line.decode("latin-1").split()
                    )
                except ValueError:
                    await self._respond(writer, 400, {
                        "error": {"type": "BadRequest",
                                  "message": "malformed request line"}})
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                raw_length = headers.get("content-length") or "0"
                if not (raw_length.isascii() and raw_length.isdigit()):
                    await self._respond(writer, 400, {
                        "error": {"type": "BadRequest",
                                  "message": "malformed Content-Length "
                                             f"{raw_length!r}"}},
                        keep_alive=False)
                    break
                length = int(raw_length)
                body = await reader.readexactly(length) if length else b""
                status, payload = await self._dispatch(method, path, body)
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._respond(writer, status, payload,
                                    keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict, *, keep_alive: bool = True) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 410: "Gone",
                  422: "Unprocessable Entity",
                  503: "Service Unavailable"}.get(status, "Error")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                f"\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    _ROUTES = (
        (re.compile(r"^/health$"), {"GET": "_handle_health"}),
        (re.compile(r"^/stats$"), {"GET": "_handle_stats"}),
        (re.compile(r"^/(?P<endpoint>analyze|analyze_parametric|simulate"
                    r"|lint)$"), {"POST": "_run_op"}),
        (re.compile(r"^/batch$"), {"POST": "_handle_batch"}),
        (re.compile(r"^/session$"), {"POST": "_handle_session_open"}),
        (re.compile(r"^/session/(?P<sid>[\w-]+)/edits$"),
         {"POST": "_handle_session_edits"}),
        (re.compile(r"^/session/(?P<sid>[\w-]+)$"),
         {"DELETE": "_handle_session_close"}),
    )

    async def _dispatch(self, method: str, path: str,
                        body: bytes) -> tuple[int, dict]:
        self.requests += 1
        for pattern, methods in self._ROUTES:
            match = pattern.match(path)
            if match is None:
                continue
            name = methods.get(method)
            if name is None:
                return 405, {"error": {
                    "type": "BadRequest",
                    "message": f"{method} not allowed on {path}"}}
            try:
                if body:
                    try:
                        data = json.loads(body)
                    except json.JSONDecodeError as exc:
                        raise BadRequest(f"request body is not JSON: {exc}")
                else:
                    data = {}
                return 200, await getattr(self, name)(data,
                                                      **match.groupdict())
            except Exception as exc:
                return error_status(exc), {"error": error_to_dict(exc)}
        return 404, {"error": {"type": "BadRequest",
                               "message": f"no such endpoint: {path}"}}

    # -- request helpers -------------------------------------------------
    def _graph_payload(self, data, field: str = "graph"):
        payload = data.get(field)
        if not isinstance(payload, dict):
            raise BadRequest(f"request is missing a {field!r} payload object")
        return payload, payload_fingerprint(payload)

    def _hooks(self, data):
        hooks = data.get("test")
        if hooks and not self.test_hooks:
            raise BadRequest("test hooks are disabled on this service")
        return hooks or None

    async def _call_worker(self, request: dict, *, handle=None) -> dict:
        """Submit to the pool; re-raise worker-reported errors as the
        exception they encode (so dispatch maps them back to the same
        envelope + status)."""
        reply = await self.pool.submit(request, handle=handle)
        if not reply.get("ok"):
            raise error_from_dict(reply["error"])
        return reply

    # -- endpoint handlers -----------------------------------------------
    async def _handle_health(self, data) -> dict:
        workers = await self.pool.check_health()
        return {"status": "ok", "workers": workers,
                "worker_restarts": self.pool.stats["worker_restarts"]}

    async def _handle_stats(self, data) -> dict:
        return {
            "requests": self.requests,
            "cache": {**self.cache.stats, "entries": len(self.cache),
                      "evictions": self.cache.evictions},
            "pool": dict(self.pool.stats),
            "sessions": len(self.sessions),
            "workers": await self._worker_stats(),
        }

    async def _worker_stats(self) -> list:
        """Per-worker resident-state rows for ``GET /stats``: each live
        worker reports its decode-cache occupancy (``resident_graphs``)
        and session count over a ``ping``; a dead worker's slot is
        reported rather than hidden (the health loop replaces it)."""

        async def one(handle) -> dict:
            row = {"slot": handle.slot, "pid": handle.pid,
                   "alive": (not handle.dead) and handle.proc.is_alive()}
            if not row["alive"]:
                return row
            try:
                reply = await self.pool.submit({"op": "ping"}, handle=handle)
                row["resident_graphs"] = reply.get("resident_graphs", 0)
                row["sessions"] = reply.get("sessions", 0)
            except Exception:
                row["alive"] = False
            return row

        return list(await asyncio.gather(
            *(one(handle) for handle in list(self.pool.workers))
        ))

    async def _run_op(self, data, endpoint: str) -> dict:
        """The one path of every stateless request: parse it, run it on
        a worker through the result cache, encode the reply.  Analyses,
        diagnostics and simulations are pure and deterministic in the
        graph content and the arguments, so one computed response
        serves every identical request."""
        op = _OPS[endpoint]
        payload, graph_key = self._graph_payload(data)
        args = op.parse(data)
        hooks = self._hooks(data)
        key = (op.name, graph_key, *op.key(args))
        request = {"op": op.name, "graph_key": graph_key, "payload": payload,
                   **args, "hooks": hooks}

        async def compute() -> dict:
            reply = await self._call_worker(request)
            return {"graph_key": graph_key, **op.encode(reply)}

        if data.get("no_cache") or hooks:
            # Hooked requests must actually reach a worker (the fault
            # suite depends on it); no_cache measures resident-warm
            # latency without the front cache.
            return await compute()
        return await self.cache.get_or_compute(key, compute)

    async def _handle_batch(self, data) -> dict:
        graphs = data.get("graphs", [])
        items = data.get("items")
        if not isinstance(items, list) or not items:
            raise BadRequest("batch needs a non-empty 'items' list")
        shared_options = data.get("options")

        def item_request(item) -> dict:
            if not isinstance(item, dict):
                raise BadRequest("each batch item must be an object")
            graph = item.get("graph")
            if isinstance(graph, int):
                try:
                    graph = graphs[graph]
                except IndexError:
                    raise BadRequest(
                        f"batch item references graph #{item['graph']} "
                        f"but only {len(graphs)} graphs were supplied"
                    ) from None
            sub = {"graph": graph, "bindings": item.get("bindings"),
                   "options": item.get("options", shared_options)}
            if data.get("no_cache"):
                sub["no_cache"] = True
            return sub

        async def run_item(item) -> dict:
            try:
                return await self._run_op(item_request(item), "analyze")
            except Exception as exc:
                return {"error": error_to_dict(exc),
                        "status": error_status(exc)}

        results = await asyncio.gather(*(run_item(item) for item in items))
        return {"results": list(results)}

    async def _handle_session_open(self, data) -> dict:
        payload, graph_key = self._graph_payload(data)
        bindings = data.get("bindings")
        options = _parse_options(data.get("options"))
        hooks = self._hooks(data)
        sid = f"s{next(self._session_ids):04d}"
        handle = self.pool.pick()
        reply = await self._call_worker(
            {"op": "session_open", "session": sid, "graph_key": graph_key,
             "payload": payload, "bindings": bindings, "options": options,
             "hooks": hooks},
            handle=handle,
        )
        self.sessions[sid] = _Session(sid, handle, graph_key)
        return {"session": sid, "graph_key": graph_key,
                "report": report_to_dict(reply["report"])}

    def _session(self, sid: str) -> _Session:
        session = self.sessions.get(sid)
        if session is None:
            raise SessionNotFound(f"no such session: {sid!r}")
        return session

    async def _handle_session_edits(self, data, sid: str) -> dict:
        session = self._session(sid)
        edits = data.get("edits")
        if not isinstance(edits, list):
            raise BadRequest("session edits need an 'edits' list")
        hooks = self._hooks(data)
        async with session.lock:
            try:
                reply = await self._call_worker(
                    {"op": "session_edits", "session": sid, "edits": edits,
                     "preflight": bool(data.get("preflight")),
                     "hooks": hooks},
                    handle=session.handle,
                )
            except Exception:
                if session.handle.dead:
                    # The resident state died with the worker.
                    self.sessions.pop(sid, None)
                raise
            session.graph_key = reply["graph_key"]
        # The edited graph has a new content key, so any cached result
        # for the old key is simply unreachable — staleness cannot
        # occur; a later /analyze of the edited graph misses and
        # computes fresh (warm == cold, bit for bit).
        return {"session": sid, "graph_key": reply["graph_key"],
                "report": report_to_dict(reply["report"])}

    async def _handle_session_close(self, data, sid: str) -> dict:
        session = self._session(sid)
        self.sessions.pop(sid, None)
        if not session.handle.dead:
            with contextlib.suppress(Exception):
                await self._call_worker(
                    {"op": "session_close", "session": sid},
                    handle=session.handle,
                )
        return {"session": sid, "closed": True}


# ---------------------------------------------------------------------------
# Thread-hosted serving (tests, docs, quick experiments)
# ---------------------------------------------------------------------------

class ServiceThread:
    """A service running inside a daemon thread's event loop."""

    def __init__(self, service: AnalysisService, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.service = service
        self.loop = loop
        self.thread = thread

    @property
    def url(self) -> str:
        return self.service.url

    def call(self, coro):
        """Run a coroutine on the service loop, synchronously."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(30)

    def stop(self) -> None:
        if not self.thread.is_alive():
            return
        self.call(self.service.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)


@contextlib.contextmanager
def serve_in_thread(host: str = "127.0.0.1", port: int = 0, **kwargs):
    """Run an :class:`AnalysisService` on a background thread.

    Yields a :class:`ServiceThread` whose ``url`` points at the live
    service (ephemeral port by default); the service and its workers
    are torn down when the block exits.
    """
    service = AnalysisService(**kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.call_soon(started.set)
        loop.run_forever()

    thread = threading.Thread(target=run, name="repro-service", daemon=True)
    thread.start()
    started.wait(10)
    handle = ServiceThread(service, loop, thread)
    handle.call(service.start(host, port))
    try:
        yield handle
    finally:
        handle.stop()
