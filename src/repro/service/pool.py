"""The persistent analysis worker pool.

The repo's one process pool.  It starts its workers **once** and
keeps them resident, so sustained service traffic pays no per-call
process spin-up or graph decode: each worker holds a bounded decode
cache of warm graphs keyed by payload content
fingerprint (:class:`repro.cache.ContentStore`), so a graph that was
ever analyzed stays decoded, its :mod:`repro.cache` state — balance
solutions, MCR core structure, per-core MCR memos, SoA execution
templates — warm across requests, and a repeat request (different
bindings, more iterations, a parametric domain) pays only the delta.

Failure model
-------------
Workers are separate processes; a crash (OOM kill, segfault in a
native extension, an explicit SIGKILL in the fault-injection suite)
surfaces parent-side as EOF on the worker's pipe.  The pool then
replaces the worker and, for stateless requests, retries on the
replacement up to the configured attempt bound — analysis is
deterministic and side-effect free, so a retry is always safe.  A
request that crashes every worker it touches fails cleanly with
:class:`~repro.service.wire.WorkerCrashError` (HTTP 503), never a
hang.  Session requests are *sticky* (the worker holds the session's
mutable graph), so a crash there is not retriable: the pool raises
:class:`~repro.service.wire.SessionLost` and the app reports 410 for
that session from then on.  Idle crashed workers are replaced by
:meth:`WorkerPool.check_health` (called by ``GET /health`` and the
app's periodic health task).

The wire between app and worker is a ``multiprocessing.Pipe``
carrying plain dict requests and pickled replies (``GraphReport`` with
the graph detached).  Blocking pipe I/O is pushed onto a small
thread executor so the asyncio front door never blocks.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import multiprocessing
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

from ..analysis import EditSession, analyze, analyze_parametric, simulate
from ..cache import ContentStore
from ..diagnostics import run_diagnostics
from ..io import graph_from_payload, graph_to_payload, payload_fingerprint
from .wire import (SessionLost, SessionNotFound, WorkerCrashError,
                   error_to_dict)

#: Decoded-graph LRU entries each worker keeps resident.
_DECODE_LIMIT = 32


class _WorkerDied(Exception):
    """Internal: the pipe to the worker broke mid-roundtrip."""


# ---------------------------------------------------------------------------
# Worker process side
# ---------------------------------------------------------------------------

def _apply_test_hooks(request: dict) -> None:
    """Fault-injection hooks, honored only when the pool was built with
    ``test_hooks=True`` (the fault suite): ``sleep_ms`` widens the
    in-flight window so the test can SIGKILL the worker mid-request;
    ``crash`` SIGKILLs the worker the moment the request arrives (the
    retry-bound test: every attempt kills its worker)."""
    hooks = request.get("hooks") or {}
    if hooks.get("sleep_ms"):
        time.sleep(float(hooks["sleep_ms"]) / 1000.0)
    if hooks.get("crash"):
        os.kill(os.getpid(), signal.SIGKILL)


def _detached(report):
    return dataclasses.replace(report, graph=None)


#: Stateless worker ops: each runs on the shared, cache-warm resident
#: graph of the request's payload and returns its reply fields.  None
#: mutates the graph: diagnostics are pure, and the simulator keeps all
#: run state private.
_STATELESS_OPS = {
    "analyze": lambda graph, request: {"report": _detached(analyze(
        graph, request.get("bindings"), **request.get("options", {})))},
    "parametric": lambda graph, request: {"parametric": analyze_parametric(
        graph, request["domain"], max_boxes=request["max_boxes"])},
    "lint": lambda graph, request: {"diagnostics": [
        d.to_dict()
        for d in run_diagnostics(graph, bindings=request.get("bindings"))]},
    "simulate": lambda graph, request: {"trace": simulate(
        graph, request.get("bindings"), **request.get("options", {}))},
}


def _worker_main(conn, test_hooks: bool) -> None:
    """Worker entry point: serve requests until shutdown or EOF.

    Resident state: ``graphs`` (content-fingerprint-keyed LRU of
    decoded, cache-warm graphs shared by all stateless requests) and
    ``sessions`` (edit sessions, each owning a *private* decoded graph
    because sessions mutate it)."""
    graphs = ContentStore(_DECODE_LIMIT)
    sessions: dict = {}

    def resident_graph(request):
        # A fresh decode has cold caches: its first op computes what it
        # needs, and every later op on the graph shares that.
        key = request["graph_key"]
        graph = graphs.get(key)
        if graph is None:
            graph = graph_from_payload(request["payload"])
            graphs.put(key, graph)
        return graph

    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        op = request.get("op")
        if op == "shutdown":
            break
        try:
            if test_hooks:
                _apply_test_hooks(request)
            if op in _STATELESS_OPS:
                reply = {"ok": True,
                         **_STATELESS_OPS[op](resident_graph(request), request)}
            elif op == "ping":
                reply = {"ok": True, "pid": os.getpid(),
                         "resident_graphs": len(graphs),
                         "sessions": len(sessions)}
            elif op == "session_open":
                # Sessions edit their graph in place: decode a private
                # instance, never the shared resident one.
                graph = graph_from_payload(request["payload"])
                session = EditSession(graph, request.get("bindings"),
                                      **request.get("options", {}))
                report = session.analyze()
                sessions[request["session"]] = session
                reply = {"ok": True, "report": _detached(report),
                         "graph_key": request["graph_key"]}
            elif op == "session_edits":
                session = sessions.get(request["session"])
                if session is None:
                    raise SessionNotFound(
                        f"unknown session {request['session']!r} on this worker"
                    )
                if request.get("preflight"):
                    # Raises DiagnosticsError (→ 422 envelope with the
                    # findings) before any edit touches the session.
                    session.preflight(request.get("edits", []))
                for edit in request.get("edits", []):
                    session.apply(edit)
                report = session.analyze()
                new_key = payload_fingerprint(graph_to_payload(session.graph))
                reply = {"ok": True, "report": _detached(report),
                         "graph_key": new_key}
            elif op == "session_close":
                sessions.pop(request.get("session"), None)
                reply = {"ok": True}
            else:
                raise ValueError(f"unknown worker op {op!r}")
        except Exception as exc:  # deterministic failures ride the envelope
            reply = {"ok": False, "error": error_to_dict(exc)}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break


# ---------------------------------------------------------------------------
# Parent (asyncio) side
# ---------------------------------------------------------------------------

def _roundtrip(conn, request: dict) -> dict:
    """Blocking send/recv, run on the pool's thread executor.  A dead
    worker surfaces as EOF/broken pipe on either leg."""
    try:
        conn.send(request)
        return conn.recv()
    except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise _WorkerDied(str(exc)) from exc


class WorkerHandle:
    """One pool slot's live worker: process, pipe, and an asyncio lock
    serializing requests on the (single-lane) pipe."""

    __slots__ = ("slot", "generation", "proc", "conn", "lock", "dead")

    def __init__(self, slot: int, generation: int, proc, conn):
        self.slot = slot
        self.generation = generation
        self.proc = proc
        self.conn = conn
        self.lock = asyncio.Lock()
        self.dead = False

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def describe(self) -> dict:
        return {
            "slot": self.slot,
            "generation": self.generation,
            "pid": self.pid,
            "alive": (not self.dead) and self.proc.is_alive(),
        }


class WorkerPool:
    """Managed persistent pool of analysis workers (see module docs)."""

    def __init__(self, size: int = 2, *,
                 max_attempts: int = 3,
                 test_hooks: bool = False,
                 start_method: str | None = None):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.size = size
        self.max_attempts = max_attempts
        self.test_hooks = test_hooks
        if start_method is None:
            # fork keeps worker start cheap (no re-import of the
            # analysis stack); fall back where it does not exist.
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._generations = itertools.count(1)
        self._rr = itertools.count()
        self.workers: list[WorkerHandle] = []
        self._executor: ThreadPoolExecutor | None = None
        self.stats = {"requests": 0, "worker_restarts": 0, "retries": 0}

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        if self._executor is not None:
            raise RuntimeError("pool already started")
        # One thread per worker (each can be mid-roundtrip) plus one
        # spare for health/shutdown traffic.
        self._executor = ThreadPoolExecutor(
            max_workers=self.size + 1, thread_name_prefix="repro-pool"
        )
        self.workers = [self._spawn(slot) for slot in range(self.size)]

    def _spawn(self, slot: int) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.test_hooks),
            name=f"repro-analysis-worker-{slot}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent keeps one end; worker death -> EOF
        return WorkerHandle(slot, next(self._generations), proc, parent_conn)

    async def stop(self) -> None:
        if self._executor is None:
            return
        for handle in self.workers:
            handle.dead = True
            try:
                handle.conn.send({"op": "shutdown"})
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for handle in self.workers:
            handle.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.proc.is_alive():
                handle.proc.kill()
            handle.conn.close()
        self.workers = []
        self._executor.shutdown(wait=False)
        self._executor = None

    # -- crash handling --------------------------------------------------
    def _replace(self, handle: WorkerHandle) -> None:
        """Replace a dead worker in its slot (idempotent per handle).
        The old pipe is left to the garbage collector on purpose: a
        roundtrip thread may still be blocked on it, and process death
        already guarantees it EOFs."""
        if handle.dead:
            return
        handle.dead = True
        if handle.proc.is_alive():
            handle.proc.kill()
        self.workers[handle.slot] = self._spawn(handle.slot)
        self.stats["worker_restarts"] += 1

    async def check_health(self) -> list[dict]:
        """Replace any crashed idle worker; report every slot's state."""
        for handle in list(self.workers):
            if handle.dead or not handle.proc.is_alive():
                self._replace(handle)
        return [handle.describe() for handle in self.workers]

    # -- dispatch --------------------------------------------------------
    def pick(self) -> WorkerHandle:
        """Choose a worker for a new request or session: the first
        idle one at or after the round-robin cursor, else whoever the
        cursor points at (requests queue on its lock)."""
        start = next(self._rr)
        candidates = [self.workers[(start + i) % self.size]
                      for i in range(self.size)]
        for handle in candidates:
            if not handle.dead and not handle.lock.locked():
                return handle
        return candidates[0]

    async def submit(self, request: dict, *,
                     handle: WorkerHandle | None = None) -> dict:
        """Send one request; return the worker's reply dict.

        Stateless requests (no ``handle``) are retried on a fresh
        worker after a crash, up to ``max_attempts`` total executions.
        Sticky requests raise :class:`SessionLost` on the first crash
        — the state they addressed died with the worker.
        """
        if self._executor is None:
            raise RuntimeError("pool is not running")
        sticky = handle is not None
        loop = asyncio.get_running_loop()
        attempts = 0
        while True:
            target = handle if sticky else self.pick()
            if target.dead:
                if sticky:
                    raise SessionLost(
                        "the worker holding this session crashed; "
                        "reopen the session"
                    )
                continue  # pick() again: the slot was already replaced
            async with target.lock:
                if target.dead:
                    continue
                attempts += 1
                self.stats["requests"] += 1
                try:
                    return await loop.run_in_executor(
                        self._executor, _roundtrip, target.conn, request
                    )
                except _WorkerDied:
                    self._replace(target)
            # (lock released: the dead handle's lock is obsolete)
            if sticky:
                raise SessionLost(
                    "the worker holding this session crashed; "
                    "reopen the session"
                )
            if attempts >= self.max_attempts:
                raise WorkerCrashError(
                    f"request failed after {attempts} attempts: the "
                    f"analysis worker crashed on every try",
                    attempts=attempts,
                )
            self.stats["retries"] += 1
