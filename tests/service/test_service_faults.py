"""Fault injection: the pool survives worker death, requests never hang.

The contract under crashes (SIGKILL — no chance to clean up):

* a crashed worker is replaced automatically (health check or the
  next request that trips over it);
* a stateless in-flight request is retried on a replacement, bounded
  by ``max_attempts`` — exhaustion is a clean 503
  (:class:`WorkerCrashError` carrying the attempt count), never a hang;
* a session whose worker died is gone for good: 410
  (:class:`SessionLost`) on the in-flight call, 404 afterwards;
* a request head with a malformed ``Content-Length`` is a clean 400
  (:class:`BadRequest`) on a closed connection;
* the service keeps serving correct results after any of the above.

Crashes are induced two ways: the ``crash`` test hook (the worker
SIGKILLs itself the moment the request arrives — deterministic
exhaustion) and an external ``os.kill`` mid-request (the
``sleep_ms`` hook widens the in-flight window).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.analysis import analyze
from repro.service import (BadRequest, ServiceClient, SessionLost,
                           SessionNotFound, WorkerCrashError, error_from_dict,
                           serve_in_thread)

from .conftest import small_csdf


@pytest.fixture
def hooked_service():
    """A small service with fault hooks enabled and no background
    health loop (tests trigger health checks explicitly via GET
    /health, keeping every replacement observable)."""
    with serve_in_thread(workers=2, test_hooks=True, max_attempts=3,
                         health_interval=0) as handle:
        yield handle


class TestRetryBound:

    def test_always_crashing_request_fails_cleanly(self, hooked_service):
        client = ServiceClient(hooked_service.url)
        graph = small_csdf(seed=80)
        with pytest.raises(WorkerCrashError) as excinfo:
            client.analyze(graph, test={"crash": True})
        # the bound is real: exactly max_attempts executions, then stop
        assert excinfo.value.attempts == 3
        assert "3 attempts" in str(excinfo.value)

    def test_custom_attempt_bound_is_honored(self):
        with serve_in_thread(workers=1, test_hooks=True, max_attempts=1,
                             health_interval=0) as handle:
            client = ServiceClient(handle.url)
            with pytest.raises(WorkerCrashError) as excinfo:
                client.analyze(small_csdf(seed=81), test={"crash": True})
            assert excinfo.value.attempts == 1

    def test_service_recovers_after_exhaustion(self, hooked_service):
        client = ServiceClient(hooked_service.url)
        graph = small_csdf(seed=82)
        with pytest.raises(WorkerCrashError):
            client.analyze(graph, test={"crash": True})
        # every crashed worker was replaced in place
        health = client.health()
        assert all(worker["alive"] for worker in health["workers"])
        assert health["worker_restarts"] >= 3
        # and the pool serves correct results again
        report = client.analyze(graph, iterations=3)
        assert report.fingerprint() == analyze(graph,
                                               iterations=3).fingerprint()


class TestMidRequestKill:

    def test_external_sigkill_mid_request_is_retried(self, hooked_service):
        client = ServiceClient(hooked_service.url)
        graph = small_csdf(seed=83)
        pids = [worker["pid"] for worker in client.health()["workers"]]
        result: dict = {}

        def submit() -> None:
            requester = ServiceClient(hooked_service.url)
            result["report"] = requester.analyze(
                graph, iterations=3, test={"sleep_ms": 1500}
            )

        thread = threading.Thread(target=submit)
        thread.start()
        time.sleep(0.4)  # let the request reach a worker's sleep window
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        thread.join(30)
        assert not thread.is_alive(), "request hung after worker death"
        # retried on a replacement worker and completed correctly
        assert result["report"].fingerprint() == analyze(
            graph, iterations=3
        ).fingerprint()
        stats = client.stats()["pool"]
        assert stats["retries"] >= 1
        assert stats["worker_restarts"] >= 1

    def test_health_check_replaces_idle_crashed_worker(self, hooked_service):
        client = ServiceClient(hooked_service.url)
        before = client.health()
        victim = before["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        deadline = time.time() + 5
        while time.time() < deadline:
            after = client.health()  # GET /health runs the check
            pids = [worker["pid"] for worker in after["workers"]]
            # SIGKILL is asynchronous: wait until the victim is truly
            # gone AND its slot holds a live replacement
            if victim not in pids and all(
                worker["alive"] for worker in after["workers"]
            ):
                break
            time.sleep(0.05)
        assert all(worker["alive"] for worker in after["workers"])
        assert victim not in [worker["pid"] for worker in after["workers"]]
        assert after["worker_restarts"] > before["worker_restarts"]


class TestSessionLoss:

    def test_session_crash_is_gone_not_hung(self, hooked_service):
        client = ServiceClient(hooked_service.url)
        graph = small_csdf(seed=84)
        actor = sorted(graph.actors)[0]
        edit = {"op": "set_exec_time", "actor": actor, "value": 5}
        session = client.session(graph, iterations=3)
        with pytest.raises(SessionLost):
            session.edits([edit], test={"crash": True})
        # the session is unrecoverable: subsequent calls are a clean 404
        with pytest.raises(SessionNotFound):
            session.edits([edit])
        # but a fresh session on the (replaced) pool works
        fresh = client.session(graph, iterations=3)
        report = fresh.edits([edit])
        fresh.close()
        assert report.bounded is not None

    def test_other_sessions_survive_one_crash(self, hooked_service):
        client = ServiceClient(hooked_service.url)
        graph_a = small_csdf(seed=85)
        graph_b = small_csdf(seed=86)
        edit_a = {"op": "set_exec_time",
                  "actor": sorted(graph_a.actors)[0], "value": 4}
        edit_b = {"op": "set_exec_time",
                  "actor": sorted(graph_b.actors)[0], "value": 4}
        # two sessions; with 2 workers and an idle-preferring picker
        # they land on different workers
        session_a = client.session(graph_a, iterations=3)
        session_b = client.session(graph_b, iterations=3)
        with pytest.raises(SessionLost):
            session_a.edits([edit_a], test={"crash": True})
        # session_b's worker was not the one that died
        report = session_b.edits([edit_b])
        assert report.bounded is not None
        session_b.close()


class TestMalformedContentLength:

    @staticmethod
    def _exchange(url: str, head: bytes) -> bytes:
        """Send one raw request head; read the reply until the server
        closes the connection."""
        parts = urlsplit(url)
        with socket.create_connection((parts.hostname, parts.port),
                                      timeout=10) as sock:
            sock.sendall(head)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        return reply

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_request_envelope_then_close(self, value):
        with serve_in_thread(workers=1, health_interval=0) as handle:
            reply = self._exchange(
                handle.url,
                f"POST /analyze HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {value}\r\n\r\n".encode("latin-1"))
            head, _, body = reply.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            assert lines[0] == "HTTP/1.1 400 Bad Request"
            assert "Connection: close" in lines
            error = error_from_dict(json.loads(body)["error"], 400)
            assert isinstance(error, BadRequest)
            assert "Content-Length" in str(error)
            # the listener is unharmed
            assert ServiceClient(handle.url).health()["status"] == "ok"
