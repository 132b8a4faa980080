"""Synchronous python client of the resident analysis service.

``ServiceClient`` speaks the service's JSON wire form over a plain
:class:`http.client.HTTPConnection` (stdlib only) and converts both
directions back to library types: graphs go out through
:func:`repro.io.graph_to_payload`, reports come back through
:func:`repro.io.report_from_dict` /
:func:`repro.io.parametric_report_from_dict`, and error envelopes are
re-raised as the original exception type via
:func:`repro.service.wire.error_from_dict` — a caller catches
:class:`~repro.errors.DeadlockError` from the service exactly as it
would from a direct :func:`repro.analysis.analyze` call.

>>> client = ServiceClient(handle.url)          # doctest: +SKIP
>>> report = client.analyze(graph, {"p": 2})    # doctest: +SKIP
>>> report.fingerprint() == analyze(graph, {"p": 2}).fingerprint()
...                                             # doctest: +SKIP
True
"""

from __future__ import annotations

import contextlib
import http.client
import json
from typing import Mapping
from urllib.parse import urlsplit

from ..io import (graph_to_payload, parametric_report_from_dict,
                  report_from_dict, trace_from_dict)
from .wire import error_from_dict


def _graph_arg(graph) -> dict:
    """Accept a live graph or an already-encoded payload dict."""
    if isinstance(graph, dict):
        return graph
    return graph_to_payload(graph)


class ServiceSession:
    """Client handle on one server-side edit-replay session."""

    def __init__(self, client: "ServiceClient", sid: str, graph_key: str,
                 report):
        self.client = client
        self.sid = sid
        self.graph_key = graph_key
        #: Baseline report from opening the session.
        self.report = report

    def edits(self, edits: list, *, preflight: bool = False,
              test: Mapping | None = None):
        """Apply an edit script and return the re-analyzed report.

        With ``preflight=True`` the server dry-runs the script on a
        scratch copy first and raises
        :class:`~repro.errors.DiagnosticsError` (with the structured
        findings attached) instead of replaying a script that would
        end in a statically-broken state — the session graph stays at
        its pre-script state in that case."""
        body: dict = {"edits": list(edits)}
        if preflight:
            body["preflight"] = True
        if test:
            body["test"] = dict(test)
        data = self.client._request("POST", f"/session/{self.sid}/edits",
                                    body)
        self.graph_key = data["graph_key"]
        self.report = report_from_dict(data["report"])
        return self.report

    def close(self) -> None:
        self.client._request("DELETE", f"/session/{self.sid}")

    def __enter__(self) -> "ServiceSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServiceClient:
    """Blocking HTTP client for :class:`~repro.service.app.AnalysisService`."""

    def __init__(self, base_url: str, timeout: float = 60.0):
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", ""):
            raise ValueError(f"only http:// service URLs are supported, "
                             f"got {base_url!r}")
        netloc = parts.netloc or parts.path
        self.host, _, port = netloc.partition(":")
        self.port = int(port) if port else 80
        self.timeout = timeout

    # -- transport -------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Mapping | None = None) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None \
                else b""
            # A body the server refuses (413) and stops discarding after
            # its drain time meets a reset here; the reply is still to
            # be read.
            with contextlib.suppress(BrokenPipeError, ConnectionResetError):
                conn.request(method, path, body=payload,
                             headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        if response.status >= 400:
            raise error_from_dict(data.get("error", {}),
                                  status=response.status)
        return data

    # -- endpoints -------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/health")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def analyze(self, graph, bindings: Mapping | None = None, *,
                no_cache: bool = False, test: Mapping | None = None,
                **options):
        """Remote :func:`repro.analysis.analyze`; returns a
        :class:`~repro.analysis.GraphReport` (``graph`` detached)."""
        body: dict = {"graph": _graph_arg(graph)}
        if bindings:
            body["bindings"] = dict(bindings)
        if options:
            body["options"] = options
        if no_cache:
            body["no_cache"] = True
        if test:
            body["test"] = dict(test)
        data = self._request("POST", "/analyze", body)
        return report_from_dict(data["report"])

    def simulate(self, graph, bindings: Mapping | None = None, *,
                 until: float | None = None,
                 limits: Mapping | None = None,
                 max_firings: int | None = None,
                 cores: int | None = None,
                 capacities: Mapping | None = None,
                 no_cache: bool = False):
        """Remote :func:`repro.analysis.simulate` on its default core
        (the reference loop stays a local cross-check,
        :func:`repro.analysis.simulate_reference`); returns the timing
        view of the :class:`~repro.sim.Trace` (firings, modes,
        discards, peaks — no token payloads).  A deadlock raises
        :class:`~repro.errors.DeadlockError` with its blocked set,
        exactly as the direct call would."""
        options: dict = {}
        if until is not None:
            options["until"] = until
        if limits is not None:
            options["limits"] = dict(limits)
        if max_firings is not None:
            options["max_firings"] = max_firings
        if cores is not None:
            options["cores"] = cores
        if capacities is not None:
            options["capacities"] = dict(capacities)
        body: dict = {"graph": _graph_arg(graph), "options": options}
        if bindings:
            body["bindings"] = dict(bindings)
        if no_cache:
            body["no_cache"] = True
        data = self._request("POST", "/simulate", body)
        return trace_from_dict(data["trace"])

    def lint(self, graph, bindings: Mapping | None = None, *,
             no_cache: bool = False) -> list:
        """Remote :func:`repro.diagnostics.run_diagnostics`; returns
        the list of :class:`~repro.diagnostics.Diagnostic` records."""
        from ..diagnostics import Diagnostic

        body: dict = {"graph": _graph_arg(graph)}
        if bindings:
            body["bindings"] = dict(bindings)
        if no_cache:
            body["no_cache"] = True
        data = self._request("POST", "/lint", body)
        return [Diagnostic.from_dict(row) for row in data["diagnostics"]]

    def analyze_parametric(self, graph, domain: Mapping, *,
                           max_boxes: int = 20_000,
                           no_cache: bool = False):
        """Remote :func:`repro.analysis.analyze_parametric`."""
        body = {"graph": _graph_arg(graph),
                "domain": {name: list(bounds)
                           for name, bounds in dict(domain).items()},
                "max_boxes": max_boxes}
        if no_cache:
            body["no_cache"] = True
        data = self._request("POST", "/analyze_parametric", body)
        return parametric_report_from_dict(data["report"])

    def batch(self, items, *, no_cache: bool = False, **options) -> list:
        """Submit many analyses in one request.

        ``items`` is a list of graphs or ``(graph, bindings)`` pairs.
        Returns a list of :class:`~repro.analysis.GraphReport`; a
        failed item's slot holds the reconstructed exception instead.
        """
        graphs: list = []
        wire_items = []
        for item in items:
            graph, bindings = item if isinstance(item, tuple) else (item, None)
            graphs.append(_graph_arg(graph))
            entry: dict = {"graph": len(graphs) - 1}
            if bindings:
                entry["bindings"] = dict(bindings)
            wire_items.append(entry)
        body: dict = {"graphs": graphs, "items": wire_items}
        if options:
            body["options"] = options
        if no_cache:
            body["no_cache"] = True
        data = self._request("POST", "/batch", body)
        results = []
        for entry in data["results"]:
            if "error" in entry:
                results.append(error_from_dict(entry["error"],
                                               status=entry.get("status")))
            else:
                results.append(report_from_dict(entry["report"]))
        return results

    def session(self, graph, bindings: Mapping | None = None,
                **options) -> ServiceSession:
        """Open an edit-replay session (server-side
        :class:`~repro.analysis.EditSession`)."""
        body: dict = {"graph": _graph_arg(graph)}
        if bindings:
            body["bindings"] = dict(bindings)
        if options:
            body["options"] = options
        data = self._request("POST", "/session", body)
        return ServiceSession(self, data["session"], data["graph_key"],
                              report_from_dict(data["report"]))
