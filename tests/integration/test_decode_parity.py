"""Decoding perfbench's 80-actor documents.

The decoders keep integer phases as ints and parse each distinct
symbolic rate once per document.  The oracle is the per-call
construction API fed one parsed ``Poly`` per phase, the way every
phase used to be decoded: both must build the same graph — the same
``describe()`` (and ``as_csdf().describe()`` for TPDF), the same rate
sequences, and a re-encoded payload equal to the document with the
same ``payload_fingerprint``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.csdf import CSDFGraph
from repro.io import (
    csdf_from_json,
    graph_from_payload,
    graph_to_payload,
    parse_poly,
    payload_fingerprint,
    tpdf_from_json,
)
from repro.symbolic import Param
from repro.tpdf import TPDFGraph
from repro.tpdf.modes import Mode
from repro.tpdf.ports import PortKind

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from parity import _perfbench_graphs  # noqa: E402

DOCS = [(seed, kind, index) for seed in (1, 2, 3)
        for kind in ("csdf", "tpdf", "param") for index in range(3)]


def _polys(phases) -> list:
    return [parse_poly(str(phase)) for phase in phases]


def _per_call(doc: dict):
    """``doc`` rebuilt through the per-call construction API, every
    rate phase parsed to a ``Poly``."""
    if doc["model"] == "csdf":
        graph = CSDFGraph(doc["name"])
        for actor in doc["actors"]:
            graph.add_actor(actor["name"], exec_time=tuple(actor["exec_times"]))
        for c in doc["channels"]:
            graph.add_channel(c["name"], c["src"], c["dst"],
                              production=_polys(c["production"]),
                              consumption=_polys(c["consumption"]),
                              initial_tokens=c["initial_tokens"])
        return graph
    tpdf = TPDFGraph(doc["name"], parameters=[
        Param(p["name"], lo=p["lo"], hi=p["hi"]) for p in doc["parameters"]])
    for entry in doc["nodes"]:
        assert "clock_period" not in entry and "mode_rates" not in entry
        times = tuple(entry["exec_times"])
        if entry["kind"] == "control":
            node = tpdf.add_control_actor(entry["name"], exec_time=times)
            adders = {PortKind.DATA_IN: node.add_input,
                      PortKind.CONTROL_OUT: node.add_control_output}
        else:
            node = tpdf.add_kernel(entry["name"], exec_time=times,
                                   modes=tuple(Mode(m) for m in entry["modes"]))
            adders = {PortKind.DATA_IN: node.add_input,
                      PortKind.DATA_OUT: node.add_output,
                      PortKind.CONTROL_IN: node.add_control_port}
        node.meta.update(entry["meta"])
        for port in entry["ports"]:
            kind = PortKind(port["kind"])
            extra = {} if kind.is_control() else {"priority": port["priority"]}
            adders[kind](port["name"], _polys(port["rates"]), **extra)
    for c in doc["channels"]:
        tpdf.connect((c["src"], c["src_port"]), (c["dst"], c["dst_port"]),
                     name=c["name"], initial_tokens=c["initial_tokens"])
    return tpdf


def _rate_sequences(graph) -> list:
    if isinstance(graph, CSDFGraph):
        return [(c.production, c.consumption) for c in graph.channels.values()]
    return [port.rates for name in graph.node_names()
            for port in graph.node(name).ports.values()]


@pytest.fixture(scope="module")
def documents():
    graphs = _perfbench_graphs()
    return {key: graphs.make_doc(key[1], 80, key[0], key[2]).doc for key in DOCS}


@pytest.mark.parametrize("key", DOCS, ids=lambda k: f"seed{k[0]}-{k[1]}{k[2]}")
def test_decoders_match_the_per_call_api(documents, key):
    doc = documents[key]
    text = json.dumps(doc)
    from_json = tpdf_from_json if doc["model"] == "tpdf" else csdf_from_json
    oracle = _per_call(doc)
    for decoded in (graph_from_payload(doc), from_json(text)):
        assert type(decoded) is type(oracle)
        assert decoded.describe() == oracle.describe()
        if isinstance(oracle, TPDFGraph):
            assert decoded.as_csdf().describe() == oracle.as_csdf().describe()
        pairs = zip(_rate_sequences(decoded), _rate_sequences(oracle))
        for ours, theirs in pairs:
            assert ours == theirs and hash(ours) == hash(theirs)
            assert repr(ours) == repr(theirs)
        payload = graph_to_payload(decoded)
        assert payload == graph_to_payload(oracle) == doc
        assert payload_fingerprint(payload) == payload_fingerprint(doc)
        assert json.dumps(payload) == text
