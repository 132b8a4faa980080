"""The four benchmark workloads.

All four are closed loops: a caller sends its next op only after the
previous one returned.  Each workload makes its inputs from the seed
(:meth:`inputs`), runs timed passes (:meth:`run_pass`), and checks
every result against a reference the code under test does not produce
(per op inside the loop, after the clock stops, and in
:meth:`verify` once the loop is over).

Class shares are fixed per block of ops and shuffled inside the block,
so the share of each op class is the same at any stopping point and
neither p50 nor p90 sits on a boundary between classes.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from repro import analysis
from repro import io as rio
from repro.apps.ofdm import bindings_for, build_ofdm_tpdf
from repro.csdf.mcr import mcr_reference
from repro.service import ServiceClient
from repro.tpdf.modes import ControlToken, Mode

import graphs
import harness
import tracing
from harness import Pass, run_loop
from server import Server

#: analyze() iterations of the cold path (the CLI default).
ITERATIONS = 4


def _blocks(rng: random.Random, block: list, count: int) -> list:
    """``count`` labels: ``block`` repeated, shuffled per repetition."""
    out: list = []
    while len(out) < count:
        chunk = list(block)
        rng.shuffle(chunk)
        out.extend(chunk)
    return out[:count]


def _report_ok(report, expected_q: dict) -> bool:
    """The verdicts and repetition vector known from construction."""
    return (report.consistent and report.live is True
            and report.bounded is True and report.safe in (None, True)
            and report.repetition == expected_q and not report.errors
            and report.mcr is not None)


def _probe(root: Path, workload: str, *extra: str) -> float:
    """Seconds from spawning a fresh interpreter until it finished the
    workload's set-up (see ``probe.py``), scaled to the reference host
    speed."""
    factor = harness.speed_factor()
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")),
         str(root), workload, *extra],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return (json.loads(out.strip().splitlines()[-1])["ready"] - start) / factor


@dataclass
class Context:
    root: Path
    out: Path
    seed: int
    seconds: float


class Workload:
    """Inputs, timed passes and reference checks of one workload."""

    name = ""
    #: set-ups per run; setup_s is their median
    setups = 3
    #: op classes whose median is reported under the given name
    class_metrics: dict = {}

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def inputs(self):
        raise NotImplementedError

    def setup_times(self, inputs) -> list[float]:
        return [_probe(self.ctx.root, self.name)
                for _ in range(self.setups)]

    def run_pass(self, inputs, tracer=None) -> Pass:
        raise NotImplementedError

    def verify(self, inputs, passes: list[Pass]) -> None:
        raise NotImplementedError

    def extra_metrics(self, inputs, result: Pass) -> dict:
        """End-to-end metrics of this workload beyond the common ones."""
        out = {}
        for name, classes in self.class_metrics.items():
            out.update(harness.class_p50(result, classes, name))
        return out

    def layer_metrics(self, inputs, result: Pass, tracer) -> dict:
        """Per-layer metrics of a traced pass beyond the span ones."""
        return {}


# ---------------------------------------------------------------------------
# cold_analyze
# ---------------------------------------------------------------------------

class ColdAnalyze(Workload):
    """One caller; each op parses a fresh graph JSON document, runs
    ``analyze()`` and renders ``GraphReport.summary()`` — the CLI
    ``analyze <file>`` path with interpreter start-up in setup_s."""

    name = "cold_analyze"
    #: ops per block by actor count: p50 is the median of the 40-actor
    #: class, p90 lies well inside the 80-actor class
    SIZES = [20] * 6 + [40] * 8 + [80] * 6
    KINDS = ("csdf", "tpdf", "param")
    #: distinct graphs per (kind, size) class in one run
    POOL = 3

    def inputs(self):
        rng = random.Random(f"{self.ctx.seed}:cold_analyze")
        pool = {}
        for kind in self.KINDS:
            for size in set(self.SIZES):
                for i in range(self.POOL):
                    gd = graphs.make_doc(kind, size, self.ctx.seed, i)
                    pool[(kind, size, i)] = (gd, json.dumps(gd.doc))
        turn = defaultdict(int)
        ops = []
        for index, size in enumerate(_blocks(rng, self.SIZES, self._count())):
            k = turn[size]
            turn[size] += 1
            kind = self.KINDS[k % 3]
            ops.append((index, (f"{kind}{size}", (kind, size, (k // 3) % self.POOL))))
        return pool, ops

    def _count(self) -> int:
        return int(40 * self.ctx.seconds) + harness.MIN_OPS

    def run_pass(self, inputs, tracer=None) -> Pass:
        pool, ops = inputs
        result = Pass()

        def run_one(op):
            gd, text = pool[op[1]]
            decode = rio.tpdf_from_json if gd.kind == "tpdf" else rio.csdf_from_json
            graph = decode(text)
            report = analysis.analyze(graph, gd.bindings, iterations=ITERATIONS)
            return report, report.summary()

        def check(index, op, value):
            report, summary = value
            gd, _ = pool[op[1]]
            result.records[index] = (op[1], report.mcr, report.fingerprint())
            return (_report_ok(report, gd.expected_q)
                    and summary.startswith(f"graph: {gd.doc['name']}\n")
                    and "verdict: bounded" in summary)

        run_loop(ops, self.ctx.seconds, run_one, check, result, tracer)
        result.rss = harness.vm_hwm_mb()
        return result

    def verify(self, inputs, passes):
        pool, _ = inputs
        reference: dict = {}
        first: dict = {}
        for result in passes:
            for index, (key, mcr, fingerprint) in result.records.items():
                if key not in reference:
                    gd, _ = pool[key]
                    graph = rio.graph_from_payload(gd.doc)
                    csdf = graph.as_csdf() if gd.kind == "tpdf" else graph
                    reference[key] = mcr_reference(csdf, gd.bindings)
                ref = reference[key]
                same = first.setdefault(key, fingerprint) == fingerprint
                if not same or abs(mcr - ref) > 1e-6 + 1e-9 * abs(ref):
                    result.fail(index)


# ---------------------------------------------------------------------------
# edit_loop
# ---------------------------------------------------------------------------

class EditLoop(Workload):
    """One caller; EditSessions over three 80-actor CSDF graphs replay
    a seeded edit script and re-analyze after every edit."""

    name = "edit_loop"
    SESSIONS = 3
    ACTORS = 80
    #: ops per block: 70% execution-time edits (p50 inside them), 30%
    #: structural ones (p90 inside them)
    BLOCK = (["exec_core"] * 7 + ["exec_out"] * 7 + ["tokens"] * 2
             + ["rates"] * 2 + ["topology"] * 2)
    #: checked against a cold analysis per edit class
    SAMPLES_PER_CLASS = 2
    class_metrics = {"binding_edit_p50_ms": graphs.BINDING_EDITS,
                     "structural_edit_p50_ms": graphs.STRUCTURAL_EDITS}

    def inputs(self):
        seed = self.ctx.seed
        models = [graphs.csdf_model(random.Random(f"{seed}:edit:{s}"),
                                    self.ACTORS, f"edit{s}")
                  for s in range(self.SESSIONS)]
        docs = [rio.graph_to_payload(graphs.build_csdf(m)) for m in models]
        rng = random.Random(f"{seed}:edit_loop")
        scripts = [graphs.EditScript(copy.deepcopy(m), rng) for m in models]
        ops, samples = [], {}
        wanted = defaultdict(int)
        count = int(40 * self.ctx.seconds) + harness.MIN_OPS
        for index, cls in enumerate(_blocks(rng, self.BLOCK, count)):
            s = rng.randrange(self.SESSIONS)
            edits, expected = scripts[s].next(cls)
            ops.append((index, (cls, s, edits, expected)))
            if index >= 3 and wanted[cls] < self.SAMPLES_PER_CLASS:
                wanted[cls] += 1
                samples[index] = rio.graph_to_payload(
                    graphs.build_csdf(scripts[s].model))
        path = self.ctx.out / f"edit_loop-{seed}-anchors.json"
        path.write_text(json.dumps(docs))
        return docs, ops, samples, path

    def setup_times(self, inputs):
        return [_probe(self.ctx.root, self.name, str(inputs[3]))
                for _ in range(self.setups)]

    def run_pass(self, inputs, tracer=None) -> Pass:
        docs, ops, samples, _ = inputs
        sessions = [analysis.EditSession(rio.graph_from_payload(doc))
                    for doc in docs]
        for session in sessions:
            session.analyze()
        result = Pass()

        def run_one(op):
            session = sessions[op[1]]
            for edit in op[2]:
                session.apply(edit)
            return session.analyze()

        def check(index, op, report):
            if index in samples:
                result.records[index] = report.fingerprint()
            return _report_ok(report, op[3])

        run_loop(ops, self.ctx.seconds, run_one, check, result, tracer)
        result.rss = harness.vm_hwm_mb()
        return result

    def verify(self, inputs, passes):
        _, _, samples, _ = inputs
        cold = {}
        for result in passes:
            for index, fingerprint in result.records.items():
                if index not in cold:
                    cold[index] = analysis.analyze(
                        rio.graph_from_payload(samples[index])).fingerprint()
                if cold[index] != fingerprint:
                    result.fail(index)

    def layer_metrics(self, inputs, result: Pass, tracer) -> dict:
        solves = tracing.solves_by_op(tracer)
        out = {}
        for group, classes in (("binding", graphs.BINDING_EDITS),
                               ("structural", graphs.STRUCTURAL_EDITS)):
            ops = [i for i, cls, _, _ in result.samples if cls in classes]
            out[f"symbolic.balance.solves_per_{group}_edit"] = (
                sum(solves.get(i, 0.0) for i in ops) / len(ops) if ops else 0.0)
        return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@dataclass
class SimInput:
    text: str
    bindings: dict | None
    limits: dict
    cores: int | None = None
    capacities: dict | None = None
    steer: str | None = None   # OFDM: the demapper the decision selects
    firings: int = 0            # known from construction


def _steering(branch: str):
    def decide(_n, _inputs):
        return ControlToken(Mode.SELECT_ONE, (branch,))
    return decide


class Simulate(Workload):
    """One caller; ``simulate()`` with firing limits over the OFDM
    Fig. 7 graph with a steering decision and over random TPDF graphs
    under a core budget and channel capacities."""

    name = "simulate"
    #: iterations of the repetition vector each random graph runs
    ITERATIONS = 4
    #: ops per block: the OFDM graph and random graphs by actor count
    #: (by latency: tpdf40 < ofdm < tpdf60 < tpdf80; p50 inside the
    #: OFDM class, p90 inside the 80-actor one)
    CLASSES = ["tpdf40"] * 4 + ["ofdm"] * 8 + ["tpdf60"] * 3 + ["tpdf80"] * 5

    def inputs(self):
        seed = self.ctx.seed
        rng = random.Random(f"{seed}:simulate")
        ofdm = json.dumps(rio.graph_to_payload(build_ofdm_tpdf()))
        # 16-QAM at M = 4, QPSK at M = 2: the transaction forwards
        # M * beta * N bits of the selected demapper.  Every node but the
        # idle demapper fires once per source firing.
        pool = {
            ("ofdm", 0): SimInput(ofdm, bindings_for(4, 64, 4, 4),
                                  {"SRC": 64}, steer="qam", firings=8 * 64),
            ("ofdm", 1): SimInput(ofdm, bindings_for(4, 64, 4, 2),
                                  {"SRC": 64}, steer="qpsk", firings=8 * 64),
        }
        for size in (40, 60, 80):
            for i, control in enumerate((True, False)):
                doc, q = graphs.tpdf_doc(
                    random.Random(f"{seed}:sim:{size}:{i}"), size,
                    f"sim{size}_{i}", control=control)
                limits = {node: self.ITERATIONS * count
                          for node, count in q.items()}
                pool[(f"tpdf{size}", i)] = SimInput(
                    json.dumps(doc), None, limits, cores=rng.choice((2, 4)),
                    capacities=_capacities(doc, q),
                    firings=sum(limits.values()))
        turn = defaultdict(int)
        ops = []
        count = int(60 * self.ctx.seconds) + harness.MIN_OPS
        for index, cls in enumerate(_blocks(rng, self.CLASSES, count)):
            ops.append((index, (cls, (cls, turn[cls] % 2))))
            turn[cls] += 1
        return pool, ops

    def run_pass(self, inputs, tracer=None) -> Pass:
        pool, ops = inputs
        result = Pass()

        def run_one(op):
            return _simulate(pool[op[1]])

        def check(index, op, trace):
            result.records[index] = (op[1], trace.fingerprint())
            return True

        run_loop(ops, self.ctx.seconds, run_one, check, result, tracer)
        result.rss = harness.vm_hwm_mb()
        result.firings = sum(pool[result.records[i][0]].firings
                             for i, _, _, _ in result.samples)
        return result

    def verify(self, inputs, passes):
        pool, _ = inputs
        reference = {}
        for result in passes:
            for index, (key, fingerprint) in result.records.items():
                if key not in reference:
                    trace = _simulate(pool[key], ready_core="reference")
                    reference[key] = (trace.fingerprint(), len(trace.firings))
                fp, firings = reference[key]
                if fingerprint != fp or firings != pool[key].firings:
                    result.fail(index)

    def extra_metrics(self, inputs, result):
        wall = result.wall / result.speed()
        return {"firings_per_s": (result.firings / wall if wall else 0.0,
                                  "1/s", len(result.samples))}


def _capacities(doc: dict, q: dict) -> dict:
    """Initial tokens plus one iteration's production on every data
    channel between kernels: a sequential iteration fits, so the bound
    applies back-pressure without deadlocking."""
    rates = {(node["name"], port["name"]): int(port["rates"][0])
             for node in doc["nodes"] for port in node["ports"]}
    kernels = {node["name"] for node in doc["nodes"]
               if node["kind"] == "kernel"}
    return {c["name"]: c["initial_tokens"]
            + q[c["src"]] * rates[(c["src"], c["src_port"])]
            for c in doc["channels"]
            if c["src"] in kernels and c["dst"] in kernels}


def _simulate(inp: SimInput, ready_core: str = "arrays"):
    graph = rio.tpdf_from_json(inp.text)
    if inp.steer is not None:
        graph.node("CON").decision = _steering(inp.steer)
    return analysis.simulate(graph, inp.bindings, limits=inp.limits,
                             cores=inp.cores, capacities=inp.capacities,
                             ready_core=ready_core)


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------

#: ops per block of each client thread: p50 inside the repeats, p90
#: inside the cold requests and structural session edits
SERVICE_BLOCK = (["repeat"] * 35 + ["new_options"] * 3 + ["new_graph"] * 2
                 + ["exec_core"] * 2 + ["exec_out"] * 2 + ["tokens"] * 2
                 + ["rates"] * 2 + ["topology"] * 2)
#: iterations values requests choose from
SERVICE_ITERATIONS = (2, 3, 4, 5, 6, 8)
#: graphs a client thread requests before its timed loop
SERVICE_WARM = 3
#: distinct request keys per thread: two threads stay under the
#: service's 256-entry result cache
SERVICE_KEYS = 120


class Service(Workload):
    """``python -m repro serve --workers 2`` on an ephemeral loopback
    port; two client threads replay seeded traces of analyze requests
    and session edits through ``ServiceClient``."""

    name = "service"
    THREADS = 2
    SESSION_ACTORS = 24
    SIZES = (12, 16, 20)
    class_metrics = {"repeat_p50_ms": ("repeat",)}

    def inputs(self):
        seed = self.ctx.seed
        docs: dict = {}

        def doc(gid: int):
            if gid not in docs:
                kind = ("csdf", "tpdf", "param")[gid % 3]
                docs[gid] = graphs.make_doc(kind, self.SIZES[gid // 3 % 3],
                                            seed, gid)
            return docs[gid]

        threads = []
        for t in range(self.THREADS):
            rng = random.Random(f"{seed}:service:{t}")
            model = graphs.csdf_model(random.Random(f"{seed}:session:{t}"),
                                      self.SESSION_ACTORS, f"session{t}")
            threads.append(_client_trace(
                rng, t, self.THREADS, doc, model,
                int(150 * self.ctx.seconds) + harness.MIN_OPS))
        return docs, threads

    def setup_times(self, inputs):
        # the timed pass's own server start is the last sample
        times = []
        for _ in range(self.setups - 1):
            server = self._server()
            try:
                factor = harness.speed_factor()
                times.append(server.start() / factor)
            finally:
                server.stop()
        return times

    def _server(self) -> Server:
        return Server(self.ctx.root, self.ctx.out / "server.log")

    def run_pass(self, inputs, tracer=None) -> Pass:
        docs, threads = inputs
        result = Pass()
        server = self._server()
        try:
            factor = harness.speed_factor()
            result.setup = server.start() / factor
            client = ServiceClient(server.url)
            before = client.stats()
            sessions = []
            for trace in threads:
                for gid, bindings, iterations in trace.warm:
                    client.analyze(docs[gid].doc, bindings,
                                   iterations=iterations)
                sessions.append(client.session(trace.session_doc))
            deadline = tracing.clock() + self.ctx.seconds
            workers = [
                threading.Thread(target=self._client, args=(
                    server.url, trace, session, docs, result, tracer,
                    deadline))
                for trace, session in zip(threads, sessions)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            # Op times stay unscaled: with five busy processes on two
            # CPUs this workload's speed does not follow the
            # single-thread calibration (scaling overcorrected).  The
            # server start above is one interpreter starting, like the
            # in-process set-up probes, and is scaled like them.
            result.samples = [(i, cls, lat, 1.0)
                              for i, cls, lat, _ in result.samples]
            result.stats = (before, client.stats())
            pids = [w["pid"] for w in result.stats[1]["workers"]]
            result.rss = harness.vm_hwm_mb(server.proc.pid) + sum(
                harness.vm_hwm_mb(pid) for pid in pids)
        finally:
            server.stop()
        return result

    def _client(self, url, trace, session, docs, result, tracer, deadline):
        client = ServiceClient(url)

        def run_one(op):
            if op[0].startswith("edit"):
                return session.edits(op[1])
            _cls, gid, bindings, iterations, _q = op
            return client.analyze(docs[gid].doc, bindings,
                                  iterations=iterations)

        def check(index, op, report):
            if op[0].startswith("edit"):
                expected = op[2]
                if op[3] is not None:
                    result.records[index] = ("sample", op[3],
                                             report.fingerprint())
            else:
                expected = op[4]
                result.records[index] = (op[1:4], report.elapsed,
                                         report.fingerprint())
            return _report_ok(report, expected)

        run_loop(trace.ops, self.ctx.seconds, run_one, check, result, tracer,
                 deadline=deadline, min_ops=harness.MIN_OPS // self.THREADS,
                 calibrate=False)

    def verify(self, inputs, passes):
        docs, _ = inputs
        decoded: dict = {}
        direct: dict = {}
        for result in passes:
            for index, record in result.records.items():
                if record[0] == "sample":
                    key = ("sample", json.dumps(record[1], sort_keys=True))
                    if key not in direct:
                        direct[key] = analysis.analyze(
                            rio.graph_from_payload(record[1])).fingerprint()
                else:
                    key = record[0]
                    gid, bindings, iterations = key
                    key = (gid, json.dumps(bindings), iterations)
                    if key not in direct:
                        if gid not in decoded:
                            decoded[gid] = rio.graph_from_payload(docs[gid].doc)
                        direct[key] = analysis.analyze(
                            decoded[gid], bindings,
                            iterations=iterations).fingerprint()
                if direct[key] != record[-1]:
                    result.fail(index)

    def layer_metrics(self, inputs, result: Pass, tracer) -> dict:
        """Service counters from ``GET /stats`` at the pass's start and
        end, and the worker's share of first-occurrence requests."""
        before, after = result.stats
        cache = {k: after["cache"][k] - before["cache"][k]
                 for k in ("hits", "misses", "coalesced", "evictions")}
        pool = {k: after["pool"][k] - before["pool"][k]
                for k in ("requests", "retries", "worker_restarts")}
        ops = max(len(result.samples), 1)
        computed = [(lat, result.records[i][1])
                    for i, cls, lat, _ in result.samples
                    if cls in ("new_options", "new_graph")]
        lookups = cache["hits"] + cache["misses"] + cache["coalesced"]
        return {
            "service.worker.ms_per_computed":
                _mean([elapsed for _, elapsed in computed]) * 1000.0,
            "service.overhead.ms_per_computed":
                _mean([lat - elapsed for lat, elapsed in computed]) * 1000.0,
            "service.rescache.hit_ratio":
                cache["hits"] / lookups if lookups else 0.0,
            "service.rescache.coalesced": float(cache["coalesced"]),
            "service.rescache.evictions": float(cache["evictions"]),
            "service.pool.requests_per_op": pool["requests"] / ops,
            "service.pool.retries": float(pool["retries"]),
            "service.pool.worker_restarts": float(pool["worker_restarts"]),
            "service.workers.resident_graphs": float(sum(
                w.get("resident_graphs", 0) for w in after["workers"])),
        }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class ClientTrace:
    warm: list
    session_doc: dict
    ops: list


def _client_trace(rng: random.Random, thread: int, threads: int, doc,
                  model: graphs.Model, count: int) -> ClientTrace:
    """One client thread's seeded request trace.

    Graph ids are split between the threads (``gid % threads``) and
    repeats only re-send this thread's own earlier requests, so every
    op's class is fixed by the trace: a repeat hits the result cache, a
    new option set on a known graph misses it and goes to whichever
    worker the pool picks, and a new graph has never been sent.
    Popularity over known graphs is Zipf-like (weight ``1 / rank``).
    """
    fresh = (gid for gid in range(thread, 10**6, threads))
    known: list[int] = []
    keys: dict[int, list] = defaultdict(list)

    def options(gid):
        gd = doc(gid)
        values = graphs.P_VALUES if gd.kind == "param" else (None,)
        return [({"p": p} if p else None, it)
                for p in values for it in SERVICE_ITERATIONS]

    def expected(gid, bindings):
        gd = doc(gid)
        if gd.kind == "param":
            return gd.model.expected_q(bindings["p"])
        return gd.expected_q

    def request(gid, bindings, iterations):
        if gid not in known:
            known.append(gid)
        keys[gid].append((bindings, iterations))
        return (gid, bindings, iterations, expected(gid, bindings))

    def new_key(gid):
        unused = [o for o in options(gid) if o not in keys[gid]]
        return request(gid, *rng.choice(unused)) if unused else None

    def popular() -> int:
        return rng.choices(known, weights=[1 / (r + 1) for r in range(len(known))])[0]

    warm = [new_key(next(fresh))[:3] for _ in range(SERVICE_WARM)]
    session_doc = rio.graph_to_payload(graphs.build_csdf(model))
    script = graphs.EditScript(model, rng)
    sampled = defaultdict(int)
    ops = []
    budget = SERVICE_KEYS - SERVICE_WARM
    for position, cls in enumerate(_blocks(rng, SERVICE_BLOCK, count)):
        index = position * threads + thread  # unique across threads
        if cls in graphs.BINDING_EDITS or cls in graphs.STRUCTURAL_EDITS:
            edits, q = script.next(cls)
            snapshot = None
            if sampled[cls] < 2:
                sampled[cls] += 1
                snapshot = rio.graph_to_payload(graphs.build_csdf(model))
            group = "binding" if cls in graphs.BINDING_EDITS else "structural"
            ops.append((index, (f"edit_{group}", edits, q, snapshot)))
            continue
        op = None
        if cls == "new_graph" and budget > 0:
            op = new_key(next(fresh))
        elif cls == "new_options" and budget > 0:
            for _ in range(10):
                op = new_key(popular())
                if op is not None:
                    break
        if op is None:
            cls = "repeat"
            gid = popular()
            op = (gid, *rng.choice(keys[gid]))
            op = (*op, expected(gid, op[1]))
        else:
            budget -= 1
        ops.append((index, (cls, *op)))
    return ClientTrace(warm, session_doc, ops)


WORKLOADS = {cls.name: cls for cls in (ColdAnalyze, EditLoop, Simulate, Service)}
