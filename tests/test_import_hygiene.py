"""The analysis core runs on the standard library alone.

One subprocess blocks numpy, networkx and scipy (``sys.modules[name] =
None`` makes any import of them raise), imports ``repro`` and the
modules a benchmark set-up probe loads, and drives every front door
the core serves: ``analyze()`` on a cyclo-static CSDF graph, on a TPDF
graph with a control actor inside a cycle and over a parameter domain,
the buffer search, ``simulate()`` under a core budget and capacities,
the diagnostics passes behind DEAD002, STRUCT002 and STRUCT003, an
``EditSession`` execution-time edit and a report round trip through
``repro.io``.  Only the case studies (``repro.apps``), the scheduling
package and the ``to_networkx()`` exports need the third-party
packages.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r'''
import sys

for name in ("numpy", "networkx", "scipy"):
    sys.modules[name] = None

import repro
from repro import analysis, io
import repro.csdf.schedule
import repro.sim.schedplane
import repro.tpdf.boundedness
from repro.csdf import CSDFGraph, min_buffers_for_full_throughput
from repro.diagnostics import run_diagnostics
from repro.gallery import fig1_graph, parametric_radio_graph
from repro.tpdf import TPDFGraph, clock
from repro.tpdf.modes import Mode


def control_cycle():
    """A -> C -> B -> A, with the control actor C inside the cycle."""
    g = TPDFGraph("control_cycle")
    a = g.add_kernel("A", exec_time=2.0)
    a.add_input("back", 1)
    a.add_output("out", 1)
    c = g.add_control_actor("C", exec_time=1.0)
    c.add_input("in", 1)
    c.add_control_output("ctrl", 1)
    b = g.add_kernel("B", exec_time=1.0,
                     modes=(Mode.WAIT_ALL, Mode.SELECT_ONE))
    b.add_control_port("ctrl", 1)
    b.add_output("back", 1)
    g.connect("A.out", "C.in", name="ac")
    g.connect("C.ctrl", "B.ctrl", name="cb")
    g.connect("B.back", "A.back", name="ba", initial_tokens=1)
    return g


def codes(graph):
    return {d.code for d in run_diagnostics(graph)}


fig1 = fig1_graph()
fig1.actor("a1").set_exec_time([1.0, 2.0, 3.0])
report = analysis.analyze(fig1)
assert report.bounded and report.live and report.mcr is not None
assert report.throughput is not None

cycle = analysis.analyze(control_cycle())
assert cycle.live and cycle.mcr == 4.0, cycle.summary()

radio = analysis.analyze(parametric_radio_graph(),
                         parametric_domain={"b": (1, 4), "c": (1, 4)})
assert radio.parametric is not None

caps = min_buffers_for_full_throughput(fig1_graph())
assert set(caps) == {"e1", "e2", "e3"}

trace = analysis.simulate(control_cycle(), limits={"A": 5}, cores=2,
                          capacities={"ac": 1, "cb": 1, "ba": 1})
assert trace.count("A") == 5

dead = CSDFGraph("dead")
dead.add_actor("a")
dead.add_actor("b")
dead.add_channel("ab", "a", "b")
dead.add_channel("ba", "b", "a")
assert "DEAD002" in codes(dead)
assert "STRUCT002" in codes(fig1_graph())
clocked = TPDFGraph()
ck = clock(clocked, "ck", period=1.0)
ck.add_input("feedback", 1)
k = clocked.add_kernel("k")
k.add_control_port("ctrl", 1)
k.add_output("out", 1)
clocked.connect("ck.tick", "k.ctrl")
clocked.connect("k.out", "ck.feedback", initial_tokens=1)
assert "STRUCT003" in codes(clocked)

session = analysis.EditSession(fig1_graph())
before = session.analyze()
session.set_exec_time("a2", 5.0)
after = session.analyze()
assert after.mcr != before.mcr

wire = io.report_to_dict(after)
assert io.report_from_dict(wire).fingerprint() == after.fingerprint()

loaded = sorted(name for name in ("numpy", "networkx", "scipy")
                if sys.modules.get(name) is not None)
assert not loaded, loaded
print("ok")
'''


def test_core_runs_without_numpy_networkx_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
