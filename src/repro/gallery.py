"""Gallery: every graph that appears in the paper, ready-built.

One-stop construction of the figures for experiments, docs and tests:

* :func:`fig1_graph` — the CSDF example (q = [3, 2, 2]);
* :func:`fig2_graph` — the TPDF running example (re-exported);
* :func:`fig3_graph` — the select-duplicate application the
  virtualization rewrite targets;
* :func:`fig4_graph` — the liveness examples (cases "a", "b", or a
  deliberately dead variant);
* :func:`fig6_graph` — edge detection with a 500 ms clock;
* :func:`fig7_graph` — the OFDM demodulator (re-exported).
"""

from __future__ import annotations

from .csdf.graph import CSDFGraph
from .symbolic import Param
from .tpdf.graph import TPDFGraph, fig2_graph
from .tpdf.builtins import select_duplicate


def fig1_graph() -> CSDFGraph:
    """Fig. 1: the CSDF example with q = [3, 2, 2].

    The figure's rate annotations are garbled in the available text;
    this assignment is the unique one consistent with the paper's
    repetition vector, its schedule ``(a3)^2 (a1)^3 (a2)^2`` and the
    statement that execution "can only start by firing a3 twice".
    """
    g = CSDFGraph("fig1")
    for name in ("a1", "a2", "a3"):
        g.add_actor(name)
    g.add_channel("e1", "a1", "a2", [1, 0, 1], [1, 1])
    g.add_channel("e2", "a2", "a3", [1], [0, 2], initial_tokens=2)
    g.add_channel("e3", "a3", "a1", [2], [1, 1, 2])
    return g


def parametric_radio_graph() -> CSDFGraph:
    """A two-parameter software-radio front-end (parametric MCR demo).

    ``b`` is the demodulator block size, ``c`` the number of concurrent
    channels.  The antenna emits ``b*c`` samples per activation, the
    FIR stage filters one channel's block per firing, the demodulator
    processes one symbol at a time, and an AGC loop (self-loop state
    token) regulates the front-end once per activation:

    * ``q = [ANT: 1, AGC: 1, FIR: c, DEM: b*c, SNK: 1]``
    * MCR(b, c) = max(6, 3*c, b*c) — the AGC loop bounds small
      configurations, the FIR ring medium ones, and the demodulator's
      serialized symbol work dominates for ``b >= 3``.

    Used by ``examples/parametric_throughput.py``, the parametric-MCR
    differential suite and the EXT5 benchmark.
    """
    b, c = Param("b"), Param("c")
    g = CSDFGraph("radio2p")
    g.add_actor("ANT", exec_time=4)
    g.add_actor("AGC", exec_time=6)
    g.add_actor("FIR", exec_time=3)
    g.add_actor("DEM", exec_time=1)
    g.add_actor("SNK", exec_time=2)
    g.add_channel("rf", "ANT", "FIR", production=b * c, consumption=b)
    g.add_channel("agc_in", "ANT", "AGC", production=1, consumption=1)
    g.add_channel("agc_state", "AGC", "AGC", production=1, consumption=1,
                  initial_tokens=1)
    g.add_channel("sym", "FIR", "DEM", production=b, consumption=1)
    g.add_channel("bits", "DEM", "SNK", production=1, consumption=b * c)
    return g


def fig3_graph() -> TPDFGraph:
    """Fig. 3 (left): B select-duplicates between branches D and E.

    Apply :func:`repro.tpdf.virtualize_select_duplicate` to obtain the
    right-hand equivalent with virtual actors.
    """
    g = TPDFGraph("fig3")
    a = g.add_kernel("A")
    a.add_output("out", 1)
    a.add_output("sig", 1)
    select_duplicate(g, "B", outputs=2, output_names=["to_d", "to_e"])
    ctrl = g.add_control_actor("CTRL")
    ctrl.add_input("in", 1)
    ctrl.add_control_output("out", 1)
    d = g.add_kernel("D")
    d.add_input("in", 1)
    e = g.add_kernel("E")
    e.add_input("in", 1)
    g.connect("A.out", "B.in")
    g.connect("A.sig", "CTRL.in")
    g.connect("CTRL.out", "B.ctrl")
    g.connect("B.to_d", "D.in")
    g.connect("B.to_e", "E.in")
    return g


def fig4_graph(case: str = "a") -> TPDFGraph:
    """Fig. 4 liveness examples.

    ``case="a"``: back-edge production [0, 2], two initial tokens;
    ``case="b"``: production [2, 0], one initial token (live only with
    interleaved schedules); ``case="dead"``: no initial tokens.
    """
    configs = {
        "a": ([0, 2], 2),
        "b": ([2, 0], 1),
        "dead": ([2, 0], 0),
    }
    if case not in configs:
        raise ValueError(f"case must be one of {sorted(configs)}, got {case!r}")
    back_production, initial = configs[case]
    p = Param("p")
    g = TPDFGraph(f"fig4{case}", parameters=[p])
    a = g.add_kernel("A")
    a.add_output("out", [p, p])
    b = g.add_kernel("B")
    b.add_input("in", [1, 1])
    b.add_output("to_c", 1)
    b.add_input("back", [1, 1])
    c = g.add_kernel("C")
    c.add_input("in", 1)
    c.add_output("back", back_production)
    g.connect("A.out", "B.in", name="e1")
    g.connect("B.to_c", "C.in", name="e2")
    g.connect("C.back", "B.back", name="e3", initial_tokens=initial)
    return g


def fig6_graph(image_size: int = 1024, period: float = 500.0):
    """Fig. 6: the edge-detection application (graph, results sink)."""
    import numpy as np

    from .apps.edge.pipeline import build_edge_graph

    return build_edge_graph([np.zeros((image_size, image_size))], period=period)


def fig7_graph() -> TPDFGraph:
    """Fig. 7: the OFDM demodulator (symbolic rates)."""
    from .apps.ofdm.pipeline import build_ofdm_tpdf

    return build_ofdm_tpdf()


__all__ = [
    "fig1_graph",
    "fig2_graph",
    "fig3_graph",
    "fig4_graph",
    "fig6_graph",
    "fig7_graph",
]
