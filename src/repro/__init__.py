"""repro — a reproduction of *Transaction Parameterized Dataflow*
(Do, Louise, Cohen; DATE 2016).

Subpackages
-----------
:mod:`repro.symbolic`
    Exact polynomial/rational algebra over integer parameters.
:mod:`repro.csdf`
    Cyclo-Static Dataflow: the base model and evaluation baseline.
:mod:`repro.tpdf`
    The TPDF model and its static analyses (the paper's contribution).
:mod:`repro.scheduling`
    Canonical periods, many-core list scheduling, ADF pruning (import
    it explicitly: it needs networkx).
:mod:`repro.platform`
    MPPA-256-style clustered machine models.
:mod:`repro.sim`
    Discrete-event execution with control tokens, clocks, deadlines.
:mod:`repro.apps`
    The evaluation case studies (edge detection, OFDM, FM radio);
    import each explicitly (they need numpy, some scipy).
:mod:`repro.analysis`
    The unified batch front door: consistency, liveness, MCR, buffer
    sizing and self-timed throughput over many graphs in one call,
    with all intermediates shared through per-graph caches.
:mod:`repro.diagnostics`
    Static diagnostics engine: structured lint over both graph models
    with stable codes and soundness-proven ERROR passes.

Quick start::

    from repro.tpdf import fig2_graph, repetition_vector
    q = repetition_vector(fig2_graph())      # {'A': 2, 'B': 2p, ...}
"""

from . import analysis, csdf, diagnostics, platform, sim, symbolic, tpdf, util
from .analysis import (
    EditSession,
    GraphReport,
    analyze,
    analyze_batch,
    probe_capacities,
    simulate,
)
from .diagnostics import Diagnostic, Severity, run_diagnostics
from .errors import (
    AnalysisError,
    BoundednessError,
    DeadlockError,
    DiagnosticsError,
    GraphConstructionError,
    RateSafetyError,
    ReproError,
    SchedulingError,
    SimulationError,
    SymbolicRateError,
)

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "diagnostics",
    "Diagnostic",
    "DiagnosticsError",
    "Severity",
    "run_diagnostics",
    "EditSession",
    "GraphReport",
    "analyze",
    "analyze_batch",
    "probe_capacities",
    "simulate",
    "symbolic",
    "csdf",
    "tpdf",
    "platform",
    "sim",
    "util",
    "ReproError",
    "GraphConstructionError",
    "AnalysisError",
    "SymbolicRateError",
    "DeadlockError",
    "RateSafetyError",
    "BoundednessError",
    "SchedulingError",
    "SimulationError",
    "__version__",
]
