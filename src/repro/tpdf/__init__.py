"""Transaction Parameterized Dataflow — the paper's model of computation.

This package is the primary contribution of the reproduced paper:
CSDF extended with integer parameters and control actors/channels/ports
(Def. 2), the static analysis chain of Sec. III (rate consistency,
control areas, rate safety, liveness by clustering, boundedness), the
built-in Select-duplicate/Transaction/Clock actors, and graph
transformations (the Fig. 3 virtualization).
"""

from .modes import (
    ControlToken,
    Mode,
    highest_priority,
    select_many,
    select_one,
    wait_all,
)
from .ports import Port, PortKind
from .kernel import ControlActor, Kernel, Node
from .graph import TPDFChannel, TPDFGraph, fig2_graph
from .builtins import ClockActor, clock, select_duplicate, transaction
from .consistency import (
    ConsistencyReport,
    check_consistency,
    concrete_repetition_vector,
    consistency_conditions,
    repetition_vector,
    symbolic_schedule_string,
)
from .areas import (
    LocalSolution,
    area_local_solution,
    control_area,
    influenced,
    local_solution,
    predecessors,
    successors,
)
from .safety import SafetyCheck, SafetyReport, assert_rate_safe, check_rate_safety
from .liveness import (
    CycleVerdict,
    LivenessReport,
    check_cycle,
    check_liveness,
    cluster_cycle,
    clustered_graph,
)
from .boundedness import (
    BoundednessReport,
    assert_bounded,
    buffer_bounds,
    check_boundedness,
)
from .transform import copy_graph, restrict_to_selection, virtualize_select_duplicate
from .randgraph import random_consistent_graph
from .modecheck import ModeCase, ModeEnumeration, enumerate_modes

__all__ = [
    "Mode",
    "ControlToken",
    "select_one",
    "select_many",
    "highest_priority",
    "wait_all",
    "Port",
    "PortKind",
    "Node",
    "Kernel",
    "ControlActor",
    "TPDFGraph",
    "TPDFChannel",
    "fig2_graph",
    "ClockActor",
    "clock",
    "select_duplicate",
    "transaction",
    "ConsistencyReport",
    "check_consistency",
    "repetition_vector",
    "concrete_repetition_vector",
    "consistency_conditions",
    "symbolic_schedule_string",
    "LocalSolution",
    "control_area",
    "influenced",
    "predecessors",
    "successors",
    "local_solution",
    "area_local_solution",
    "SafetyCheck",
    "SafetyReport",
    "check_rate_safety",
    "assert_rate_safe",
    "CycleVerdict",
    "LivenessReport",
    "check_liveness",
    "check_cycle",
    "cluster_cycle",
    "clustered_graph",
    "BoundednessReport",
    "check_boundedness",
    "assert_bounded",
    "buffer_bounds",
    "copy_graph",
    "virtualize_select_duplicate",
    "restrict_to_selection",
    "random_consistent_graph",
    "enumerate_modes",
    "ModeCase",
    "ModeEnumeration",
]
