"""Cyclo-Static Dataflow (CSDF): the base model TPDF extends.

Implements the reference MoC of Bilsen et al. (1995) as used by the
paper: graphs of actors with cyclic rate sequences, the topology
matrix / repetition-vector analysis (Theorem 1), PASS construction by
symbolic execution, token-count simulation, and buffer sizing.  CSDF is
also the baseline the evaluation compares against (Fig. 8).
"""

from .actor import Actor
from .channel import Channel
from .graph import CSDFGraph, chain
from .rates import RateSequence
from .analysis import (
    base_solution,
    concrete_repetition_vector,
    constant_repetition_vector,
    is_consistent,
    iteration_token_totals,
    repetition_vector,
    topology_matrix,
)
from .schedule import (
    POLICIES,
    SequentialSchedule,
    cycle_subgraph,
    cyclic_components,
    find_sequential_schedule,
    is_live,
    local_iteration,
    validate_schedule,
)
from .simulation import TokenState
from .buffers import (
    bounded_feasible,
    minimal_buffer_schedule,
    schedule_buffer_sizes,
    total_buffer_size,
)
from .eventloop import ReadyWorklist
from .statearrays import ArrayState, array_state
from .throughput import (
    TimedResult,
    buffer_throughput_tradeoff,
    capacity_floors,
    iteration_latency,
    min_buffers_for_full_throughput,
    self_timed_execution,
    self_timed_execution_reference,
    throughput_vs_cores,
    validate_capacities,
)
from .sdf import expand_to_hsdf, hsdf_is_faithful, is_sdf
from .symbuf import (
    bound_is_tight_for_single_appearance,
    symbolic_channel_bounds,
    symbolic_total_bound,
)
from .mcr import max_cycle_ratio, throughput_bound
from .parametric import (
    MCRCandidate,
    ParamDomain,
    PiecewiseMCR,
    Region,
    parametric_mcr,
    verify_piecewise,
)

__all__ = [
    "Actor",
    "Channel",
    "CSDFGraph",
    "chain",
    "RateSequence",
    "topology_matrix",
    "base_solution",
    "repetition_vector",
    "concrete_repetition_vector",
    "constant_repetition_vector",
    "is_consistent",
    "iteration_token_totals",
    "SequentialSchedule",
    "find_sequential_schedule",
    "validate_schedule",
    "is_live",
    "cyclic_components",
    "cycle_subgraph",
    "local_iteration",
    "POLICIES",
    "TokenState",
    "schedule_buffer_sizes",
    "minimal_buffer_schedule",
    "total_buffer_size",
    "bounded_feasible",
    "TimedResult",
    "buffer_throughput_tradeoff",
    "min_buffers_for_full_throughput",
    "self_timed_execution",
    "self_timed_execution_reference",
    "capacity_floors",
    "validate_capacities",
    "ReadyWorklist",
    "ArrayState",
    "array_state",
    "iteration_latency",
    "throughput_vs_cores",
    "expand_to_hsdf",
    "hsdf_is_faithful",
    "is_sdf",
    "symbolic_channel_bounds",
    "symbolic_total_bound",
    "bound_is_tight_for_single_appearance",
    "max_cycle_ratio",
    "throughput_bound",
    "ParamDomain",
    "MCRCandidate",
    "Region",
    "PiecewiseMCR",
    "parametric_mcr",
    "verify_piecewise",
]
