"""Liveness analysis of TPDF graphs (Sec. III-C).

A (C)SDF/TPDF graph can only deadlock through a directed cycle, and
TPDF's topology changes never *add* firing constraints (rejected tokens
merely go unused), so the analysis reduces to the cyclic parts:

1. find the non-trivial strongly connected components (cycles) of the
   CSDF view (:func:`repro.csdf.schedule.cyclic_components`);
2. for each cycle ``Z``, compute the **local solution** ``q^L``
   (Def. 4) — for consistent graphs this is typically parameter-free
   even when the global repetition vector is parametric (Fig. 4(a):
   ``q^L_B = q^L_C = 2`` although ``q = [2, 2p, 2p]``);
3. schedule the cycle *in isolation* (external inputs assumed
   plentiful) for one local iteration by exhaustive symbolic
   execution, round robin, as plain CSDF's
   :func:`~repro.csdf.schedule.is_live` does.  Maximal execution
   strategies are complete for the monotonic CSDF firing rule, so
   interleaved schedules such as the paper's late schedule
   ``(B C C B)`` for Fig. 4(b) are found whenever any schedule exists;
4. **cluster** each live cycle into a single actor ``Omega`` whose
   external rates are the cycle's per-local-iteration totals (Fig. 4(c))
   — the clustered graph is acyclic and consistent, hence live, which
   lifts local liveness to the whole graph.

When a cycle's local solution (or its internal rates) stays parametric,
the cycle is validated on sampled parameter valuations and reported as
live-by-witness; the report records the witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..csdf.graph import CSDFGraph
from ..csdf.schedule import (
    SequentialSchedule, cycle_subgraph, cyclic_components, find_sequential_schedule,
)
from ..errors import AnalysisError, DeadlockError
from ..symbolic import Poly
from .areas import LocalSolution, local_solution
from .consistency import require_consistent
from .graph import TPDFGraph


@dataclass
class CycleVerdict:
    """Liveness result for one strongly connected cycle."""

    actors: tuple[str, ...]
    local: LocalSolution
    live: bool
    #: A valid local schedule (for the first witness when parametric).
    schedule: SequentialSchedule | None = None
    #: True when decided symbolically (concrete local solution & rates).
    decided_symbolically: bool = True
    #: Parameter valuations used when sampling was needed.
    witnesses: list[dict[str, int]] = field(default_factory=list)
    reason: str = ""

    def __str__(self) -> str:
        verdict = "live" if self.live else "DEADLOCK"
        extra = "" if self.decided_symbolically else f" (witnesses: {self.witnesses})"
        sched = f"; local schedule: {self.schedule}" if self.schedule else ""
        return f"cycle {self.actors}: {verdict}{extra}{sched}"


@dataclass
class LivenessReport:
    live: bool
    cycles: list[CycleVerdict] = field(default_factory=list)
    reason: str = ""

    def __str__(self) -> str:
        head = "live" if self.live else f"NOT live: {self.reason}"
        return "\n".join([head] + [f"  {verdict}" for verdict in self.cycles])


def _sample_bindings(graph: TPDFGraph, names: set[str], limit: int = 8) -> list[dict[str, int]]:
    """Cartesian samples of the relevant parameter domains (capped)."""
    relevant = [graph.parameters[name] for name in sorted(names) if name in graph.parameters]
    if not relevant:
        return [{}]
    pools = [param.sample_values(3) for param in relevant]
    combos = []
    for values in itertools.product(*pools):
        combos.append({param.name: value for param, value in zip(relevant, values)})
        if len(combos) >= limit:
            break
    return combos


def check_cycle(graph: TPDFGraph, subset: tuple[str, ...]) -> CycleVerdict:
    """Decide liveness of one cycle via its local iteration: once when
    the local solution and the cycle's rates are parameter-free, else
    once per sampled witness valuation."""
    local = local_solution(graph, subset)
    sub = cycle_subgraph(graph.as_csdf(), subset, owner=graph.name)
    concrete = local.as_ints() if local.is_concrete() else None
    names = sub.parameters()
    if concrete is None:
        names = names | {v for count in local.counts.values() for v in count.variables()}
    symbolic = not names
    witnesses = [] if symbolic else _sample_bindings(graph, names)
    schedules = []
    for bindings in witnesses or [{}]:
        counts = concrete if concrete is not None else {
            name: count.evaluate_int(bindings) for name, count in local.counts.items()
        }
        try:
            schedules.append(find_sequential_schedule(
                sub, bindings, policy="round_robin", repetitions=counts))
        except DeadlockError as exc:
            reason = str(exc) if symbolic else f"deadlocks under {bindings}: {exc}"
            return CycleVerdict(subset, local, False, decided_symbolically=symbolic,
                                witnesses=witnesses, reason=reason)
    return CycleVerdict(subset, local, True, schedule=schedules[0],
                        decided_symbolically=symbolic, witnesses=witnesses)


def check_liveness(graph: TPDFGraph) -> LivenessReport:
    """Full liveness analysis: every cycle live + consistency.

    Consistency is re-verified here because liveness is only meaningful
    relative to a repetition vector.
    """
    try:
        require_consistent(graph)
    except Exception as exc:  # InconsistentRatesError or AnalysisError
        return LivenessReport(live=False, reason=f"not consistent: {exc}")
    verdicts = [check_cycle(graph, subset)
                for subset in cyclic_components(graph.as_csdf())]
    dead = [v for v in verdicts if not v.live]
    if dead:
        return LivenessReport(
            live=False,
            cycles=verdicts,
            reason="; ".join(v.reason for v in dead),
        )
    return LivenessReport(live=True, cycles=verdicts)


def cluster_cycle(
    csdf: CSDFGraph,
    subset: Iterable[str],
    counts: Mapping[str, Poly],
    name: str = "Omega",
) -> CSDFGraph:
    """Replace a cycle by a single actor ``Omega`` (the clustering of
    Sec. III-C / Fig. 4(c)).

    External channel rates on ``Omega`` become the per-local-iteration
    totals ``Y_i(q^L_i)`` / ``X_i(q^L_i)``; internal channels vanish.
    One firing of ``Omega`` stands for one local iteration of the cycle.
    """
    subset = set(subset)
    if name in csdf.actors:
        raise AnalysisError(f"cluster name {name!r} collides with an existing actor")
    clustered = CSDFGraph(f"{csdf.name}/clustered")
    for actor_name, actor in csdf.actors.items():
        if actor_name not in subset:
            clustered.add_actor(actor_name, exec_time=actor.exec_times)
    clustered.add_actor(name)
    for channel in csdf.channels.values():
        inside_src = channel.src in subset
        inside_dst = channel.dst in subset
        if inside_src and inside_dst:
            continue
        production = channel.production
        consumption = channel.consumption
        src, dst = channel.src, channel.dst
        if inside_src:
            count = Poly.coerce(counts[channel.src])
            production = [channel.production.cumulative_symbolic(count)]
            src = name
        if inside_dst:
            count = Poly.coerce(counts[channel.dst])
            consumption = [channel.consumption.cumulative_symbolic(count)]
            dst = name
        clustered.add_channel(
            channel.name, src, dst,
            production=production,
            consumption=consumption,
            initial_tokens=channel.initial_tokens,
        )
    return clustered


def clustered_graph(graph: TPDFGraph) -> CSDFGraph:
    """Cluster *every* cycle of the graph, yielding the acyclic
    CSDF abstraction used to lift local liveness to the whole graph."""
    csdf = graph.as_csdf()
    for index, subset in enumerate(cyclic_components(csdf)):
        local = local_solution(graph, subset)
        csdf = cluster_cycle(csdf, subset, local.counts, name=f"Omega{index or ''}")
    return csdf
