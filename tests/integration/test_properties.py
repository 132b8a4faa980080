"""Property-based tests of the core model invariants.

These exercise the library on *generated* graphs, checking the
structural theorems the paper relies on:

* repetition vectors satisfy the balance equations;
* a PASS returns every channel to its initial fill level (Def. 1);
* buffer peaks reported by the analysis are never exceeded when
  replaying the schedule, and are feasible under blocking writes;
* canonical periods respect the token dependencies they encode;
* clustering cycles preserves the repetition vector of the rest of
  the graph;
* the dynamic simulator and the untimed token semantics agree on
  firing counts for plain dataflow graphs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csdf import (
    TokenState,
    bounded_feasible,
    find_sequential_schedule,
    minimal_buffer_schedule,
    schedule_buffer_sizes,
    validate_schedule,
)
from repro.csdf import concrete_repetition_vector as concrete_q
from repro.scheduling import build_canonical_period, late_schedule
from repro.sim import Simulator
from repro.symbolic import Poly
from repro.tpdf import random_consistent_graph, repetition_vector

seeds = st.integers(0, 40)
sizes = st.integers(2, 8)


@given(seed=seeds, n=sizes, extra=st.integers(0, 3))
@settings(max_examples=30)
def test_repetition_satisfies_balance(seed, n, extra):
    graph = random_consistent_graph(n, extra_edges=extra, seed=seed,
                                    with_control=False)
    csdf = graph.as_csdf()
    q = repetition_vector(graph)
    for channel in csdf.channels.values():
        r_src = q[channel.src].try_div(Poly.const(csdf.tau(channel.src)))
        r_dst = q[channel.dst].try_div(Poly.const(csdf.tau(channel.dst)))
        produced = channel.production.cycle_total() * r_src
        consumed = channel.consumption.cycle_total() * r_dst
        assert produced == consumed


@given(seed=seeds, n=sizes)
@settings(max_examples=30)
def test_pass_restores_initial_state(seed, n):
    graph = random_consistent_graph(n, extra_edges=1, seed=seed,
                                    with_control=False).as_csdf()
    schedule = find_sequential_schedule(graph)
    state = validate_schedule(graph, schedule)
    assert state.matches_initial_state()


@given(seed=seeds, n=sizes, policy=st.sampled_from(["grouped", "round_robin"]))
@settings(max_examples=30)
def test_schedule_peaks_are_feasible_capacities(seed, n, policy):
    graph = random_consistent_graph(n, seed=seed, with_control=False).as_csdf()
    schedule = find_sequential_schedule(graph, policy=policy)
    peaks = schedule_buffer_sizes(graph, schedule)
    assert bounded_feasible(graph, peaks)


@given(seed=seeds, n=sizes)
@settings(max_examples=25)
def test_minimal_buffer_schedule_valid_and_no_worse(seed, n):
    graph = random_consistent_graph(n, extra_edges=2, seed=seed,
                                    with_control=False).as_csdf()
    grouped = find_sequential_schedule(graph)
    grouped_total = sum(schedule_buffer_sizes(graph, grouped).values())
    schedule, peaks = minimal_buffer_schedule(graph)
    validate_schedule(graph, schedule)
    assert sum(peaks.values()) <= grouped_total


@given(seed=seeds, n=st.integers(2, 6))
@settings(max_examples=20)
def test_canonical_period_counts_match_q(seed, n):
    graph = random_consistent_graph(n, seed=seed, with_control=False)
    csdf = graph.as_csdf()
    q = concrete_q(csdf)
    period = build_canonical_period(csdf)
    for actor, count in q.items():
        assert len(period.occurrences_of(actor)) == count


@given(seed=seeds, n=st.integers(2, 6))
@settings(max_examples=20)
def test_late_schedule_admissible(seed, n):
    graph = random_consistent_graph(n, extra_edges=1, seed=seed,
                                    with_control=False).as_csdf()
    schedule = late_schedule(graph)
    validate_schedule(graph, schedule)


@given(seed=seeds, n=st.integers(2, 6))
@settings(max_examples=20)
def test_simulator_agrees_with_token_semantics(seed, n):
    """Running one iteration in the DES fires exactly q times per actor
    and leaves channel fills at their initial level."""
    graph = random_consistent_graph(n, seed=seed, with_control=False)
    csdf = graph.as_csdf()
    q = concrete_q(csdf)
    sources = [name for name in csdf.actors if not csdf.in_channels(name)]
    sim = Simulator(graph)
    trace = sim.run(limits=dict(q))
    assert trace.counts() == q
    for channel in csdf.channels.values():
        assert sim.tokens_in(channel.name) == channel.initial_tokens
    assert sources  # sanity: generator always has a source


@given(seed=seeds, n=st.integers(3, 7), cycles=st.integers(1, 2))
@settings(max_examples=15)
def test_clustering_preserves_external_repetition(seed, n, cycles):
    from repro.csdf import cyclic_components
    from repro.tpdf import clustered_graph

    graph = random_consistent_graph(n, n_cycles=cycles, seed=seed,
                                    with_control=False)
    members = {a for scc in cyclic_components(graph.as_csdf()) for a in scc}
    if not members:
        return
    original = repetition_vector(graph)
    clustered = clustered_graph(graph)
    from repro.csdf import repetition_vector as csdf_repetition

    q_clustered = csdf_repetition(clustered)
    for actor, count in original.items():
        if actor not in members and actor in q_clustered:
            assert q_clustered[actor] == count
