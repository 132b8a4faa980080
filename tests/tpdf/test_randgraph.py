"""Tests for the random consistent graph generator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tpdf import (
    check_consistency,
    check_liveness,
    random_consistent_graph,
    repetition_vector,
)


class TestGeneratedGraphs:
    def test_deterministic(self):
        a = random_consistent_graph(6, seed=5)
        b = random_consistent_graph(6, seed=5)
        assert repetition_vector(a) == repetition_vector(b)

    def test_consistent_by_construction(self):
        g = random_consistent_graph(10, extra_edges=4, seed=1)
        assert check_consistency(g).consistent

    def test_cycles_are_live(self):
        g = random_consistent_graph(8, extra_edges=2, n_cycles=2, seed=2)
        assert check_liveness(g).live

    def test_parametric_generation(self):
        g = random_consistent_graph(8, seed=3, parametric=True)
        q = repetition_vector(g)
        assert any(not poly.is_const() for poly in q.values())

    def test_control_machinery_attached(self):
        g = random_consistent_graph(5, seed=4, with_control=True)
        assert "ctrl0" in g.controls
        assert any(c.is_control for c in g.channels.values())

    def test_without_control(self):
        g = random_consistent_graph(5, seed=4, with_control=False)
        assert not g.controls

    def test_minimum_size_enforced(self):
        import pytest

        with pytest.raises(ValueError):
            random_consistent_graph(1)


class TestGeneratorFoundation:
    """The differential suites (MCR, service parity) draw their random
    corpora from this generator; pin its determinism and rate algebra
    so those suites rest on a tested foundation."""

    def test_structurally_deterministic(self):
        """Same seed => identical *serialized structure* (nodes, ports,
        rates, priorities, channels, initial tokens), not merely the
        same repetition vector."""
        from repro.io import graph_to_payload

        for seed in (0, 3, 11):
            a = random_consistent_graph(7, extra_edges=3, n_cycles=2, seed=seed)
            b = random_consistent_graph(7, extra_edges=3, n_cycles=2, seed=seed)
            assert graph_to_payload(a) == graph_to_payload(b)

    def test_parametric_structurally_deterministic(self):
        from repro.io import graph_to_payload

        a = random_consistent_graph(6, seed=5, parametric=True)
        b = random_consistent_graph(6, seed=5, parametric=True)
        assert graph_to_payload(a) == graph_to_payload(b)

    def test_distinct_seeds_differ(self):
        from repro.io import graph_to_payload

        payloads = [
            graph_to_payload(random_consistent_graph(6, extra_edges=2, seed=s))
            for s in range(6)
        ]
        assert any(p != payloads[0] for p in payloads[1:])

    def test_every_channel_is_rate_balanced(self):
        """Consistency-rate invariant, channel by channel: with base
        solution r, each data channel satisfies
        ``r_src * production == r_dst * consumption`` per cycle."""
        from repro.csdf.analysis import base_solution

        for seed in range(8):
            g = random_consistent_graph(6, extra_edges=2, n_cycles=1, seed=seed,
                                        with_control=False)
            csdf = g.as_csdf()
            r = base_solution(csdf)
            for channel in csdf.channels.values():
                produced = r[channel.src] * channel.production.cumulative(
                    csdf.tau(channel.src)
                )
                consumed = r[channel.dst] * channel.consumption.cumulative(
                    csdf.tau(channel.dst)
                )
                assert produced == consumed, (
                    f"seed {seed}, channel {channel.name}: "
                    f"{produced} != {consumed}"
                )

    def test_parametric_channels_balance_symbolically(self):
        from repro.csdf.analysis import base_solution

        for seed in range(5):
            g = random_consistent_graph(5, seed=seed, parametric=True,
                                        with_control=False)
            csdf = g.as_csdf()
            r = base_solution(csdf)
            for channel in csdf.channels.values():
                assert (
                    r[channel.src] * channel.production.cumulative(csdf.tau(channel.src))
                    == r[channel.dst] * channel.consumption.cumulative(csdf.tau(channel.dst))
                )

    def test_back_edges_carry_a_full_local_iteration(self):
        """Liveness seeding: every generated back edge holds at least
        one local iteration's worth of consumption tokens."""
        from repro.csdf.analysis import concrete_repetition_vector

        for seed in range(6):
            g = random_consistent_graph(5, n_cycles=2, seed=seed,
                                        with_control=False)
            csdf = g.as_csdf()
            q = concrete_repetition_vector(csdf)
            order = {name: i for i, name in enumerate(csdf.actor_names())}
            back = [c for c in csdf.channels.values()
                    if order[c.src] > order[c.dst]]
            assert back, f"seed {seed} generated no back edges"
            for channel in back:
                need = channel.consumption.cumulative(csdf.tau(channel.dst))
                need = int(need.evaluate({}) * q[channel.dst] / csdf.tau(channel.dst))
                assert channel.initial_tokens >= need

    def test_exec_times_drawn_from_documented_domain(self):
        g = random_consistent_graph(10, seed=13, with_control=False)
        for kernel in g.kernels.values():
            assert set(kernel.exec_times) <= {1.0, 2.0, 4.0}


class TestRateSafeByConstruction:
    @given(seed=st.integers(0, 20), n=st.integers(2, 7))
    @settings(max_examples=15)
    def test_control_attachment_is_rate_safe(self, seed, n):
        from repro.tpdf import check_rate_safety

        g = random_consistent_graph(n, extra_edges=1, seed=seed,
                                    with_control=True)
        assert check_rate_safety(g).safe

    @given(seed=st.integers(0, 15), n=st.integers(3, 6))
    @settings(max_examples=10)
    def test_parametric_control_attachment_safe(self, seed, n):
        from repro.tpdf import check_boundedness

        g = random_consistent_graph(n, seed=seed, parametric=True,
                                    with_control=True)
        assert check_boundedness(g).bounded


class TestGeneratedGraphProperties:
    @given(seed=st.integers(0, 30), n=st.integers(2, 9), extra=st.integers(0, 3))
    @settings(max_examples=25)
    def test_always_consistent(self, seed, n, extra):
        g = random_consistent_graph(n, extra_edges=extra, seed=seed,
                                    with_control=False)
        assert check_consistency(g).consistent

    @given(seed=st.integers(0, 20), n=st.integers(3, 8))
    @settings(max_examples=15)
    def test_parametric_always_consistent(self, seed, n):
        g = random_consistent_graph(n, seed=seed, parametric=True,
                                    with_control=False)
        assert check_consistency(g).consistent

    @given(seed=st.integers(0, 15), n=st.integers(3, 7), cycles=st.integers(1, 2))
    @settings(max_examples=15)
    def test_cycles_live(self, seed, n, cycles):
        g = random_consistent_graph(n, n_cycles=cycles, seed=seed,
                                    with_control=False)
        assert check_liveness(g).live
