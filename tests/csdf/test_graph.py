"""Tests for CSDF graph construction and structure."""

import pytest

from repro.csdf import Actor, Channel, CSDFGraph, chain
from repro.errors import GraphConstructionError
from repro.symbolic import Poly


class TestActor:
    def test_scalar_exec_time(self):
        actor = Actor("a", exec_time=2.5)
        assert actor.exec_time(0) == 2.5
        assert actor.exec_time(7) == 2.5

    def test_phase_exec_times(self):
        actor = Actor("a", exec_time=[1.0, 3.0])
        assert actor.exec_time(0) == 1.0
        assert actor.exec_time(3) == 3.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Actor("a", exec_time=-1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Actor("")


class TestChannel:
    def test_negative_initial_tokens_rejected(self):
        with pytest.raises(ValueError):
            Channel("e", "a", "b", 1, 1, initial_tokens=-1)

    @pytest.mark.parametrize("tokens", [2.9, 1.0, True, False, "2", None])
    def test_non_integer_initial_tokens_rejected(self, tokens):
        """A float used to be truncated (2.9 tokens kept as 2) and a
        bool counted as 0 or 1: like a capacity, the count must pass
        ``operator.index``."""
        g = CSDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        with pytest.raises(ValueError,
                           match=f"channel 'e': initial tokens must be an integer, got {tokens!r}"):
            g.add_channel("e", "a", "b", initial_tokens=tokens)
        channel = g.add_channel("e", "a", "b", initial_tokens=1)
        with pytest.raises(ValueError, match="must be an integer"):
            channel.initial_tokens = tokens
        assert channel.initial_tokens == 1

    def test_numpy_integer_tokens_accepted(self):
        np = pytest.importorskip("numpy")
        channel = Channel("e", "a", "b", 1, 1, initial_tokens=np.int64(3))
        assert channel.initial_tokens == 3 and type(channel.initial_tokens) is int

    def test_selfloop_detection(self):
        assert Channel("e", "a", "a", 1, 1).is_selfloop()
        assert not Channel("e", "a", "b", 1, 1).is_selfloop()


class TestGraphConstruction:
    def test_duplicate_actor_rejected(self):
        g = CSDFGraph()
        g.add_actor("a")
        with pytest.raises(GraphConstructionError):
            g.add_actor("a")

    def test_duplicate_channel_rejected(self):
        g = CSDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("e", "a", "b")
        with pytest.raises(GraphConstructionError):
            g.add_channel("e", "a", "b")

    def test_unknown_endpoint_rejected(self):
        g = CSDFGraph()
        g.add_actor("a")
        with pytest.raises(GraphConstructionError):
            g.add_channel("e", "a", "ghost")

    def test_autonamed_channels(self):
        g = CSDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        c1 = g.add_channel(None, "a", "b")
        c2 = g.add_channel(None, "a", "b")
        assert c1.name != c2.name


class TestDerivedStructure:
    def test_tau_is_lcm(self, fig1):
        assert fig1.tau("a1") == 3  # [1,0,1] and [1,1,2]
        assert fig1.tau("a2") == 2
        assert fig1.tau("a3") == 2

    def test_tau_includes_exec_times(self):
        g = CSDFGraph()
        g.add_actor("a", exec_time=[1.0, 2.0, 3.0])
        g.add_actor("b")
        g.add_channel("e", "a", "b", [1, 1], [1])
        assert g.tau("a") == 6

    def test_taus_match_tau(self, fig1):
        g = CSDFGraph()
        g.add_actor("a", exec_time=[1.0, 2.0])
        g.add_actor("b")
        g.add_actor("lonely", exec_time=[1.0, 1.0, 1.0])
        g.add_channel("e", "a", "b", [1, 1, 1], [1, 2])
        g.add_channel("loop", "b", "b", [1, 0, 0, 0], [1])
        for graph in (fig1, g):
            assert graph.taus() == {name: graph.tau(name) for name in graph.actors}
        assert g.taus() == {"a": 6, "b": 4, "lonely": 3}

    def test_in_out_channels(self, fig1):
        assert [c.name for c in fig1.out_channels("a1")] == ["e1"]
        assert [c.name for c in fig1.in_channels("a1")] == ["e3"]

    def test_parameters_empty_for_concrete(self, fig1):
        assert fig1.parameters() == set()
        assert not fig1.is_parametric()

    def test_parameters_collected(self):
        g = CSDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("e", "a", "b", Poly.var("p"), 1)
        assert g.parameters() == {"p"}

    def test_connectivity(self, fig1):
        assert fig1.is_connected()
        g = CSDFGraph()
        g.add_actor("x")
        g.add_actor("y")
        assert not g.is_connected()

    def test_directed_cycles(self, fig1):
        cycles = fig1.directed_cycles()
        assert any(set(c) == {"a1", "a2", "a3"} for c in cycles)

    def test_networkx_view(self, fig1):
        nxg = fig1.to_networkx()
        assert set(nxg.nodes) == {"a1", "a2", "a3"}
        assert nxg.number_of_edges() == 3


class TestBindAndDescribe:
    def test_bind_materializes_rates(self):
        g = CSDFGraph()
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("e", "a", "b", Poly.var("p"), 1)
        bound = g.bind({"p": 5})
        assert bound.channel("e").production.as_ints() == (5,)

    def test_bind_preserves_structure(self, fig1):
        bound = fig1.bind({})
        assert set(bound.actors) == set(fig1.actors)
        assert bound.channel("e2").initial_tokens == 2

    def test_describe_mentions_channels(self, fig1):
        text = fig1.describe()
        assert "e1" in text and "init=2" in text


class TestChainBuilder:
    def test_default_rates(self):
        g = chain("c", ["x", "y", "z"])
        assert len(g.channels) == 2

    def test_custom_rates(self):
        g = chain("c", ["x", "y"], rates=[(2, 3)])
        ch = next(iter(g.channels.values()))
        assert ch.production.as_ints() == (2,)
        assert ch.consumption.as_ints() == (3,)

    def test_rate_count_mismatch(self):
        with pytest.raises(GraphConstructionError):
            chain("c", ["x", "y", "z"], rates=[(1, 1)])
