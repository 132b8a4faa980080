"""Tests for TPDF graph construction (Definition 2 structural rules)."""

import pytest

from repro.errors import GraphConstructionError
from repro.symbolic import Param
from repro.tpdf import TPDFGraph, fig2_graph


class TestStructuralRules:
    def test_control_channel_must_start_at_control_actor(self):
        g = TPDFGraph()
        k1 = g.add_kernel("k1")
        k1.add_output("out", 1)
        k2 = g.add_kernel("k2")
        k2.add_control_port("ctrl")
        with pytest.raises(GraphConstructionError):
            g.connect("k1.out", "k2.ctrl")

    def test_control_output_cannot_feed_data_port(self):
        g = TPDFGraph()
        c = g.add_control_actor("c")
        c.add_control_output("out")
        k = g.add_kernel("k")
        k.add_input("in")
        with pytest.raises(GraphConstructionError):
            g.connect("c.out", "k.in")

    def test_valid_control_channel(self):
        g = TPDFGraph()
        c = g.add_control_actor("c")
        c.add_control_output("out")
        k = g.add_kernel("k")
        k.add_control_port("ctrl")
        channel = g.connect("c.out", "k.ctrl")
        assert channel.is_control
        assert g.control_channels() == [channel]

    def test_data_channel_between_kernels(self, simple_pipeline):
        assert not simple_pipeline.channel("c1").is_control

    def test_input_cannot_be_source(self, simple_pipeline):
        with pytest.raises(GraphConstructionError):
            simple_pipeline.connect("snk.in", "mid.in")

    def test_output_cannot_be_destination(self):
        g = TPDFGraph()
        a = g.add_kernel("a")
        a.add_output("o1")
        b = g.add_kernel("b")
        b.add_output("o2")
        with pytest.raises(GraphConstructionError):
            g.connect("a.o1", "b.o2")

    def test_port_single_connection(self, simple_pipeline):
        extra = simple_pipeline.add_kernel("extra")
        extra.add_input("in")
        with pytest.raises(GraphConstructionError):
            simple_pipeline.connect("src.out", "extra.in")

    def test_kernel_control_disjoint(self):
        g = TPDFGraph()
        g.add_kernel("x")
        with pytest.raises(GraphConstructionError):
            g.add_control_actor("x")

    def test_negative_initial_tokens(self, simple_pipeline):
        mid = simple_pipeline.node("mid")
        mid.add_output("extra")
        snk2 = simple_pipeline.add_kernel("snk2")
        snk2.add_input("in")
        with pytest.raises(GraphConstructionError):
            simple_pipeline.connect("mid.extra", "snk2.in", initial_tokens=-1)

    @pytest.mark.parametrize("tokens", [1.5, 2.0, True, "1"])
    def test_non_integer_initial_tokens(self, simple_pipeline, tokens):
        """``connect(initial_tokens=1.5)`` used to keep 1 token."""
        mid = simple_pipeline.node("mid")
        mid.add_output("extra")
        snk2 = simple_pipeline.add_kernel("snk2")
        snk2.add_input("in")
        with pytest.raises(GraphConstructionError,
                           match=f"channel 'x': initial tokens must be an integer, got {tokens!r}"):
            simple_pipeline.connect("mid.extra", "snk2.in", name="x",
                                    initial_tokens=tokens)
        assert "x" not in simple_pipeline.channels
        channel = simple_pipeline.channel("c1")
        with pytest.raises(GraphConstructionError, match="must be an integer"):
            channel.initial_tokens = tokens
        assert channel.initial_tokens == 0

    def test_numpy_integer_tokens_accepted(self, simple_pipeline):
        np = pytest.importorskip("numpy")
        channel = simple_pipeline.channel("c2")
        channel.initial_tokens = np.int64(4)
        assert channel.initial_tokens == 4 and type(channel.initial_tokens) is int

    def test_port_binding_errors_name_the_older_channel(self):
        """Each port binds one channel; when both ends of a new channel
        are taken, the error names the channel that was connected
        first."""
        g = TPDFGraph()
        for name in ("a", "b", "c", "d"):
            node = g.add_kernel(name)
            node.add_input("in")
            node.add_output("out")
        g.connect("a.out", "b.in", name="first")
        g.connect("c.out", "d.in", name="second")
        cases = [
            ("a.out", "c.in", "port a.out already feeds channel 'first'"),
            ("b.out", "d.in", "port d.in already fed by channel 'second'"),
            ("c.out", "b.in", "port b.in already fed by channel 'first'"),
            ("a.out", "d.in", "port a.out already feeds channel 'first'"),
            ("a.out", "b.in", "port a.out already feeds channel 'first'"),
        ]
        for src, dst, message in cases:
            with pytest.raises(GraphConstructionError, match=f"^{message}$"):
                g.connect(src, dst)
        assert list(g.channels) == ["first", "second"]

    def test_auto_names_skip_explicit_names(self):
        """An unnamed channel takes the first free ``e<k>``: it used to
        take ``e{len+1}`` and collide with an explicit ``e2``."""
        g = TPDFGraph()
        for name in ("a", "b", "c", "d"):
            node = g.add_kernel(name)
            node.add_input("in")
            node.add_output("out")
        g.connect("a.out", "b.in", name="e2")
        assert g.connect("b.out", "c.in").name == "e3"
        assert g.connect("c.out", "d.in").name == "e4"
        assert list(g.channels) == ["e2", "e3", "e4"]

    def test_bad_port_ref(self, simple_pipeline):
        with pytest.raises(GraphConstructionError):
            simple_pipeline.connect("src", "mid.in")


class TestParameters:
    def test_declared_parameters(self):
        p = Param("p", lo=1, hi=10)
        g = TPDFGraph(parameters=[p])
        assert g.parameters == {"p": p}

    def test_conflicting_redeclaration(self):
        g = TPDFGraph(parameters=[Param("p", lo=1, hi=10)])
        with pytest.raises(GraphConstructionError):
            g.declare_parameter(Param("p", lo=2, hi=5))

    def test_identical_redeclaration_ok(self):
        g = TPDFGraph(parameters=[Param("p")])
        g.declare_parameter(Param("p"))

    def test_undeclared_parameters_detected(self):
        g = TPDFGraph()
        k = g.add_kernel("k")
        k.add_output("out", Param("mystery") * 2)
        assert g.undeclared_parameters() == {"mystery"}

    def test_fig2_fully_declared(self, fig2):
        assert fig2.undeclared_parameters() == set()


class TestViews:
    def test_node_lookup(self, fig2):
        assert fig2.node("A").name == "A"
        assert fig2.is_control_actor("C")
        assert not fig2.is_control_actor("A")
        with pytest.raises(KeyError):
            fig2.node("ghost")

    def test_channel_queries(self, fig2):
        assert {c.name for c in fig2.out_channels("B")} == {"e2", "e3", "e4"}
        assert {c.name for c in fig2.in_channels("F")} == {"e5", "e6", "e7"}
        assert [c.name for c in fig2.channel_between("A", "B")] == ["e1"]

    def test_networkx(self, fig2):
        nxg = fig2.to_networkx()
        assert nxg.nodes["C"]["control"]
        assert not nxg.nodes["A"]["control"]

    def test_describe(self, fig2):
        text = fig2.describe()
        assert "[ctrl]" in text
        assert "parameters" in text


class TestAsCSDF:
    def test_structure_preserved(self, fig2):
        csdf = fig2.as_csdf()
        assert set(csdf.actors) == {"A", "B", "C", "D", "E", "F"}
        assert set(csdf.channels) == {f"e{i}" for i in range(1, 8)}

    def test_rates_copied(self, fig2):
        csdf = fig2.as_csdf()
        assert csdf.channel("e1").production.bind({"p": 3}).as_ints() == (3,)
        assert csdf.channel("e6").consumption.as_ints() == (0, 2)

    def test_register_rejects_foreign(self):
        g = TPDFGraph()
        with pytest.raises(GraphConstructionError):
            g.register(object())  # type: ignore[arg-type]


class TestFig2Factory:
    def test_matches_paper_structure(self):
        g = fig2_graph()
        assert len(g.kernels) == 5
        assert len(g.controls) == 1
        assert len(g.channels) == 7

    def test_custom_parameter(self):
        g = fig2_graph(Param("p", lo=2, hi=4))
        assert g.parameters["p"].hi == 4
