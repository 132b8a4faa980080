"""Differential harness for the parametric (symbolic) MCR engine.

The central claim of :mod:`repro.csdf.parametric` is exactness: the
piecewise-symbolic MCR, evaluated at any valid binding of its domain,
must equal the concrete Howard solver **bit-for-bit** (all corpus
graphs use integer execution times, so Howard's float weight sums are
exact and the claim is well-posed).  The suite checks that on well over
200 bindings across four graph families:

* the two-parameter radio front-end (full 8x8 grid, 64 bindings);
* the paper's Fig. 2 graph as CSDF (p = 1..30);
* random parametric pipelines (4 shapes x 25 random bindings);
* feedback graphs with constant cyclic cores and parametric feeders.

Degenerate shapes are covered explicitly: single-region domains, empty
domains, boundary bindings (domain corners), concrete graphs under the
empty domain, unsupported-class graphs (parametric cyclic cores),
deadlocking cores, and the pickle path of the service workers.
"""

import pickle
import random

import pytest

from repro.analysis import analyze, analyze_batch
from repro.cache import analysis_cache
from repro.csdf import CSDFGraph, max_cycle_ratio
from repro.csdf.parametric import (
    ParamDomain,
    parametric_mcr,
    verify_piecewise,
)
from repro.errors import AnalysisError, ParametricMCRError
from repro.gallery import fig1_graph, parametric_radio_graph
from repro.symbolic import Param
from repro.tpdf import fig2_graph

P = Param("p")
Q = Param("q")


# ----------------------------------------------------------------------
# corpus builders
# ----------------------------------------------------------------------

#: Per-hop (production, consumption) patterns for random pipelines; at
#: most two parametric hops per chain keeps repetition vectors small.
_HOPS_PARAMETRIC = [
    (P, 1), (1, P), (Q, 1), (1, Q), (P, Q),
    ([P, P], 2), (2, [Q, Q]),
]
_HOPS_CONSTANT = [(1, 1), (2, 1), (1, 3), (2, 2), ([1, 2], 3)]


def random_pipeline(seed: int, stages: int) -> CSDFGraph:
    rng = random.Random(seed)
    g = CSDFGraph(f"pipe_s{seed}_n{stages}")
    names = [f"a{i}" for i in range(stages)]
    for name in names:
        g.add_actor(name, exec_time=rng.randint(1, 9))
    parametric_left = 2
    for src, dst in zip(names, names[1:]):
        if parametric_left and rng.random() < 0.6:
            production, consumption = rng.choice(_HOPS_PARAMETRIC)
            parametric_left -= 1
        else:
            production, consumption = rng.choice(_HOPS_CONSTANT)
        g.add_channel(None, src, dst, production, consumption,
                      initial_tokens=rng.choice([0, 0, 1]))
    return g


def feedback_graph(exec_a: int, exec_b: int, tokens: int) -> CSDFGraph:
    """Constant two-actor cycle fed by a parametric source: the MCR is
    the exact envelope of the cycle constant and the source ring."""
    g = CSDFGraph(f"fb_{exec_a}_{exec_b}_{tokens}")
    g.add_actor("src", exec_time=1)
    g.add_actor("a", exec_time=exec_a)
    g.add_actor("b", exec_time=exec_b)
    g.add_channel("in", "src", "a", production=1, consumption=P)
    g.add_channel("fwd", "a", "b")
    g.add_channel("back", "b", "a", initial_tokens=tokens)
    return g


def multirate_core_graph() -> CSDFGraph:
    """Cycle whose actors fire more than once per iteration (constant
    q inside the core) with a two-parameter feeder."""
    g = CSDFGraph("fb_multirate")
    g.add_actor("src", exec_time=2)
    g.add_actor("a", exec_time=4)
    g.add_actor("b", exec_time=1)
    g.add_channel("in", "src", "a", production=Q, consumption=[P * Q, P * Q])
    g.add_channel("fwd", "a", "b", production=2, consumption=1)
    g.add_channel("back", "b", "a", production=1, consumption=2,
                  initial_tokens=2)
    return g


def _bindings_samples(rng, domain: ParamDomain, count: int):
    out = []
    for _ in range(count):
        out.append({
            name: rng.randint(lo, hi)
            for name, (lo, hi) in domain.ranges.items()
        })
    return out


# ----------------------------------------------------------------------
# the >= 200-binding differential sweep
# ----------------------------------------------------------------------

class TestBitForBit:
    def test_radio_full_grid(self):
        graph = parametric_radio_graph()
        pw = parametric_mcr(graph, {"b": (1, 8), "c": (1, 8)})
        assert verify_piecewise(pw, graph, pw.domain.grid()) == 64

    def test_fig2_sweep(self):
        graph = fig2_graph().as_csdf()
        pw = parametric_mcr(graph, {"p": (1, 30)})
        assert verify_piecewise(pw, graph, pw.domain.grid()) == 30

    @pytest.mark.parametrize("seed,stages", [(1, 3), (2, 4), (5, 5), (9, 4)])
    def test_random_pipelines(self, seed, stages):
        graph = random_pipeline(seed, stages)
        domain = ParamDomain({"p": (1, 5), "q": (1, 5)})
        pw = parametric_mcr(graph, domain)
        rng = random.Random(1000 + seed)
        assert verify_piecewise(pw, graph, _bindings_samples(rng, domain, 25)) == 25

    @pytest.mark.parametrize("shape", [(2, 3, 1), (2, 3, 2), (5, 1, 3)])
    def test_feedback_cores(self, shape):
        graph = feedback_graph(*shape)
        domain = ParamDomain({"p": (1, 12)})
        pw = parametric_mcr(graph, domain)
        assert verify_piecewise(pw, graph, pw.domain.grid()) == 12

    def test_multirate_core(self):
        graph = multirate_core_graph()
        domain = ParamDomain({"p": (1, 6), "q": (1, 4)})
        pw = parametric_mcr(graph, domain)
        assert verify_piecewise(pw, graph, pw.domain.grid()) == 24

    def test_total_coverage_exceeds_200_bindings(self):
        """The acceptance floor: >= 200 random bindings, aggregated
        across every family above (re-checked here in one sweep so the
        count is explicit rather than spread over parametrizations)."""
        total = 0
        rng = random.Random(42)
        cases = [
            (parametric_radio_graph(), ParamDomain({"b": (1, 8), "c": (1, 8)})),
            (fig2_graph().as_csdf(), ParamDomain({"p": (1, 30)})),
            (multirate_core_graph(), ParamDomain({"p": (1, 6), "q": (1, 4)})),
        ]
        for seed, stages in [(1, 3), (2, 4), (5, 5), (9, 4)]:
            cases.append((random_pipeline(seed, stages),
                          ParamDomain({"p": (1, 5), "q": (1, 5)})))
        for shape in [(2, 3, 1), (2, 3, 2), (5, 1, 3)]:
            cases.append((feedback_graph(*shape), ParamDomain({"p": (1, 12)})))
        for graph, domain in cases:
            pw = parametric_mcr(graph, domain)
            samples = _bindings_samples(rng, domain, 20)
            total += verify_piecewise(pw, graph, samples)
        assert total >= 200


# ----------------------------------------------------------------------
# the partition itself: exact regions, exact boundaries
# ----------------------------------------------------------------------

class TestRegions:
    def test_regions_tile_the_domain(self):
        """Every lattice point lies in exactly one region, and that
        region's candidate attains the maximum there — the partition is
        a true piecewise representation, not an approximation."""
        graph = parametric_radio_graph()
        domain = ParamDomain({"b": (1, 8), "c": (1, 8)})
        pw = parametric_mcr(graph, domain)
        for bindings in domain.grid():
            covering = [r for r in pw.regions if r.contains(bindings)]
            assert len(covering) == 1, (bindings, covering)
            region = covering[0]
            value = pw.candidates[region.candidate].ratio.evaluate(bindings)
            assert value == pw.evaluate(bindings)
            assert pw.region_for(bindings) == region

    def test_region_sizes_sum_to_domain_size(self):
        domain = ParamDomain({"b": (1, 8), "c": (1, 8)})
        pw = parametric_mcr(parametric_radio_graph(), domain)
        assert sum(r.size for r in pw.regions) == domain.size == 64

    def test_exact_crossover_boundary(self):
        """The ring crossover of a two-actor pipeline lands exactly on
        the algebraic boundary 3 = 2p (p = 2), not on a sampled grid."""
        g = CSDFGraph("cross")
        g.add_actor("x", exec_time=3)
        g.add_actor("y", exec_time=2)
        g.add_channel("c", "x", "y", production=P, consumption=1)
        pw = parametric_mcr(g, {"p": (1, 100)})
        regions = {tuple(r.bounds): pw.candidates[r.candidate].label
                   for r in pw.regions}
        assert regions == {
            (("p", 1, 1),): "ring:x",
            (("p", 2, 100),): "ring:y",
        }

    def test_dominant_matches_region_tie_break(self):
        graph = parametric_radio_graph()
        pw = parametric_mcr(graph, {"b": (1, 8), "c": (1, 8)})
        for bindings in ({"b": 3, "c": 2}, {"b": 3, "c": 3}, {"b": 8, "c": 8}):
            region = pw.region_for(bindings)
            assert pw.dominant(bindings) is pw.candidates[region.candidate]


# ----------------------------------------------------------------------
# degenerate shapes
# ----------------------------------------------------------------------

class TestDegenerate:
    def test_single_region(self):
        """A domain on which one candidate dominates everywhere."""
        graph = fig2_graph().as_csdf()
        pw = parametric_mcr(graph, {"p": (1, 8)})
        assert len(pw.regions) == 1
        region = pw.regions[0]
        assert region.bounds == (("p", 1, 8),)
        assert pw.candidates[region.candidate].label == "ring:B"

    def test_empty_domain(self):
        graph = fig2_graph().as_csdf()
        domain = ParamDomain({"p": (5, 2)})
        assert domain.is_empty and domain.size == 0
        pw = parametric_mcr(graph, domain)
        assert pw.regions == ()
        assert pw.candidates  # candidates exist, there is just nowhere to stand
        with pytest.raises(ParametricMCRError):
            pw.evaluate({"p": 3})

    def test_boundary_bindings(self):
        """Domain corners — the bindings region boundaries snap to."""
        graph = parametric_radio_graph()
        pw = parametric_mcr(graph, {"b": (2, 7), "c": (3, 6)})
        corners = list(pw.domain.corners())
        assert len(corners) == 4
        assert verify_piecewise(pw, graph, corners) == 4

    def test_concrete_graph_empty_parameter_set(self):
        """A parameter-free graph under the empty domain: one region
        covering the single (empty) valuation."""
        graph = fig1_graph()
        pw = parametric_mcr(graph, ParamDomain())
        assert len(pw.regions) == 1 and pw.regions[0].bounds == ()
        assert pw.evaluate_float({}) == max_cycle_ratio(graph)

    def test_outside_domain_raises(self):
        pw = parametric_mcr(fig2_graph().as_csdf(), {"p": (1, 8)})
        with pytest.raises(ParametricMCRError):
            pw.evaluate({"p": 9})
        with pytest.raises(ParametricMCRError):
            pw.evaluate({})

    def test_unbound_parameter_raises(self):
        graph = fig2_graph().as_csdf()
        with pytest.raises(ParametricMCRError, match="does not bind"):
            parametric_mcr(graph, ParamDomain())

    def test_empty_graph(self):
        pw = parametric_mcr(CSDFGraph("empty"), ParamDomain())
        assert pw.candidates == () and pw.evaluate({}) == 0
        with pytest.raises(ParametricMCRError, match="no candidates"):
            pw.dominant({})


# ----------------------------------------------------------------------
# the supported-class frontier
# ----------------------------------------------------------------------

class TestUnsupported:
    def test_parametric_rate_on_cycle_raises(self):
        g = CSDFGraph("badcycle")
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("fwd", "a", "b", production=P, consumption=P)
        g.add_channel("back", "b", "a", production=P, consumption=P,
                      initial_tokens=2)
        with pytest.raises(ParametricMCRError, match="parametric rates"):
            parametric_mcr(g, {"p": (1, 4)})

    def test_parametric_repetition_on_cycle_raises(self):
        """The feeder scales the core's repetition counts with p: the
        cyclic core changes shape, which the engine must refuse."""
        g = CSDFGraph("badq")
        g.add_actor("src")
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("in", "src", "a", production=P, consumption=1)
        g.add_channel("fwd", "a", "b")
        g.add_channel("back", "b", "a", initial_tokens=1)
        with pytest.raises(ParametricMCRError, match="repetition"):
            parametric_mcr(g, {"p": (1, 4)})

    def test_deadlocking_core_raises_like_concrete(self):
        g = CSDFGraph("dead")
        g.add_actor("src")
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("in", "src", "a", production=1, consumption=P)
        g.add_channel("fwd", "a", "b")
        g.add_channel("back", "b", "a")  # no tokens: deadlock
        with pytest.raises(AnalysisError):
            parametric_mcr(g, {"p": (1, 4)})
        with pytest.raises(AnalysisError):
            max_cycle_ratio(g, {"p": 2})


# ----------------------------------------------------------------------
# caching, pickling and the batch service
# ----------------------------------------------------------------------

class TestIntegration:
    def test_memoized_per_graph_version(self):
        graph = parametric_radio_graph()
        domain = {"b": (1, 4), "c": (1, 4)}
        first = parametric_mcr(graph, domain)
        assert parametric_mcr(graph, domain) is first
        assert any(key[0] == "parametric_mcr" for key in analysis_cache(graph))
        graph.add_actor("LATE", exec_time=99)
        second = parametric_mcr(graph, domain)
        assert second is not first
        assert second.evaluate({"b": 1, "c": 1}) == 99

    def test_pickle_roundtrip(self):
        pw = parametric_mcr(parametric_radio_graph(), {"b": (1, 8), "c": (1, 8)})
        clone = pickle.loads(pickle.dumps(pw))
        assert clone.fingerprint() == pw.fingerprint()
        assert clone.evaluate({"b": 5, "c": 5}) == pw.evaluate({"b": 5, "c": 5})

    def test_io_dict_roundtrip(self):
        from repro.io import piecewise_from_dict, piecewise_to_dict
        import json

        pw = parametric_mcr(parametric_radio_graph(), {"b": (1, 8), "c": (1, 8)})
        clone = piecewise_from_dict(json.loads(json.dumps(piecewise_to_dict(pw))))
        assert clone.fingerprint() == pw.fingerprint()
        assert clone.evaluate({"b": 4, "c": 7}) == pw.evaluate({"b": 4, "c": 7})

    def test_analyze_carries_parametric_report(self):
        report = analyze(fig2_graph(), {"p": 2},
                         parametric_domain={"p": (1, 8)})
        assert report.parametric is not None
        assert report.parametric.piecewise is not None
        assert report.parametric.mcr_at({"p": 2}) == report.mcr
        assert any("ring:B" in c for c in report.parametric.candidates)
        assert "parametric MCR" in report.summary()

    def test_analyze_records_unsupported_as_error(self):
        g = CSDFGraph("badcycle")
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("fwd", "a", "b", production=P, consumption=P)
        g.add_channel("back", "b", "a", production=P, consumption=P,
                      initial_tokens=2)
        report = analyze(g, parametric_domain={"p": (1, 4)})
        assert "parametric_mcr" in report.parametric.errors
        assert "FAILED" in report.parametric.summary()

    def test_report_pickle_roundtrip(self):
        """Service workers pickle their replies: the parametric stage
        must survive the round trip with a bit-identical fingerprint
        (which folds in the piecewise result)."""
        graph = fig2_graph()
        items = [(graph, {"p": v}) for v in (1, 2, 3, 4)]
        for report in analyze_batch(items, parametric_domain={"p": (1, 8)}):
            assert report.parametric.piecewise is not None
            clone = pickle.loads(pickle.dumps(report.parametric))
            assert clone.fingerprint() == report.parametric.fingerprint()
            assert clone.mcr_at({"p": 4}) == report.parametric.mcr_at({"p": 4})
