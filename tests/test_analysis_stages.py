"""``analyze()``'s stage bookkeeping: which stages ran, which were
skipped and why, which raised, and the verdict drawn from them.

Each case pins ``skipped`` and ``errors`` (keys, values and insertion
order — ``summary()`` prints them in dict order), ``live``, ``safe``,
``bounded`` and the full ``summary()`` text on a small hand-built
graph.  The verdict rule: ``bounded`` is True only when the liveness
stage ran and found the graph live (for TPDF also rate safe), False
when it found a deadlock or a safety violation or raised, and None
when it did not run.  The timed run (``with_throughput``) is off by
default: a default report records nothing for it, and the cases that
pin its bookkeeping ask for it.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from fractions import Fraction

import pytest

from repro.__main__ import main
from repro.analysis import EditSession, analyze, analyze_batch
from repro.csdf import CSDFGraph, self_timed_execution
from repro.errors import AnalysisError
from repro.io import csdf_to_dict
from repro.symbolic import Param
from repro.tpdf import TPDFGraph, fig2_graph, random_consistent_graph

UNBOUND_P = "parametric (unbound: p)"
DEADLOCKS = "graph deadlocks"
NOT_CONCRETE = "repetition vector not concrete"
PASS_BINDINGS = "parametric CSDF graph: pass bindings"

MCR_ERROR = "cycle with zero tokens: the graph deadlocks, MCR undefined"
BUFFERS_ERROR = "buffer-minimizing schedule stalled; blocked actors: ['a', 'b']"
THROUGHPUT_ERROR = "self-timed execution stalled after 0 firings"


def _fanout() -> CSDFGraph:
    """Parametric CSDF: ``a`` writes ``p`` tokens, ``b`` reads one."""
    g = CSDFGraph("fanout")
    g.add_actor("a", exec_time=1)
    g.add_actor("b", exec_time=2)
    g.add_channel("ab", "a", "b", production=Param("p"), consumption=1)
    return g


def _tokenless_cycle() -> CSDFGraph:
    """Two actors on a cycle with no initial token: consistent, dead."""
    g = CSDFGraph("cycle")
    g.add_actor("a", exec_time=1)
    g.add_actor("b", exec_time=1)
    g.add_channel("ab", "a", "b")
    g.add_channel("ba", "b", "a")
    return g


def _inconsistent() -> CSDFGraph:
    g = CSDFGraph("skewed")
    g.add_actor("a")
    g.add_actor("b")
    g.add_channel("ab", "a", "b", production=2, consumption=1)
    g.add_channel("ba", "b", "a", initial_tokens=3)
    return g


def _ring() -> CSDFGraph:
    """``a -> b -> c -> a``, unit times, two tokens on ``c -> a``: the
    run's iterations alternate 1 and 2 time units, period 3/2."""
    g = CSDFGraph("ring")
    for name in "abc":
        g.add_actor(name, exec_time=1)
    g.add_channel("ab", "a", "b")
    g.add_channel("bc", "b", "c")
    g.add_channel("ca", "c", "a", initial_tokens=2)
    return g


def _wrap_everywhere(monkeypatch, module: str, attr: str, wrap) -> None:
    """Replace ``module.attr`` at every live alias, the way a tracer
    wrapping public stage functions from outside does."""
    original = getattr(importlib.import_module(module), attr)
    wrapper = wrap(original)
    for owner in list(sys.modules.values()):
        try:
            names = [k for k, v in vars(owner).items() if v is original]
        except TypeError:
            continue
        for name in names:
            monkeypatch.setattr(owner, name, wrapper)


def _counting(calls: list, name: str):
    """A ``_wrap_everywhere`` wrap that records ``name`` at each call."""
    def wrap(original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper
    return wrap


def _lines(*lines: str) -> str:
    return "\n".join(lines)


def _check(report, *, live, safe, bounded, skipped, errors, summary):
    assert (report.live, report.safe, report.bounded) == (live, safe, bounded)
    assert list(report.skipped.items()) == skipped
    assert list(report.errors.items()) == errors
    assert report.summary() == summary


FANOUT_Q = ("repetition vector:", "  q[a] = 1", "  q[b] = p")
CYCLE_Q = ("repetition vector:", "  q[a] = 1", "  q[b] = 1")


class TestBookkeeping:
    def test_parametric_csdf_without_bindings(self):
        """With the timed run asked for, it skips like the MCR."""
        _check(
            analyze(_fanout(), with_throughput=True),
            live=None, safe=None, bounded=None,
            skipped=[("liveness", PASS_BINDINGS), ("mcr", UNBOUND_P),
                     ("buffers", UNBOUND_P), ("throughput", UNBOUND_P)],
            errors=[],
            summary=_lines(
                "graph: fanout",
                "verdict: NOT provably bounded: liveness not checked: "
                + PASS_BINDINGS,
                *FANOUT_Q,
                f"(liveness skipped: {PASS_BINDINGS})",
                f"(mcr skipped: {UNBOUND_P})",
                f"(buffers skipped: {UNBOUND_P})",
                f"(throughput skipped: {UNBOUND_P})",
            ),
        )

    def test_tpdf_fig2_without_bindings(self):
        _check(
            analyze(fig2_graph()), live=True, safe=True, bounded=True,
            skipped=[("mcr", UNBOUND_P), ("buffers", UNBOUND_P)],
            errors=[],
            summary=_lines(
                "graph: fig2",
                "verdict: bounded (consistent, rate safe, live)",
                "repetition vector:",
                "  q[A] = 2", "  q[B] = 2*p", "  q[C] = p",
                "  q[D] = p", "  q[E] = 2*p", "  q[F] = 2*p",
                "rate safety: safe",
                "liveness: live",
                f"(mcr skipped: {UNBOUND_P})",
                f"(buffers skipped: {UNBOUND_P})",
            ),
        )

    def test_tokenless_cycle_at_default_options(self):
        _check(
            analyze(_tokenless_cycle()), live=False, safe=None, bounded=False,
            skipped=[("mcr", DEADLOCKS), ("buffers", DEADLOCKS)],
            errors=[],
            summary=_lines(
                "graph: cycle",
                "verdict: NOT provably bounded: not live",
                *CYCLE_Q,
                "liveness: DEADLOCK",
                f"(mcr skipped: {DEADLOCKS})",
                f"(buffers skipped: {DEADLOCKS})",
            ),
        )

    @pytest.mark.parametrize("switch, stage", (
        ("with_mcr", "mcr"), ("with_buffers", "buffers"),
        ("with_throughput", "throughput"),
    ))
    def test_tokenless_cycle_with_a_performance_stage_off(self, switch, stage):
        """Every performance stage on, then one off: a disabled stage
        records nothing, not even ``graph deadlocks``."""
        kept = [name for name in ("mcr", "buffers", "throughput")
                if name != stage]
        _check(
            analyze(_tokenless_cycle(), **{"with_throughput": True,
                                           switch: False}),
            live=False, safe=None, bounded=False,
            skipped=[(name, DEADLOCKS) for name in kept],
            errors=[],
            summary=_lines(
                "graph: cycle",
                "verdict: NOT provably bounded: not live",
                *CYCLE_Q,
                "liveness: DEADLOCK",
                *(f"({name} skipped: {DEADLOCKS})" for name in kept),
            ),
        )

    def test_tokenless_cycle_with_liveness_off(self):
        """Liveness off: each performance stage raises its deadlock
        (the MCR's zero-token cycle and the timed run's stall among
        them), and no verdict is drawn."""
        _check(
            analyze(_tokenless_cycle(), with_liveness=False,
                    with_throughput=True),
            live=None, safe=None, bounded=None,
            skipped=[],
            errors=[("mcr", MCR_ERROR), ("buffers", BUFFERS_ERROR),
                    ("throughput", THROUGHPUT_ERROR)],
            summary=_lines(
                "graph: cycle",
                "verdict: NOT provably bounded: liveness not checked "
                "(disabled)",
                *CYCLE_Q,
                f"(mcr FAILED: {MCR_ERROR})",
                f"(buffers FAILED: {BUFFERS_ERROR})",
                f"(throughput FAILED: {THROUGHPUT_ERROR})",
            ),
        )

    def test_inconsistent_rates_end_the_chain(self):
        """Consistency failure records one error; no later stage runs
        or records anything, the parametric stage included."""
        report = analyze(_inconsistent(), parametric_domain={"p": (1, 4)})
        message = "balance violated on channel 'b' -> 'a': 1 * 2 != 1 * 1"
        _check(
            report, live=None, safe=None, bounded=None,
            skipped=[], errors=[("consistency", message)],
            summary=_lines(
                "graph: skewed",
                f"verdict: NOT provably bounded: rate inconsistent: {message}",
                "liveness: skipped (inconsistent)",
            ),
        )
        assert report.parametric is None and report.repetition is None

    @pytest.mark.parametrize("p, message", (
        (0, "repetition count of 'b' is non-positive: 0"),
        (Fraction(3, 2),
         "repetition count of 'b' is 3/2 under {'p': Fraction(3, 2)}: not "
         "an integer (choose parameter values divisible by the "
         "normalization factor)"),
    ), ids=("zero", "fractional"))
    def test_repetition_vector_not_concrete(self, p, message):
        _check(
            analyze(_fanout(), {"p": p}), live=None, safe=None, bounded=None,
            skipped=[("liveness", PASS_BINDINGS), ("mcr", NOT_CONCRETE),
                     ("buffers", NOT_CONCRETE)],
            errors=[("repetition", message)],
            summary=_lines(
                "graph: fanout",
                "verdict: NOT provably bounded: liveness not checked: "
                + PASS_BINDINGS,
                *FANOUT_Q,
                f"(liveness skipped: {PASS_BINDINGS})",
                f"(mcr skipped: {NOT_CONCRETE})",
                f"(buffers skipped: {NOT_CONCRETE})",
                f"(repetition FAILED: {message})",
            ),
        )


class TestPeriod:
    """Regression: ``report.period`` read the last two iteration ends
    of the timed run, which misread the ring as 1.0, below its own
    bound.  The period and throughput lines read the exact period, the
    MCR, print it once, and follow the ``mcr`` stage."""

    RING_Q = ("repetition vector:", "  q[a] = 1", "  q[b] = 1", "  q[c] = 1")
    PERIOD = ("max cycle ratio (exact period): 1.5000",
              "throughput:                     0.6667 iterations/time")

    def test_ring_whose_iterations_alternate(self):
        report = analyze(_ring(), with_throughput=True)
        assert report.timed.iteration_ends == [3.0, 4.0, 6.0, 7.0]
        assert report.period == report.mcr == 1.5
        assert report.throughput == 1 / 1.5
        _check(report, live=True, safe=None, bounded=True, skipped=[],
               errors=[], summary=_lines(
                   "graph: ring",
                   "verdict: bounded (consistent, rate safe, live)",
                   *self.RING_Q, "liveness: live", *self.PERIOD,
                   "min single-core buffer total:   4"))

    @pytest.mark.parametrize("switch, period_lines", (
        ("with_throughput", PERIOD), ("with_mcr", ()),
    ))
    def test_period_lines_follow_the_mcr_stage(self, switch, period_lines):
        report = analyze(_ring(), **{switch: False})
        assert report.summary() == _lines(
            "graph: ring", "verdict: bounded (consistent, rate safe, live)",
            *self.RING_Q, "liveness: live", *period_lines,
            "min single-core buffer total:   4")
        assert report.period == (1.5 if period_lines else None)


def _corpus_graph(seed: int) -> TPDFGraph:
    return random_consistent_graph(6, extra_edges=3, n_cycles=1, seed=seed)


#: (label, graph factory, bindings): every bookkeeping outcome above,
#: and corpus graphs with a cyclic core.
CASES = (
    ("fanout", _fanout, None), ("fanout-p2", _fanout, {"p": 2}),
    ("cycle", _tokenless_cycle, None), ("skewed", _inconsistent, None),
    ("ring", _ring, None), ("fig2", fig2_graph, None),
    ("fig2-p2", fig2_graph, {"p": 2}),
    *((f"corpus{seed}", lambda seed=seed: _corpus_graph(seed), None)
      for seed in range(4)),
)
#: The cases whose timed run completes.
RUNNING = ("fanout-p2", "ring", "fig2-p2", "corpus0", "corpus1",
           "corpus2", "corpus3")


def _csdf(graph):
    return graph.as_csdf() if isinstance(graph, TPDFGraph) else graph


class TestTimedRunOnRequest:
    """The timed self-timed run is off by default: a default report
    carries no ``timed`` and records nothing for the stage.  Asked for,
    it is exactly the executor's run, and ``iterations`` sizes it."""

    @pytest.mark.parametrize("make, bindings",
                             [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_default_report(self, make, bindings):
        report = analyze(make(), bindings)
        assert report.timed is None
        assert "throughput" not in report.skipped
        assert "throughput" not in report.errors
        off = analyze(make(), bindings, with_throughput=False)
        assert report.fingerprint() == off.fingerprint()

    @pytest.mark.parametrize("iterations", (1, 3, 4))
    @pytest.mark.parametrize("label", RUNNING)
    def test_requested_run_is_the_executors(self, label, iterations):
        _, make, bindings = next(case for case in CASES if case[0] == label)
        report = analyze(make(), bindings, with_throughput=True,
                         iterations=iterations)
        want = self_timed_execution(_csdf(make()), bindings,
                                    iterations=iterations)
        assert report.timed is not None
        assert dataclasses.asdict(report.timed) == dataclasses.asdict(want)
        assert len(report.timed.iteration_ends) == iterations

    def test_edit_session_runs_no_executor(self, monkeypatch):
        """Across a binding and a structural edit, a default
        ``EditSession.analyze()`` builds no execution template and runs
        nothing; asked for, the timed run does both once."""
        calls: list[str] = []
        for module, attr in (("repro.csdf.throughput", "self_timed_execution"),
                             ("repro.csdf.statearrays", "array_state")):
            _wrap_everywhere(monkeypatch, module, attr, _counting(calls, attr))
        graph = _csdf(_corpus_graph(2)).bind({})  # a mutable copy
        session = EditSession(graph)
        first = session.analyze()
        name = next(iter(graph.actors))
        session.set_exec_time(name, [7.5] * len(graph.actor(name).exec_times))
        session.analyze()  # a binding edit
        channel = next(iter(graph.channels.values()))
        session.set_initial_tokens(channel.name, channel.initial_tokens + 1)
        last = session.analyze()  # a structural edit
        assert calls == []
        assert first.mcr is not None and last.mcr is not None
        session.analyze(with_throughput=True)
        assert calls == ["self_timed_execution", "array_state"]

    def test_iterations_is_validated_when_no_run_reads_it(self):
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            analyze(_ring(), iterations=0)
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            EditSession(_ring(), iterations=0).analyze()
        with pytest.raises(ValueError, match="iterations must be an integer"):
            analyze_batch([_ring()], iterations=2.5)


class TestVerdictRule:
    """Regressions: the verdict used to be drawn whether or
    not the liveness stage ran."""

    def test_tokenless_cycle_with_every_performance_stage_off(self):
        report = analyze(_tokenless_cycle(), with_mcr=False,
                         with_buffers=False, with_throughput=False)
        assert report.skipped == {} and report.errors == {}
        assert report.bounded is False

    def test_parametric_graph_with_every_performance_stage_off(self):
        report = analyze(_fanout(), with_mcr=False, with_buffers=False,
                         with_throughput=False)
        assert list(report.skipped.items()) == [("liveness", PASS_BINDINGS)]
        assert report.bounded is None

    def test_tpdf_with_liveness_off_is_not_bounded(self):
        report = analyze(fig2_graph(), with_liveness=False)
        assert (report.safe, report.live, report.bounded) == (None, None, None)
        assert report.verdict_reasons() == ["liveness not checked (disabled)"]
        assert report.summary().splitlines()[1] == (
            "verdict: NOT provably bounded: liveness not checked (disabled)")

    def test_bound_tpdf_with_liveness_off_is_not_bounded(self):
        report = analyze(fig2_graph(), {"p": 2}, with_liveness=False)
        assert report.bounded is None and report.mcr == 4.0

    def test_liveness_error_is_not_bounded(self, monkeypatch):
        """A raising liveness stage makes the verdict False."""

        def broken(_graph):
            raise AnalysisError("liveness exploded")

        _wrap_everywhere(monkeypatch, "repro.tpdf.boundedness",
                         "check_boundedness", lambda _original: broken)
        report = analyze(fig2_graph())
        assert report.errors == {"liveness": "liveness exploded"}
        assert report.bounded is False
        assert report.verdict_reasons() == [
            "liveness analysis failed: liveness exploded"]

    def test_cli_exits_one_on_an_unchecked_graph(self, tmp_path, capsys):
        import json

        path = tmp_path / "fanout.json"
        path.write_text(json.dumps(csdf_to_dict(_fanout())))
        assert main(["analyze", str(path)]) == 1
        assert "liveness not checked" in capsys.readouterr().out


STAGE_FUNCTIONS = (
    ("repro.tpdf.boundedness", "check_boundedness"),
    ("repro.csdf.schedule", "is_live"),
    ("repro.csdf.mcr", "max_cycle_ratio"),
    ("repro.csdf.buffers", "minimal_buffer_schedule"),
    ("repro.csdf.throughput", "self_timed_execution"),
)


def test_stage_functions_are_looked_up_at_call_time(monkeypatch):
    """A wrapper installed on a stage function's public name sees every
    call ``analyze()`` makes: the chain must not hold the function
    objects themselves."""
    calls: list[str] = []
    for module, attr in STAGE_FUNCTIONS:
        _wrap_everywhere(monkeypatch, module, attr, _counting(calls, attr))
    analyze(fig2_graph(), {"p": 2}, with_throughput=True)
    analyze(_fanout(), {"p": 2}, with_throughput=True)
    assert sorted(set(calls)) == sorted(attr for _, attr in STAGE_FUNCTIONS)
