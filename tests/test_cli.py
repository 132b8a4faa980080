"""Tests for the command-line interface (python -m repro)."""

import json

import pytest

from repro.__main__ import main
from repro.analysis import analyze
from repro.csdf import CSDFGraph
from repro.gallery import fig1_graph
from repro.io import csdf_to_dict, graph_from_payload, tpdf_to_dict
from repro.symbolic import Param
from repro.tpdf import TPDFGraph, fig2_graph


@pytest.fixture
def fig2_json(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(tpdf_to_dict(fig2_graph())))
    return str(path)


@pytest.fixture
def fig1_json(tmp_path, fig1):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(csdf_to_dict(fig1)))
    return str(path)


def _fanout() -> CSDFGraph:
    """The parametric 2-actor CSDF graph of ``repro.analysis``'s
    docstring (production ``p``)."""
    p = Param("p")
    g = CSDFGraph("fanout")
    g.add_actor("src", exec_time=3)
    g.add_actor("snk", exec_time=2)
    g.add_channel("c", "src", "snk", production=p, consumption=1)
    return g


def _pair() -> CSDFGraph:
    """A producer writing 2 tokens per firing to a 1-token consumer."""
    g = CSDFGraph("pair")
    g.add_actor("a", exec_time=1)
    g.add_actor("b", exec_time=1)
    g.add_channel("e", "a", "b", 2, 1)
    return g


def _inconsistent() -> CSDFGraph:
    """Two actors on a cycle whose rates admit no repetition vector."""
    g = CSDFGraph("skewed")
    g.add_actor("a")
    g.add_actor("b")
    g.add_channel("ab", "a", "b", 2, 1)
    g.add_channel("ba", "b", "a", 1, 1, initial_tokens=1)
    return g


def _write(tmp_path, doc) -> str:
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestAnalyze:
    def test_bounded_graph_exits_zero(self, fig2_json, capsys):
        assert main(["analyze", fig2_json]) == 0
        out = capsys.readouterr().out
        assert "bounded" in out
        assert "q[B] = 2*p" in out

    @pytest.mark.parametrize("doc, bind", (
        (csdf_to_dict(fig1_graph()), []),
        (csdf_to_dict(_fanout()), []),
        (csdf_to_dict(_fanout()), ["--bind", "p=4"]),
        (tpdf_to_dict(fig2_graph()), []),
    ), ids=("fig1", "fanout", "fanout-bound", "fig2"))
    def test_prints_the_library_summary(self, tmp_path, capsys, doc, bind):
        """The CLI analyzes each file as loaded — a CSDF graph as CSDF,
        not wrapped into an undeclared-parameter TPDF graph — so its
        output is exactly ``GraphReport.summary()``."""
        bindings = {"p": 4} if bind else None
        report = analyze(graph_from_payload(doc), bindings)
        code = main(["analyze", _write(tmp_path, doc), *bind])
        assert capsys.readouterr().out == report.summary() + "\n"
        assert code == (0 if report.bounded else 1)

    def test_symbolic_parametric_mcr(self, fig2_json, capsys):
        assert main(["analyze", fig2_json, "--symbolic",
                     "--param", "p=1..8"]) == 0
        out = capsys.readouterr().out
        assert "parametric MCR" in out
        assert "ring:B = 2*p" in out
        assert "p=1..8 -> ring:B" in out

    def test_param_implies_symbolic(self, fig2_json, capsys):
        assert main(["analyze", fig2_json, "--param", "p=2..4"]) == 0
        assert "parametric MCR" in capsys.readouterr().out

    def test_symbolic_missing_range_reports_error(self, fig2_json, capsys):
        # p never bound: the stage records the failure instead of crashing.
        assert main(["analyze", fig2_json, "--symbolic"]) == 0
        out = capsys.readouterr().out
        assert "parametric MCR FAILED" in out
        assert "does not bind" in out

    def test_bad_param_spec_exits(self, fig2_json):
        with pytest.raises(SystemExit):
            main(["analyze", fig2_json, "--param", "p=low..high"])

    @pytest.mark.parametrize("value", ["4", "0"])
    def test_has_no_iterations(self, fig1_json, value, capsys):
        """No executor runs: there is no run length to choose."""
        with pytest.raises(SystemExit) as exc:
            main(["analyze", fig1_json, "--iterations", value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--jobs", "--chunk-size"])
    def test_removed_pool_options_are_usage_errors(self, fig1_json, flag,
                                                   capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", fig1_json, flag, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unbounded_graph_exits_one(self, tmp_path, capsys):
        g = TPDFGraph("bad")
        a = g.add_kernel("a")
        a.add_output("o1", 1)
        a.add_output("o2", 2)
        b = g.add_kernel("b")
        b.add_input("i1", 1)
        b.add_input("i2", 1)
        g.connect("a.o1", "b.i1")
        g.connect("a.o2", "b.i2")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tpdf_to_dict(g)))
        assert main(["analyze", str(path)]) == 1


class TestAnalyzeEdits:
    """The --edits incremental replay and its --verify-cold oracle."""

    @staticmethod
    def _script(tmp_path, edits):
        path = tmp_path / "edits.json"
        path.write_text(json.dumps(edits))
        return str(path)

    def test_replay_with_verify_cold(self, fig1_json, tmp_path, capsys):
        script = self._script(tmp_path, [
            {"op": "set_exec_time", "actor": "a1", "value": 5},
            {"op": "set_initial_tokens", "channel": "e2", "value": 3},
            {"op": "add_actor", "name": "x", "exec_time": 2},
            {"op": "add_channel", "src": "a3", "dst": "x"},
            {"op": "remove_actor", "name": "x"},
        ])
        assert main(["analyze", fig1_json, "--edits", script,
                     "--verify-cold"]) == 0
        out = capsys.readouterr().out
        assert "[baseline]" in out
        assert "[edit 4: remove_actor x]" in out
        assert out.count("verify-cold: ok") == 6
        assert "DIVERGED" not in out

    def test_edit_breaking_consistency_exits_one(self, fig1_json, tmp_path,
                                                 capsys):
        script = self._script(tmp_path, [
            {"op": "set_production", "channel": "e1", "value": [7]},
        ])
        assert main(["analyze", fig1_json, "--edits", script]) == 1
        assert "NOT bounded" in capsys.readouterr().out

    def test_unknown_target_reports_step(self, fig1_json, tmp_path):
        script = self._script(tmp_path, [
            {"op": "set_exec_time", "actor": "ghost", "value": 1},
        ])
        with pytest.raises(SystemExit, match="edit 0"):
            main(["analyze", fig1_json, "--edits", script])

    def test_unknown_op_reports_step(self, fig1_json, tmp_path):
        script = self._script(tmp_path, [{"op": "paint"}])
        with pytest.raises(SystemExit, match="edit 0"):
            main(["analyze", fig1_json, "--edits", script])

    def test_edits_require_csdf_graph(self, fig2_json, tmp_path):
        script = self._script(tmp_path, [])
        with pytest.raises(SystemExit, match="csdf-model"):
            main(["analyze", fig2_json, "--edits", script])

    def test_edits_require_single_graph(self, fig1_json, tmp_path):
        script = self._script(tmp_path, [])
        with pytest.raises(SystemExit, match="exactly one graph"):
            main(["analyze", fig1_json, fig1_json, "--edits", script])

    def test_verify_cold_requires_edits(self, fig1_json):
        with pytest.raises(SystemExit, match="--edits"):
            main(["analyze", fig1_json, "--verify-cold"])

    def test_script_must_be_array(self, fig1_json, tmp_path):
        path = tmp_path / "edits.json"
        path.write_text(json.dumps({"op": "set_exec_time"}))
        with pytest.raises(SystemExit, match="JSON array"):
            main(["analyze", fig1_json, "--edits", str(path)])


class TestLint:
    def _warned_json(self, tmp_path):
        g = TPDFGraph("warned")
        k = g.add_kernel("k")
        k.add_output("dangling", 1)
        path = tmp_path / "warned.json"
        path.write_text(json.dumps(tpdf_to_dict(g)))
        return str(path)

    def _broken_json(self, tmp_path):
        from repro.csdf import CSDFGraph
        from repro.io import csdf_to_dict

        g = CSDFGraph("broken")
        g.add_actor("a", exec_time=1)
        g.add_actor("b", exec_time=1)
        g.add_channel("ab", "a", "b", production=2, consumption=3)
        g.add_channel("ab2", "a", "b", production=1, consumption=1)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(csdf_to_dict(g)))
        return str(path)

    def test_clean_graph(self, fig2_json, capsys):
        assert main(["lint", fig2_json]) == 0
        assert "clean" in capsys.readouterr().out

    # The exit-code contract: the default run is a *report* (always 0);
    # only --strict turns ERROR findings into exit 1.
    def test_findings_exit_zero_by_default(self, tmp_path, capsys):
        assert main(["lint", self._warned_json(tmp_path)]) == 0
        assert "STRUCT001" in capsys.readouterr().out

    def test_broken_graph_exits_zero_without_strict(self, tmp_path, capsys):
        assert main(["lint", self._broken_json(tmp_path)]) == 0
        assert "RATE001" in capsys.readouterr().out

    def test_strict_exits_one_on_error(self, tmp_path, capsys):
        assert main(["lint", self._broken_json(tmp_path), "--strict"]) == 1
        assert "RATE001" in capsys.readouterr().out

    def test_strict_exits_zero_on_warnings_only(self, tmp_path, capsys):
        assert main(["lint", self._warned_json(tmp_path), "--strict"]) == 0
        assert "STRUCT001" in capsys.readouterr().out

    def test_strict_exits_zero_on_clean(self, fig2_json):
        assert main(["lint", fig2_json, "--strict"]) == 0

    def test_json_format(self, tmp_path, capsys):
        assert main(["lint", self._broken_json(tmp_path),
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(row["code"] == "RATE001" for row in rows)
        assert all({"code", "severity", "subject", "message"} <= set(row)
                   for row in rows)

    def test_codes_listing_needs_no_graph(self, capsys):
        assert main(["lint", "--codes"]) == 0
        out = capsys.readouterr().out
        assert "RATE001" in out and "STRUCT004" in out

    def test_lint_accepts_plain_csdf(self, fig1_json, capsys):
        # fig1 is a source-less cycle: STRUCT002 warnings, no errors —
        # so even --strict exits 0 on a plain-CSDF input.
        assert main(["lint", fig1_json, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "STRUCT002" in out and "0 error(s)" in out


class TestDot:
    def test_tpdf_dot(self, fig2_json, capsys):
        assert main(["dot", fig2_json]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_csdf_dot(self, fig1_json, capsys):
        assert main(["dot", fig1_json]) == 0
        assert '"a1" -> "a2"' in capsys.readouterr().out


class TestSchedule:
    def test_schedule_with_bindings(self, fig2_json, capsys):
        assert main(["schedule", fig2_json, "--bind", "p=1", "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "occurrences: 10" in out
        assert "makespan" in out

    def test_unfolded_schedule(self, fig1_json, capsys):
        assert main(["schedule", fig1_json, "--cores", "2",
                     "--unfolding", "2"]) == 0
        assert "occurrences: 14" in capsys.readouterr().out

    def test_bad_binding_syntax(self, fig2_json):
        with pytest.raises(SystemExit):
            main(["schedule", fig2_json, "--bind", "p2"])


class TestBuffers:
    def test_symbolic_when_unbound(self, fig2_json, capsys):
        assert main(["buffers", fig2_json]) == 0
        assert "p" in capsys.readouterr().out

    def test_concrete_with_bindings(self, fig2_json, capsys):
        assert main(["buffers", fig2_json, "--bind", "p=2"]) == 0
        assert "total:" in capsys.readouterr().out


class TestThroughput:
    def test_csdf_throughput(self, fig1_json, capsys):
        assert main(["throughput", fig1_json]) == 0
        out = capsys.readouterr().out
        assert "max cycle ratio" in out
        assert "self-timed steady period" in out

    def test_tpdf_with_bindings(self, fig2_json, capsys):
        assert main(["throughput", fig2_json, "--bind", "p=2",
                     "--iterations", "3"]) == 0
        assert "throughput" in capsys.readouterr().out

    def test_capacity_bounds(self, fig1_json, fig1, capsys):
        channel = sorted(fig1.channels)[0]
        assert main(["throughput", fig1_json,
                     "--cap", f"{channel}=64"]) == 0
        assert "steady period" in capsys.readouterr().out

    def test_unknown_capacity_name_exits(self, fig1_json):
        with pytest.raises(SystemExit, match="typo"):
            main(["throughput", fig1_json, "--cap", "typo=4"])

    def test_bad_capacity_syntax_exits(self, fig1_json):
        with pytest.raises(SystemExit, match="channel=tokens"):
            main(["throughput", fig1_json, "--cap", "e1"])

    def test_deadlocking_capacity_exits_one(self, fig1_json, fig1, capsys):
        caps = [f"{name}=1" for name in fig1.channels]
        args = ["throughput", fig1_json]
        for cap in caps:
            args += ["--cap", cap]
        code = main(args)
        out = capsys.readouterr().out
        if code == 1:
            assert "deadlock" in out
        else:  # fig1 happens to run under unit capacities
            assert "steady period" in out

    def test_negative_capacity_is_deadlock(self, tmp_path, capsys):
        """Bugfix regression: ``--cap e=-1`` read as "unbounded" on the
        arrays core (it printed a period and exited 0)."""
        path = _write(tmp_path, csdf_to_dict(_pair()))
        code = main(["throughput", path, "--cap", "e=-1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "channel capacity below initial tokens: e" in out

    @pytest.mark.parametrize("doc, caps", (
        (csdf_to_dict(fig1_graph()), []),
        # Bugfix regression: the oracle re-run ignored ``--cap`` and
        # compared an unconstrained run against the bounded one.
        (csdf_to_dict(_pair()), ["--cap", "e=2"]),
    ), ids=("fig1", "pair-capped"))
    def test_reference_loop_parity(self, tmp_path, capsys, doc, caps):
        assert main(["throughput", _write(tmp_path, doc), "--reference-loop",
                     *caps]) == 0
        assert "reference loop parity:          identical" in (
            capsys.readouterr().out)

    def test_reference_loop_reports_divergence(self, fig1_json, capsys,
                                               monkeypatch):
        import dataclasses

        from repro.csdf import throughput

        oracle = throughput.self_timed_execution_reference

        def shifted(*args, **kwargs):
            result = oracle(*args, **kwargs)
            return dataclasses.replace(result, makespan=result.makespan + 1)

        monkeypatch.setattr(throughput, "self_timed_execution_reference",
                            shifted)
        assert main(["throughput", fig1_json, "--reference-loop"]) == 1
        assert "reference loop parity:          DIVERGED" in (
            capsys.readouterr().out)

    @pytest.mark.parametrize("scale, period", ((1.0, "2.5000"), (2.0, "1.2500")))
    def test_prints_the_exact_period(self, tmp_path, capsys, scale, period):
        """Bugfix regression: on OFDM (beta=2, N=32) at the trade-off's
        1.0x and 2.0x capacities the run's iterations alternate, and the
        last two iteration ends read 3.0000 and 2.0000 where the exact
        periods are 2.5 and 1.25; ``--probe-caps`` read the same."""
        from repro.apps.ofdm import bindings_for, build_ofdm_tpdf
        from repro.csdf import minimal_buffer_schedule

        graph = build_ofdm_tpdf()
        bindings = bindings_for(2, 32, 4, 4)
        _, peaks = minimal_buffer_schedule(graph.as_csdf(), bindings)
        capacities = {name: max(1, int(peak * scale)) for name, peak in peaks.items()}
        args = ["throughput", _write(tmp_path, tpdf_to_dict(graph))]
        for name, value in bindings.items():
            args += ["--bind", f"{name}={value}"]
        probe_file = tmp_path / "caps.json"
        probe_file.write_text(json.dumps([capacities]))
        assert main([*args, "--probe-caps", str(probe_file)]) == 0
        assert f"[0] period={period} " in capsys.readouterr().out
        for name, value in capacities.items():
            args += ["--cap", f"{name}={value}"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert f"self-timed steady period:       {period}\n" in out
        assert f"throughput:                     {1 / float(period):.4f} " in out

    def test_probe_caps_batch(self, fig1_json, fig1, tmp_path, capsys):
        loose = {name: 64 for name in fig1.channels}
        tight = {name: 1 for name in fig1.channels}
        probe_file = tmp_path / "caps.json"
        probe_file.write_text(json.dumps([loose, tight]))
        code = main(["throughput", fig1_json,
                     "--probe-caps", str(probe_file)])
        out = capsys.readouterr().out
        assert "[0] period=" in out
        assert ("[1] period=" in out) or ("[1] deadlock" in out)
        assert code == (1 if "deadlock" in out else 0)

    def test_probe_caps_unknown_name_exits(self, fig1_json, tmp_path):
        probe_file = tmp_path / "caps.json"
        probe_file.write_text(json.dumps([{"typo": 4}]))
        with pytest.raises(SystemExit, match="typo"):
            main(["throughput", fig1_json, "--probe-caps", str(probe_file)])

    @pytest.mark.parametrize("value", ("2", 2.5, True), ids=repr)
    def test_probe_caps_non_integer_exits(self, fig1_json, tmp_path, value):
        """Bugfix regression: a string capacity used to end in a
        ``TypeError`` traceback, and 2.5 or ``true`` ran."""
        probe_file = tmp_path / "caps.json"
        probe_file.write_text(json.dumps([{"e1": value}]))
        with pytest.raises(SystemExit) as exc:
            main(["throughput", fig1_json, "--probe-caps", str(probe_file)])
        assert isinstance(exc.value.code, str)
        assert "'e1' must be an integer" in exc.value.code
        assert "\n" not in exc.value.code

    def test_probe_caps_requires_array(self, fig1_json, tmp_path):
        probe_file = tmp_path / "caps.json"
        probe_file.write_text(json.dumps({"e1": 4}))
        with pytest.raises(SystemExit, match="array"):
            main(["throughput", fig1_json, "--probe-caps", str(probe_file)])


class TestSimulate:
    def test_tpdf_simulation_summary(self, fig2_json, capsys):
        assert main(["simulate", fig2_json, "--bind", "p=2",
                     "--limit", "A=4"]) == 0
        out = capsys.readouterr().out
        assert "firings:" in out
        assert "buffer peaks" in out

    def test_reference_parity_flag(self, fig2_json, capsys):
        assert main(["simulate", fig2_json, "--bind", "p=2",
                     "--limit", "A=4", "--check-reference"]) == 0
        assert "reference parity: identical" in capsys.readouterr().out

    def test_csdf_graph_wrapped(self, fig1_json, capsys):
        assert main(["simulate", fig1_json, "--max-firings", "2000",
                     "--until", "40"]) == 0
        assert "end time:" in capsys.readouterr().out

    def test_requires_stop_condition(self, fig2_json):
        with pytest.raises(SystemExit, match="stop condition"):
            main(["simulate", fig2_json, "--bind", "p=2"])

    def test_unknown_limit_node_exits(self, fig2_json):
        with pytest.raises(SystemExit, match="unknown nodes"):
            main(["simulate", fig2_json, "--bind", "p=2",
                  "--limit", "typo=4"])

    @pytest.mark.parametrize("cores", ("0", "-1"))
    def test_cores_below_one_exits(self, fig2_json, cores):
        with pytest.raises(SystemExit, match="cores must be >= 1"):
            main(["simulate", fig2_json, "--bind", "p=2",
                  "--limit", "A=4", "--cores", cores])

    def test_unknown_capacity_exits(self, fig2_json):
        with pytest.raises(SystemExit, match="typo"):
            main(["simulate", fig2_json, "--bind", "p=2",
                  "--limit", "A=4", "--cap", "typo=1"])

    def test_deadlocking_capacity_exits_one(self, fig2_json, capsys):
        code = main(["simulate", fig2_json, "--bind", "p=2",
                     "--limit", "A=8", "--cap", "e1=1"])
        out = capsys.readouterr().out
        if code == 1:
            assert "deadlock" in out
        else:  # fig2 happens to run under this bound
            assert "firings:" in out

    def test_gantt_output(self, fig2_json, capsys):
        assert main(["simulate", fig2_json, "--bind", "p=2",
                     "--limit", "A=2", "--gantt"]) == 0
        assert "|" in capsys.readouterr().out


class TestBufferSearch:
    def test_search_matches_library(self, fig1_json, fig1, capsys):
        from repro.csdf import min_buffers_for_full_throughput

        assert main(["buffers", fig1_json, "--search"]) == 0
        out = capsys.readouterr().out
        stats: dict = {}
        caps = min_buffers_for_full_throughput(fig1, stats=stats)
        for name, value in caps.items():
            assert f"  {name}: {value}" in out
        assert f"total: {sum(caps.values())}" in out
        assert f"verdicts: {stats['probes']}" in out

    def test_search_result_sustains_the_period(self, tmp_path, capsys):
        """Bugfix regression: on this graph the unconstrained peaks
        (``e1=4, e2=1, e3=1``) equal the capacity floors, and the
        search used to return them without a probe — period 7.0
        against the unconstrained 4.0."""
        from repro.csdf import min_buffers_for_full_throughput
        from repro.csdf.throughput import self_timed_execution
        from repro.tpdf import random_consistent_graph

        graph = random_consistent_graph(
            3, extra_edges=1, n_cycles=0, seed=10, with_control=False,
        ).as_csdf()
        path = tmp_path / "three.json"
        path.write_text(json.dumps(csdf_to_dict(graph)))
        assert main(["buffers", str(path), "--search"]) == 0
        out = capsys.readouterr().out
        caps = min_buffers_for_full_throughput(graph)
        assert [line for line in out.splitlines()
                if line.startswith("  ")] == [
            f"  {name}: {caps[name]}" for name in sorted(caps)]
        for iterations in (6, 128):
            run = self_timed_execution(graph, iterations=iterations,
                                       capacities=caps)
            assert run.iteration_period == 4.0

    def test_search_has_no_horizon(self, fig1_json, capsys):
        """Verdicts are exact: there is no probe horizon to choose."""
        with pytest.raises(SystemExit) as exc:
            main(["buffers", fig1_json, "--search", "--iterations", "6"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestErrors:
    @pytest.mark.parametrize("command, flag", (
        ("analyze", "--backend"),
        ("throughput", "--backend"),
        ("simulate", "--ready-core"),
    ))
    def test_retired_core_name_rejected(self, fig2_json, command, flag,
                                        capsys):
        """Each plane runs one core: the selector flags are gone."""
        with pytest.raises(SystemExit) as exc:
            main([command, fig2_json, flag, "arrays"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, argv, name", (
        (tpdf_to_dict(fig2_graph()), ["throughput"], "p"),
        (tpdf_to_dict(fig2_graph()), ["buffers", "--search"], "p"),
        (tpdf_to_dict(fig2_graph()), ["schedule"], "p"),
        (tpdf_to_dict(fig2_graph()), ["simulate", "--limit", "A=2"], "p"),
        (tpdf_to_dict(fig2_graph()), ["throughput", "--bind", "p=0"], "B"),
        (csdf_to_dict(_inconsistent()), ["throughput"], "a"),
        (csdf_to_dict(_inconsistent()), ["buffers"], "a"),
    ), ids=("throughput-unbound", "buffers-search-unbound",
            "schedule-unbound", "simulate-unbound", "throughput-p0",
            "throughput-inconsistent", "buffers-inconsistent"))
    def test_library_errors_exit_with_one_line(self, tmp_path, doc, argv,
                                               name):
        """``main`` is the one error boundary: a missing binding, an
        analysis error or inconsistent rates exit 1 with a message
        naming the parameter or actor, not a traceback."""
        command, *options = argv
        with pytest.raises(SystemExit) as exc:
            main([command, _write(tmp_path, doc), *options])
        assert isinstance(exc.value.code, str)
        assert f"'{name}'" in exc.value.code
        assert "\n" not in exc.value.code

    def test_unknown_model(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"model": "???"}')
        with pytest.raises(SystemExit):
            main(["analyze", str(path)])


class TestServe:
    def test_smoke_self_check(self, capsys):
        # starts a real service on an ephemeral port, round-trips one
        # analysis over HTTP, verifies bit-for-bit against direct
        assert main(["serve", "--smoke", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "smoke: ok" in out
        assert "mcr=3.0000" in out  # fig1's MCR through the wire

    def test_bad_worker_count_exits(self):
        with pytest.raises(SystemExit):
            main(["serve", "--smoke", "--workers", "0"])
