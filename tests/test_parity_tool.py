"""Tier-1 smoke run of the parity digests (tools/parity.py).

The full sets compare two trees; here a trimmed call, made twice on
freshly built inputs, must hash every set to the same digest, the
``decode``, ``simulate``, ``summary``, ``buffers`` and ``executor``
sets must hash results, not errors, the ``service`` set must find
every served result equal to the direct one, the ``liveness`` set
must see deadlocks, and the ``balance`` set must see consistent and
inconsistent rates.  ``--against`` compares this checkout with a
scratch repository whose one commit perturbs the summary text.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from parity import (EXECUTOR_CORES, EXECUTOR_ITERATIONS, SETS,  # noqa: E402
                    SUMMARY_SWITCHES, against, balance_set, buffers_set,
                    decode_set, digest, digests, executor_set, liveness_set,
                    main, service_set, simulate_set, summary_set)


def test_trimmed_digests_repeat():
    first = digests(trim=2)
    assert set(first) == set(SETS)
    assert all(count > 0 for _sha, count in first.values())
    assert digests(trim=2) == first


def test_trimmed_decode_and_simulate_sets_hash_results():
    """Every trimmed source yields a decoded graph or a trace, not an
    error outcome: a decoded document re-encodes to its own
    fingerprint, and the OFDM runs and random graphs leave traces."""
    decoded = list(decode_set(trim=2))
    assert len(decoded) == 6  # corpus, gallery, perfbench
    for _label, outcome in decoded:
        doc_fp, described, payload_fp, _view = outcome
        assert doc_fp == payload_fp and described.startswith(("TPDF", "CSDF"))
    labels = [label for label, _ in decoded]
    assert labels[-1].startswith("perfbench1:")
    simulated = list(simulate_set(trim=2))
    assert [label for label, _ in simulated] == [
        "ofdm_qam", "ofdm_qpsk", "perfbench1:sim40_0", "perfbench1:sim40_1"]
    assert all(isinstance(fp, str) and len(fp) == 64 for _, fp in simulated)


def test_trimmed_summary_and_service_sets_hash_results():
    """Two corpus graphs at default options and with each switch off,
    then the gallery's first TPDF graph, each a summary; and every
    served result equal to its direct twin."""
    summaries = list(summary_set(trim=2))
    assert len(summaries) == 2 * (1 + len(SUMMARY_SWITCHES)) + 1
    for _label, (text, skipped, errors) in summaries:
        assert text.startswith("graph: ") and "liveness: live" in text
        assert isinstance(skipped, tuple) and errors == ()
    served = list(service_set(trim=2))
    assert {op for (_label, op), _ in served} == {
        "analyze", "lint", "simulate", "parametric"}
    assert all(outcome == direct for _, (outcome, direct) in served)


def test_trimmed_liveness_set_sees_deadlocks():
    """Two graphs per source and their token mutations: 10 of the 20
    CSDF verdicts are deadlocks, and each of the 17 TPDF reports agrees
    with the verdict on its CSDF view, a dead one naming its reason."""
    items = dict(liveness_set(trim=2))
    verdicts = {label: live for label, live in items.items() if len(label) == 2}
    reports = {label[:2]: report for label, report in items.items()
               if len(label) == 3}
    assert (len(verdicts), len(reports)) == (20, 17)
    assert sum(not live for live in verdicts.values()) == 10
    for label, (live, reason, cycles) in reports.items():
        cycle_reasons = [cycle[-1] for cycle in cycles]
        assert live == verdicts[label] and bool(reason) != live, label
        assert any(cycle_reasons) != live, label


def test_trimmed_buffers_set_hashes_capacities():
    """Two graphs per source (corpus, EXT7 family, EXT3), each a full
    capacity mapping in its graph's channel order."""
    items = list(buffers_set(trim=2))
    assert [label.split(":")[0] for label, _ in items] == [
        "corpus3", "corpus3", "ext7", "ext7", "ext3", "ext3"]
    for _label, capacities in items:
        assert isinstance(capacities, dict) and capacities
        assert all(isinstance(value, int) for value in capacities.values())


def test_trimmed_executor_set_hashes_runs():
    """Two corpus graphs, each at every core budget under no
    capacities, the capacity floors and the floors plus one: a run of
    ``EXECUTOR_ITERATIONS`` iterations each."""
    items = list(executor_set(trim=2))
    assert [label[1:] for label, _ in items[:9]] == [
        (cores, vector) for cores in EXECUTOR_CORES
        for vector in ("none", "floors", "floors+1")]
    assert len(items) == 18
    for _label, (makespan, iterations, firings, ends, peaks) in items:
        assert iterations == len(ends) == EXECUTOR_ITERATIONS
        assert makespan == ends[-1] and firings > 0
        assert peaks == tuple(sorted(peaks))


def test_trimmed_balance_set_sees_both_verdicts():
    """Two graphs per source (corpus, gallery, perfbench) and their rate
    mutations: the unmutated inputs all solve, a doubled production
    mostly breaks the balance, and a TPDF input with a control actor
    (Fig. 2) hashes its local solutions.  A second pass over freshly
    built inputs hashes the same."""
    items = list(balance_set(trim=2))
    assert digest(iter(items)) == digest(balance_set(trim=2))
    originals = {label: outcome for label, outcome in items
                 if isinstance(label, str)}
    assert len(originals) == 6
    mutants = [outcome for label, outcome in items if not isinstance(label, str)]
    failed = [outcome for outcome in mutants
              if outcome[0][0] == "InconsistentRatesError"]
    assert all(isinstance(outcome[0][0], tuple) for outcome in originals.values())
    assert 0 < len(failed) < len(mutants)
    q, concrete, cycles, areas = originals["fig2_p2"]
    assert dict(q)["B"] == "2*p" and dict(concrete)["B"] == 4
    ((control, (text, rendered)),) = areas
    assert (control, text) == ("C", "[B^2 D E^2 F^2] x p")
    assert rendered.startswith("LocalSolution(subset=('B', 'D', 'E', 'F'), factor=Poly(p)")


def test_unknown_set_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2
    assert "unknown set(s): nope" in capsys.readouterr().err


def test_against_reports_a_perturbed_tree(tmp_path):
    """A scratch repository holds this checkout's ``src`` with the
    summary's period line reworded.  A trimmed ``--against`` finds the
    ``mcr`` set equal, and the ``summary`` set different on exactly the
    six items that print the period, the first corpus graph first."""
    repo = tmp_path / "repo"
    shutil.copytree(REPO / "src", repo / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = repo / "src" / "repro" / "analysis.py"
    text = module.read_text()
    assert text.count("max cycle ratio (exact period)") == 1
    module.write_text(text.replace("max cycle ratio (exact period)",
                                   "max cycle ratio, perturbed    "))
    git = ["git", "-C", str(repo), "-c", "user.name=parity",
           "-c", "user.email=parity@localhost", "-c", "commit.gpgsign=false"]
    for command in (["init", "-q"], ["add", "src"],
                    ["commit", "-q", "-m", "perturbed summary"]):
        subprocess.run([*git, *command], check=True)
    compared = against("HEAD", ["mcr", "summary"], trim=2, repo=repo)
    old, new, count, differ, first = compared["mcr"]
    assert old == new and differ == 0 and first is None
    old, new, count, differ, first = compared["summary"]
    assert old != new and (count, differ) == (9, 6)
    assert first == repr("corpus3:1:0:0")
