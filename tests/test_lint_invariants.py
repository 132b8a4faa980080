"""Tier-1 run of the codebase invariant linter (tools/lint_invariants.py).

Two directions, mirroring the diagnostics soundness suite: the real
sources must be clean, and every rule must actually fire on a minimal
fixture exhibiting its banned pattern (so a refactor of the linter
cannot silently lobotomize a check).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from lint_invariants import (Violation, check_paths, check_source,  # noqa: E402
                             check_tracked_bytecode, main)


def _rules(source: str, path: str = "x.py") -> list[str]:
    return [v.rule for v in check_source(source, path)]


class TestRepoIsClean:
    def test_src_tree_has_no_violations(self):
        violations = check_paths([REPO / "src"])
        assert violations == [], "\n".join(map(str, violations))

    def test_tools_tree_has_no_violations(self):
        violations = check_paths([REPO / "tools"])
        assert violations == [], "\n".join(map(str, violations))

    def test_no_tracked_bytecode(self):
        violations = check_tracked_bytecode(REPO)
        assert violations == [], "\n".join(map(str, violations))


class TestM1BumpKind:
    def test_bare_bump_version_flagged(self):
        assert _rules("bump_version(g)\n") == ["M1"]

    def test_kind_keyword_passes(self):
        assert _rules("bump_version(g, kind='structural')\n") == []

    def test_scope_keyword_flagged(self):
        # ``scope=`` is not a kind (the keyword no longer exists).
        assert _rules("bump_version(g, scope=('a',))\n") == ["M1"]

    def test_positional_kind_passes(self):
        assert _rules("bump_version(g, 'binding')\n") == []


class TestM1MutateBump:
    FIXTURE = """
class TPDFGraph:
    def rename(self, name):
        self._name = name
"""

    def test_unbumped_mutator_flagged(self):
        assert _rules(self.FIXTURE) == ["M1"]

    def test_marker_call_passes(self):
        fixed = self.FIXTURE.replace(
            "self._name = name",
            "self._name = name\n        "
            "bump_version(self, kind='structural')")
        assert _rules(fixed) == []

    def test_transitive_marker_passes(self):
        source = """
class Kernel:
    def _touch(self):
        bump_version(self._graph, kind='structural')
    def set_priority(self, p):
        self._priority = p
        self._touch()
"""
        assert _rules(source) == []

    def test_exempt_methods_and_attrs_pass(self):
        source = """
class Channel:
    def __init__(self, name):
        self._name = name
    def probe(self):
        self._analysis_cache = (0, {})
"""
        assert _rules(source) == []

    def test_non_graph_classes_are_out_of_scope(self):
        source = """
class ResultCache:
    def put(self, key, value):
        self._entries[key] = value
"""
        assert _rules(source) == []


class TestM2FrozenWrites:
    def test_setflags_flagged(self):
        assert _rules("arr.setflags(write=True)\n") == ["M2"]

    def test_writeable_assign_flagged(self):
        assert _rules("arr.flags.writeable = True\n") == ["M2"]

    def test_statearrays_is_the_sanctioned_site(self):
        """No file is exempt any more, the executor template included."""
        assert _rules("arr.setflags(write=True)\n",
                      "src/repro/csdf/statearrays.py") == ["M2"]


class TestM3Nondeterminism:
    @pytest.mark.parametrize("snippet", [
        "time.time()",
        "time.time_ns()",
        "datetime.now()",
        "datetime.utcnow()",
        "date.today()",
        "random.random()",
        "random.randint(0, 3)",
        "np.random.rand(4)",
        "numpy.random.shuffle(x)",
        "from time import time",
        "from random import choice",
    ])
    def test_banned_patterns_flagged(self, snippet):
        assert _rules(snippet + "\n") == ["M3"]

    @pytest.mark.parametrize("snippet", [
        "time.perf_counter()",
        "time.monotonic()",
        "random.Random(7)",
        "random.SystemRandom()",
        "np.random.default_rng(7)",
        "from time import perf_counter",
        "from random import Random",
    ])
    def test_allowed_patterns_pass(self, snippet):
        assert _rules(snippet + "\n") == []


class TestCLI:
    def test_clean_run_exits_zero(self, capsys):
        assert main([str(REPO / "src"), "--no-git"]) == 0
        assert "invariants clean" in capsys.readouterr().out

    def test_violating_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("bump_version(g)\n")
        assert main([str(bad), "--no-git"]) == 1
        out = capsys.readouterr().out
        assert "[M1]" in out and "1 invariant violation(s)" in out

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        violations = check_paths([broken])
        assert [v.rule for v in violations] == ["parse"]

    def test_violation_str_is_location_first(self):
        v = Violation("M3", "src/x.py", 12, "boom")
        assert str(v) == "src/x.py:12: [M3] boom"
