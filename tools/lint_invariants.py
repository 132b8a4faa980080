#!/usr/bin/env python
"""AST-based codebase invariant linter for the ``repro`` sources.

The analysis correctness of this repo leans on a handful of
conventions that ordinary tests cannot see locally (each individual
call site looks fine; the invariant is global):

``M1 bump-kind``
    Every ``bump_version(...)`` call must say *what kind* of mutation
    it records (an explicit ``kind=`` argument or a positional kind).
    A bare ``bump_version(g)`` silently records a structural edit,
    which drops every result the incremental re-analysis would carry
    across an execution-time edit.

``M1 mutate-bump``
    Every mutating method of the graph-model classes (``CSDFGraph``,
    ``TPDFGraph``, channels, actors, ports...) must route through the
    version machinery — ``bump_version``, ``self._touch()`` or
    ``ensure_mutable`` — so no edit can leave a stale memoized
    analysis behind.

``M2 frozen-writes``
    Flipping numpy array writability (``.setflags(...)``,
    ``.flags.writeable = ...``) is banned everywhere: shared products
    are immutable by construction (tuples, frozen graphs), never by a
    flag someone can flip back.

``M3 nondeterminism``
    ``repro.*`` results must be bit-for-bit reproducible (the
    parallel/incremental differential suites compare fingerprints), so
    wall-clock reads (``time.time``, ``datetime.now``...) and the
    module-level ``random.*`` functions are banned.  Allowed:
    ``time.perf_counter``/``monotonic`` (elapsed metadata outside the
    fingerprint), seeded ``random.Random(seed)`` instances and
    ``numpy``'s ``default_rng``.

``M4 tracked-bytecode``
    No ``__pycache__``/``*.pyc`` artifacts may be tracked by git.

Usage::

    python tools/lint_invariants.py [paths...]    # default: src/

Exit status 1 when any violation is found.  The checks are importable
(``check_source``, ``check_paths``, ``check_tracked_bytecode``) and
run as a tier-1 test (``tests/test_lint_invariants.py``) and a CI job.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


#: Graph-model classes whose mutating methods must bump the version.
GRAPH_CLASSES = frozenset({
    "CSDFGraph", "TPDFGraph", "TPDFChannel", "Channel", "Actor",
    "Port", "Node", "Kernel", "ControlActor",
})

#: Calls that count as routing through the version machinery.
VERSION_MARKERS = frozenset({"bump_version", "_touch", "ensure_mutable"})

#: Methods exempt from M1 mutate-bump: construction/deserialization
#: runs before the object is visible (version 0 is correct), and
#: back-reference wiring (``_owner``/``_graph``) is done under the
#: graph method that itself bumps.
M1_EXEMPT_METHODS = frozenset({
    "__init__", "__post_init__", "__setstate__", "__deepcopy__",
})

#: Self-attributes whose assignment is not a semantic graph mutation:
#: the version/cache bookkeeping itself (written by the machinery the
#: rule mandates) and simulation run state.
M1_EXEMPT_ATTRS = frozenset({
    "_analysis_cache", "_analysis_version", "_analysis_frozen",
    "_analysis_structure", "_analysis_content",
})

#: ``time.*`` attributes banned by M3 (wall clock); the monotonic
#: elapsed-measurement clocks stay allowed.
BANNED_TIME = frozenset({"time", "time_ns", "localtime", "gmtime", "ctime"})

#: ``random.*`` module-level attributes that are allowed (seedable
#: generator classes; everything else on the module is hidden global
#: state).
ALLOWED_RANDOM = frozenset({"Random", "SystemRandom"})

BANNED_DATETIME = frozenset({"now", "utcnow", "today"})


# ---------------------------------------------------------------------------
# Per-file checks
# ---------------------------------------------------------------------------


def _is_self_mutation(node: ast.AST) -> str | None:
    """The attribute name when ``node`` is an assignment target that
    mutates ``self`` state (``self.x = ...``, ``self.x[k] = ...``,
    ``self.x += ...``), else None."""
    target = node
    if isinstance(target, ast.Subscript):
        target = target.value
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return target.attr
    return None


def _method_mutations(fn: ast.FunctionDef) -> list[tuple[int, str]]:
    """(line, attr) rows for every self-state mutation in ``fn``."""
    rows: list[tuple[int, str]] = []
    for node in ast.walk(fn):
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            attr = _is_self_mutation(target)
            if attr is not None and attr not in M1_EXEMPT_ATTRS:
                rows.append((node.lineno, attr))
    return rows


def _called_names(fn: ast.FunctionDef) -> set[str]:
    """Bare and ``self.``-qualified callee names inside ``fn``."""
    names: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            names.add(func.id)
        elif isinstance(func, ast.Attribute):
            names.add(func.attr)
    return names


def _check_m1(tree: ast.Module, path: str) -> list[Violation]:
    violations: list[Violation] = []
    # bump-kind: every bump_version call carries an explicit kind.
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name != "bump_version":
            continue
        has_kind = (len(node.args) >= 2
                    or any(kw.arg == "kind" for kw in node.keywords))
        if not has_kind:
            violations.append(Violation(
                "M1", path, node.lineno,
                "bump_version() without an explicit kind — say what "
                "this mutation is so incremental re-analysis can use it",
            ))
    # mutate-bump: mutating methods of graph classes hit the machinery.
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        if cls.name not in GRAPH_CLASSES:
            continue
        methods = [n for n in cls.body if isinstance(n, ast.FunctionDef)]
        # A method that itself calls a marker transitively covers its
        # callers (one level is enough for this codebase's shape).
        marked = {
            m.name for m in methods
            if _called_names(m) & VERSION_MARKERS
        }
        for method in methods:
            if method.name in M1_EXEMPT_METHODS:
                continue
            mutations = _method_mutations(method)
            if not mutations:
                continue
            called = _called_names(method)
            if called & VERSION_MARKERS or called & marked:
                continue
            line, attr = mutations[0]
            violations.append(Violation(
                "M1", path, line,
                f"{cls.name}.{method.name} mutates self.{attr} without "
                f"bump_version/_touch/ensure_mutable — memoized analyses "
                f"of this graph go stale silently",
            ))
    return violations


def _check_m2(tree: ast.Module, path: str) -> list[Violation]:
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setflags"):
            violations.append(Violation(
                "M2", path, node.lineno,
                "array .setflags() — shared products must be immutable by "
                "construction, not by a writability flag",
            ))
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr == "writeable"):
                    violations.append(Violation(
                        "M2", path, node.lineno,
                        "writeability flip — shared products must be "
                        "immutable by construction, not by a flag",
                    ))
    return violations


def _check_m3(tree: ast.Module, path: str) -> list[Violation]:
    violations: list[Violation] = []

    def ban(node: ast.AST, what: str, why: str) -> None:
        violations.append(Violation("M3", path, node.lineno,
                                    f"{what} — {why}"))

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "time" and func.attr in BANNED_TIME:
                    ban(node, f"time.{func.attr}()",
                        "wall clock in analysis code; use "
                        "perf_counter/monotonic for elapsed metadata")
                if base.id == "datetime" and func.attr in BANNED_DATETIME:
                    ban(node, f"datetime.{func.attr}()",
                        "wall clock breaks fingerprint reproducibility")
                if base.id == "date" and func.attr == "today":
                    ban(node, "date.today()",
                        "wall clock breaks fingerprint reproducibility")
                if base.id == "random" and func.attr not in ALLOWED_RANDOM:
                    ban(node, f"random.{func.attr}()",
                        "module-level RNG is hidden global state; use a "
                        "seeded random.Random(seed)")
            # np.random.<fn>( / numpy.random.<fn>(
            if (isinstance(base, ast.Attribute) and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in ("np", "numpy")
                    and func.attr != "default_rng"):
                ban(node, f"{base.value.id}.random.{func.attr}()",
                    "legacy global numpy RNG; use default_rng(seed)")
        if isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in BANNED_TIME:
                        ban(node, f"from time import {alias.name}",
                            "wall clock in analysis code")
            if node.module == "random":
                for alias in node.names:
                    if alias.name not in ALLOWED_RANDOM:
                        ban(node, f"from random import {alias.name}",
                            "module-level RNG is hidden global state")
    return violations


def check_source(source: str, path: str = "<string>") -> list[Violation]:
    """All source-level checks (M1-M3) on one file's text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation("parse", path, exc.lineno or 0, str(exc))]
    return (_check_m1(tree, path)
            + _check_m2(tree, path)
            + _check_m3(tree, path))


def check_paths(paths: list[Path]) -> list[Violation]:
    """Run the source checks over files and directory trees."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    violations: list[Violation] = []
    for file in files:
        violations.extend(check_source(file.read_text(), str(file)))
    return violations


def check_tracked_bytecode(root: Path) -> list[Violation]:
    """M4: no ``__pycache__``/``*.pyc`` under git tracking.  Silently
    empty when ``root`` is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "ls-files"], cwd=root, capture_output=True, text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return []
    return [
        Violation("M4", line, 0,
                  "bytecode artifact tracked by git; git rm --cached it "
                  "and keep __pycache__/ in .gitignore")
        for line in out.splitlines()
        if "__pycache__" in line or line.endswith(".pyc")
    ]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="codebase invariant linter (see module docstring)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to check (default: src)")
    parser.add_argument("--no-git", action="store_true",
                        help="skip the tracked-bytecode check (M4)")
    args = parser.parse_args(argv)

    violations = check_paths([Path(p) for p in args.paths])
    if not args.no_git:
        violations.extend(check_tracked_bytecode(Path.cwd()))
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    print("invariants clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
