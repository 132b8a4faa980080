"""Documentation gate: docs snippets run, links resolve, doctests pass.

Three checks keep the documentation honest:

1. every fenced ```python block in ``docs/*.md`` executes as-is (each
   block is a self-contained program);
2. every markdown link and every backticked repo path in ``docs/*.md``
   and ``README.md`` points at a file that exists;
3. the public-API doctest shard (module docstring examples of
   ``repro.analysis``, ``repro.cache``, ``repro.csdf.mcr``,
   ``repro.csdf.symbuf``, ``repro.csdf.parametric``) passes — the same
   modules the CI docs job runs under ``pytest --doctest-modules``.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = sorted((REPO / "docs").glob("*.md"))
PAGES = DOCS + [REPO / "README.md"]

#: Module docstrings whose examples must run (the doctest shard).
DOCTEST_MODULES = [
    "repro.analysis",
    "repro.cache",
    "repro.csdf.schedule",
    "repro.csdf.buffers",
    "repro.csdf.mcr",
    "repro.csdf.symbuf",
    "repro.csdf.parametric",
]

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_LINK = re.compile(r"\[[^\]]+\]\(([^)#]+)(?:#[^)]*)?\)")
_CODE_PATH = re.compile(
    r"`((?:src|tests|benchmarks|examples|docs)/[\w./-]+\.(?:py|md))`"
)


def _python_blocks(page: Path) -> list[tuple[int, str]]:
    text = page.read_text()
    blocks = []
    for match in _FENCE.finditer(text):
        line = text[: match.start()].count("\n") + 2
        blocks.append((line, match.group(1)))
    return blocks


def test_docs_pages_exist():
    assert (REPO / "docs" / "architecture.md").is_file()
    assert (REPO / "docs" / "analysis.md").is_file()


@pytest.mark.parametrize(
    "page", DOCS, ids=lambda p: p.name
)
def test_docs_snippets_execute(page):
    blocks = _python_blocks(page)
    assert blocks, f"{page.name} has no runnable python snippets"
    for line, source in blocks:
        namespace = {"__name__": f"docs_snippet_{page.stem}"}
        try:
            exec(compile(source, f"{page.name}:{line}", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"snippet at {page.name}:{line} raised {exc!r}")


@pytest.mark.parametrize("page", PAGES, ids=lambda p: p.name)
def test_links_and_paths_resolve(page):
    text = page.read_text()
    missing = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        resolved = (page.parent / target).resolve()
        if not resolved.exists():
            missing.append(target)
    for target in _CODE_PATH.findall(text):
        if not (REPO / target).exists():
            missing.append(target)
    assert not missing, f"{page.name} references missing paths: {missing}"


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_public_api_doctests(module_name):
    import importlib

    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module_name} has no doctest examples"
    assert result.failed == 0
