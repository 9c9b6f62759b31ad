"""Documentation guarantees: docstrings, doctests, and the ``docs/`` tree.

Three invariants, enforced in CI (the ``docs`` job):

1. **Docstring audit** — every public symbol exported from
   ``repro.__init__`` or a subpackage ``__all__`` has a docstring with an
   *executable* example (a ``>>>`` doctest on the object itself, or — for
   classes — on one of its public methods).
2. **Doctests run** — every doctest in the ``repro`` source tree passes.
3. **Docs examples run + links resolve** — every fenced ``python`` block
   in ``docs/*.md`` (and the README) executes, and every intra-repo link
   or backticked file path in the docs points at a file that exists.
"""

from __future__ import annotations

import doctest
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"

PACKAGES = [
    "repro",
    "repro.approx",
    "repro.comm",
    "repro.core",
    "repro.data",
    "repro.elastic",
    "repro.experiments",
    "repro.nn",
    "repro.obs",
    "repro.optim",
    "repro.parallel",
    "repro.perfmodel",
    "repro.sched",
    "repro.precision",
    "repro.tensor",
    "repro.utils",
]

#: doctest semantics for the whole repo: ELLIPSIS for long reprs
DOCTEST_FLAGS = doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE

_CONSTANT_TYPES = (str, bytes, int, float, bool, tuple, list, dict, frozenset)


def iter_exports():
    """Yield ``(dotted_name, object)`` for every package-level export."""
    seen: set[int] = set()
    for pkg in PACKAGES:
        mod = importlib.import_module(pkg)
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if isinstance(obj, _CONSTANT_TYPES):
                continue  # plain constants (version strings, presets dicts)
            if id(obj) in seen:
                continue  # re-exported under several packages
            seen.add(id(obj))
            yield f"{pkg}.{name}", obj


EXPORTS = list(iter_exports())


def _doc_of(obj) -> str:
    return inspect.getdoc(obj) or ""


def _has_example(obj) -> bool:
    if ">>>" in _doc_of(obj):
        return True
    cls = obj if inspect.isclass(obj) else type(obj)
    if cls is not obj and not inspect.isclass(obj) and ">>>" in _doc_of(cls):
        return True
    if inspect.isclass(obj) or not callable(obj):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_") or not callable(member):
                continue
            if ">>>" in (getattr(member, "__doc__", None) or ""):
                return True
    return False


class TestDocstringAudit:
    @pytest.mark.parametrize("dotted,obj", EXPORTS, ids=[d for d, _ in EXPORTS])
    def test_export_has_docstring(self, dotted, obj):
        assert _doc_of(obj).strip(), f"{dotted} has no docstring"

    @pytest.mark.parametrize("dotted,obj", EXPORTS, ids=[d for d, _ in EXPORTS])
    def test_export_has_executable_example(self, dotted, obj):
        assert _has_example(obj), (
            f"{dotted} has no executable (>>>) example in its docstring "
            "or any public method docstring"
        )


ALL_MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


class TestDoctests:
    @pytest.mark.parametrize("modname", ALL_MODULES)
    def test_module_doctests_pass(self, modname):
        mod = importlib.import_module(modname)
        runner = doctest.DocTestRunner(optionflags=DOCTEST_FLAGS, verbose=False)
        attempted = 0
        for test in doctest.DocTestFinder(exclude_empty=True).find(
            mod, name=modname, module=mod
        ):
            runner.run(test)
            attempted += len(test.examples)
        assert runner.failures == 0, (
            f"{runner.failures} doctest failure(s) in {modname} "
            f"(of {attempted} examples); run "
            f"`python -m doctest -o ELLIPSIS src/{modname.replace('.', '/')}.py -v`"
        )

    def test_repro_tree_has_doctest_coverage(self):
        """The runner is not vacuous: the tree carries hundreds of examples."""
        total = 0
        finder = doctest.DocTestFinder(exclude_empty=True)
        for modname in ALL_MODULES:
            mod = importlib.import_module(modname)
            for test in finder.find(mod, name=modname, module=mod):
                total += len(test.examples)
        assert total > 200, f"expected a well-exampled tree, found {total} examples"


FENCE_RE = re.compile(r"```python\n(.*?)```", re.S)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
PATH_RE = re.compile(r"`([\w.-]+(?:/[\w.-]+)+\.(?:py|md|yml))`")
#: a root-level document name (README.md, CHANGES.md, ...) not part of a path
ROOT_MD_RE = re.compile(r"(?<![\w/.-])([A-Z][A-Z0-9_]+\.md)\b")

DOC_PAGES = sorted(DOCS.glob("*.md")) if DOCS.is_dir() else []


class TestDocsTree:
    def test_docs_tree_exists_with_required_pages(self):
        required = {
            "approximation.md",
            "architecture.md",
            "placement.md",
            "precision.md",
            "communication.md",
            "perfmodel.md",
            "scheduler.md",
            "elasticity.md",
            "workloads.md",
        }
        present = {p.name for p in DOC_PAGES}
        assert required <= present, f"missing docs pages: {required - present}"

    @pytest.mark.parametrize("page", DOC_PAGES, ids=[p.name for p in DOC_PAGES])
    def test_docs_fenced_python_blocks_execute(self, page):
        """Every ```python block in a docs page is a runnable example.

        Blocks on one page share a namespace, so later blocks may build on
        earlier ones (tutorial style).
        """
        blocks = FENCE_RE.findall(page.read_text())
        assert blocks, f"{page.name} has no executable python examples"
        namespace: dict = {}
        for i, block in enumerate(blocks):
            try:
                exec(compile(block, f"{page.name}[block {i}]", "exec"), namespace)
            except Exception as exc:  # pragma: no cover - failure reporting
                pytest.fail(f"{page.name} block {i} raised {exc!r}:\n{block}")

    @pytest.mark.parametrize(
        "page",
        DOC_PAGES + [REPO / "README.md"],
        ids=[p.name for p in DOC_PAGES] + ["README.md"],
    )
    def test_intra_doc_links_resolve(self, page):
        """Markdown links and backticked repo paths must point at real files."""
        text = page.read_text()
        missing = []
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue  # pure anchor
            if not ((page.parent / path).exists() or (REPO / path).exists()):
                missing.append(target)
        for path in PATH_RE.findall(text):
            if not ((page.parent / path).exists() or (REPO / path).exists()):
                missing.append(path)
        assert not missing, f"{page.name} references missing files: {missing}"

    def test_root_markdown_names_in_source_exist(self):
        """An ``UPPERCASE.md`` cited from ``src/`` must be a repo-root file.

        Root-level documents get renamed or folded into ``docs/`` pages;
        a docstring still citing the old name sends the reader nowhere.
        """
        missing = sorted(
            {
                f"{path.relative_to(REPO)}: {name}"
                for path in (REPO / "src").rglob("*.py")
                for name in ROOT_MD_RE.findall(path.read_text())
                if not (REPO / name).is_file()
            }
        )
        assert not missing, f"source cites missing root documents: {missing}"

    def test_readme_links_into_docs(self):
        text = (REPO / "README.md").read_text()
        assert "docs/architecture.md" in text and "docs/placement.md" in text
