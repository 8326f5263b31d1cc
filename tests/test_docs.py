"""Documentation integrity: README, docs/, doctests and example scripts.

No aspirational docs: every fenced Python block in ``README.md`` is
executed here, the solver table in ``docs/solvers.md`` is checked
against the live registry, the package and ``repro.ot`` docstring
doctests must run, and every example script must expose a ``main``
callable.
"""

from __future__ import annotations

import ast
import doctest
import re
from pathlib import Path

import pytest

import importlib

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
DOCS_DIR = REPO_ROOT / "docs"

#: The repro.ot modules whose docstring examples must stay runnable
#: (CI also runs ``pytest --doctest-modules src/repro/ot``).  Resolved
#: via importlib because e.g. the ``repro.ot.solve`` *attribute* is the
#: facade function, shadowing the module of the same name.
DOCTESTED_MODULES = tuple(
    importlib.import_module(f"repro.ot.{name}")
    for name in ("solve", "registry", "multiscale", "coupling", "onedim"))


def fenced_blocks(markdown: str, language: str = "python") -> list:
    """Extract the contents of ``language``-tagged fenced code blocks."""
    pattern = rf"```{language}\n(.*?)```"
    return re.findall(pattern, markdown, flags=re.DOTALL)


def test_package_docstring_doctest():
    results = doctest.testmod(repro, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


@pytest.mark.parametrize("module", DOCTESTED_MODULES,
                         ids=lambda m: m.__name__)
def test_ot_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0


def test_backend_module_doctests():
    import repro.core.backend

    results = doctest.testmod(repro.core.backend, verbose=False)
    assert results.attempted > 0, "repro.core.backend lost its doctests"
    assert results.failed == 0


def test_readme_exists_and_covers_the_basics():
    readme = (REPO_ROOT / "README.md").read_text()
    for needle in ("pip install", "repro.ot", "DistributionalRepairer",
                   "--n-jobs", "solve_many", "benchmarks/results",
                   "repro serve", "BackgroundServer"):
        assert needle in readme, f"README.md lost its {needle!r} section"


def test_readme_python_blocks_execute():
    """Every fenced Python block in the README runs, in order, sharing
    one namespace — the quickstart cannot rot."""
    readme = (REPO_ROOT / "README.md").read_text()
    blocks = fenced_blocks(readme)
    assert len(blocks) >= 4, "README.md lost its quickstart code"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        try:
            exec(compile(block, f"README.md[block {i}]", "exec"),
                 namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"README.md python block {i} failed: {exc!r}\n"
                        f"--- block ---\n{block}")


def test_solvers_doc_table_matches_registry():
    """docs/solvers.md documents exactly the registered solver names."""
    table = (DOCS_DIR / "solvers.md").read_text()
    rows = re.findall(r"^\| `([a-z_0-9]+)` \|", table, flags=re.MULTILINE)
    assert rows, "docs/solvers.md lost its solver table"
    documented = set(rows)
    registered = set(repro.available_solvers())
    assert documented == registered, (
        f"docs/solvers.md out of sync: missing {registered - documented}, "
        f"stale {documented - registered}")


def test_solvers_doc_batched_column_matches_registry():
    """The table's *Batched* column mirrors ``repro.ot.batch_support()``."""
    table = (DOCS_DIR / "solvers.md").read_text()
    documented = {}
    for line in table.splitlines():
        match = re.match(r"^\| `([a-z_0-9]+)` \|", line)
        if not match:
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        assert len(cells) >= 6, f"row {match.group(1)} lost its columns"
        batched_cell = cells[4].lower()
        assert batched_cell.startswith(("yes", "no")), (
            f"row {match.group(1)}: Batched column must start with "
            f"yes/no, got {cells[4]!r}")
        documented[match.group(1)] = batched_cell.startswith("yes")
    live = repro.ot.batch_support()
    assert documented == live, (
        f"docs/solvers.md Batched column out of sync with "
        f"batch_support(): doc says {documented}, registry says {live}")


def test_architecture_doc_matches_code():
    """Spot-check that docs/architecture.md names real things."""
    doc = (DOCS_DIR / "architecture.md").read_text()
    from repro.core.serialize import FORMAT_VERSION
    assert f"FORMAT_VERSION = {FORMAT_VERSION}" in doc
    for module in ("repro.data", "repro.density", "repro.ot",
                   "repro.core", "repro.experiments"):
        assert module in doc
    for name in ("register_solver", "resolve_solver", "filter_opts",
                 "available_solvers", "register_batch_solver",
                 "solve_many", "batch_support"):
        assert name in doc
        assert hasattr(repro.ot, name)
    # The restricted-LP-engine section names the real warm-start API.
    for name in ("NetworkSimplexState", "network_simplex_arcs",
                 "refine_state"):
        assert name in doc, f"architecture.md lost simplex API {name}"
        assert hasattr(repro.ot, name)
    assert "restricted_engine" in doc
    # The execution-engine section names the real strategies.
    from repro.core.executor import EXECUTOR_NAMES
    for name in EXECUTOR_NAMES:
        assert f"`{name}`" in doc, f"architecture.md lost executor {name}"
    assert "resolve_executor" in doc
    # The compute-backend section names the real backend surface.
    import repro.core.backend as backend_module
    for name in ("get_backend", "ArrayBackend", "NumpyBackend",
                 "ArrayAPIBackend"):
        assert name in doc, f"architecture.md lost backend API {name}"
        assert hasattr(backend_module, name)
    # The serving-tier section names the real repro.serve surface.
    import repro.serve as serve_module
    assert "repro.serve" in doc
    for name in ("RepairService", "MicroBatcher", "RepairHTTPServer",
                 "listening_socket"):
        assert name in doc, f"architecture.md lost serve API {name}"
        assert hasattr(serve_module, name)


def test_version_matches_pyproject():
    pyproject = (Path(__file__).resolve().parent.parent
                 / "pyproject.toml").read_text()
    assert f'version = "{repro.__version__}"' in pyproject


@pytest.mark.parametrize("script", sorted(EXAMPLES_DIR.glob("*.py")),
                         ids=lambda p: p.name)
def test_example_scripts_well_formed(script):
    tree = ast.parse(script.read_text())
    # Module docstring present and substantial.
    docstring = ast.get_docstring(tree)
    assert docstring and len(docstring) > 80
    # A main() entry point guarded by __main__.
    names = {node.name for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    assert "main" in names
    assert any(isinstance(node, ast.If) for node in tree.body)


def test_examples_directory_has_quickstart():
    assert (EXAMPLES_DIR / "quickstart.py").exists()
    assert len(list(EXAMPLES_DIR.glob("*.py"))) >= 3
