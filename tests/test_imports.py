"""Every package module uses each name it imports, and the modules keep their layers.

Uses only the standard library's ast, so it runs wherever the tests do.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "copulasynth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads as a Name node."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_what_is_never_read():
    source = "import os\nimport os.path\nfrom sys import argv as args, exit\nexit()\n"
    assert unused_imports(source) == ["args", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text("utf-8")) == []


# The modules that may import the metrics layer: generation and key encoding
# (bayesnet, ipf, copula, dataset) must not depend on how results are scored.
METRICS_IMPORTERS = {"__init__", "cli", "pipeline"}


def imported_modules(source: str) -> set[str]:
    """The package modules a module imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("copulasynth"):
                continue
            base = base.removeprefix("copulasynth").lstrip(".")
            found |= {base} if base else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {
                a.name.split(".")[1]
                for a in node.names
                if a.name.startswith("copulasynth.")
            }
    return found


def test_imported_modules_finds_every_spelling():
    source = (
        "from .metrics import evaluate\nfrom . import dataset, ipf\n"
        "import copulasynth.bayesnet\nfrom copulasynth.copula import ecdf\n"
        "import numpy\nfrom numpy import zeros\n"
    )
    expected = {"metrics", "dataset", "ipf", "bayesnet", "copula"}
    assert imported_modules(source) == expected


def test_only_the_top_layers_import_metrics():
    importers = {
        p.stem
        for p in PACKAGE.glob("*.py")
        if "metrics" in imported_modules(p.read_text("utf-8"))
    }
    assert importers <= METRICS_IMPORTERS
