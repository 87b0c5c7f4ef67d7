"""Every package module uses each name it imports, imports no other module's
private name, names the encoding of every text stream, and the modules keep
their layers.

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


def private_imports(source: str) -> list[str]:
    """Single-underscore names (not dunders) an ImportFrom takes from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "copulasynth":
            found += [
                a.name for a in node.names
                if a.name.startswith("_") and not a.name.startswith("__")
            ]
    return sorted(found)


def test_private_imports_finds_every_spelling():
    source = (
        "from .dataset import _csv_row, code_dtype\nfrom . import _helpers\n"
        "from copulasynth.copula import _real_array as real\n"
        "from . import __version__\nfrom numpy import _core\n"
        "from __future__ import annotations\nimport copulasynth\n"
    )
    assert private_imports(source) == ["_csv_row", "_helpers", "_real_array"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    assert private_imports(path.read_text("utf-8")) == []


def locale_text_calls(source: str) -> list[str]:
    """Calls that would take their text encoding from the locale, as name:line.

    A text-mode open, a read_text or write_text, or a subprocess call given
    text=, universal_newlines= or errors=, none naming its encoding.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        keywords = {k.arg: k.value for k in node.keywords}
        if name == "open":
            # open(file, mode, buffering, encoding); path.open(mode, buffering,
            # encoding). A mode that is no string constant, such as os.open's
            # flags, is left alone.
            at = 1 if isinstance(func, ast.Name) else 0
            mode = args[at] if len(args) > at else keywords.get("mode", ast.Constant("r"))
            text = (
                isinstance(mode, ast.Constant)
                and "b" not in str(mode.value)
                and len(args) < at + 3
            )
        elif name in ("read_text", "write_text"):
            text = len(args) < (name == "write_text") + 1
        elif name in ("run", "Popen", "call", "check_call", "check_output"):
            text = bool({"text", "universal_newlines", "errors"} & set(keywords))
        else:
            text = False
        if text and "encoding" not in keywords:
            found.append(f"{name}:{node.lineno}")
    return found


def test_locale_text_calls_finds_every_spelling():
    source = (
        "open(p)\nopen(p, 'w', newline='')\nopen(p, mode='r')\nPath(p).open()\n"
        "path.read_text()\nPath(p).write_text(s)\n"
        "subprocess.run(c, capture_output=True, text=True)\n"
        "subprocess.Popen(c, universal_newlines=True)\nrun(c, errors='replace')\n"
        "open(p, 'rb')\nopen(p, mode='wb')\nopen(p, 'w', encoding='utf-8')\n"
        "open(p, 'r', -1, 'utf-8')\npath.open('rb')\npath.read_text('utf-8')\n"
        "Path(p).write_text(s, 'utf-8')\nPath(p).write_text(s, encoding='utf-8')\n"
        "subprocess.run(c, capture_output=True)\nos.open(p, os.O_RDONLY)\n"
        "subprocess.run(c, encoding='utf-8-sig', errors='replace')\n"
    )
    assert locale_text_calls(source) == [
        "open:1", "open:2", "open:3", "open:4", "read_text:5", "write_text:6",
        "run:7", "Popen:8", "run:9",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_names_the_encoding_of_every_text_stream(path):
    """The locale is no input: every file and pipe the package reads or writes
    as text names its encoding."""
    assert locale_text_calls(path.read_text("utf-8")) == []


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


# Public functions that no package module uses, each with what keeps it. A
# call from its own module counts: evaluate is what calls srmse, for one.
UNCALLED_PUBLIC = {
    "srmse_projected": "perfbench/worker.py and perfbench/tracer.py call it",
    "family_score_mdl": "perfbench/tracer.py wraps it",
    "network_score": "ROADMAP item 2 PR c records it in report.json",
}


def public_functions(source: str) -> set[str]:
    """The module-level functions a module defines without a leading underscore."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def used_names(source: str) -> set[str]:
    """The names a module imports from elsewhere, reads or takes as attributes."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            used |= {a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_public_functions_and_used_names_find_every_spelling():
    source = (
        "from .dataset import row_blocks as blocks\nimport numpy as np\n"
        "def kept(x):\n    return np.where(x, ecdf(x), dataset.ROW_BLOCK)\n"
        "def _private():\n    pass\nclass Table:\n    def method(self):\n        pass\n"
    )
    assert public_functions(source) == {"kept"}
    assert {"row_blocks", "ecdf", "where", "ROW_BLOCK"} <= used_names(source)


def test_every_public_function_has_a_caller_in_the_package():
    """An export from __init__ is no caller: a function only tests call is dropped."""
    sources = [p.read_text("utf-8") for p in MODULES]
    defined = set().union(*map(public_functions, sources))
    assert defined - set().union(*map(used_names, sources)) == set(UNCALLED_PUBLIC)
