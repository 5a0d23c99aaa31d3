"""Import layering of the package, read from the source with ``ast``.

Every import sits at module level, so a module's dependencies are all
in its header, and no lagkit module imports a ``_``-prefixed name from
another: a private helper stays private to the module that defines it.
The CLI only parses and prints: every check is recorded by a suite of
``verifier``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lagkit").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert {"construction.py", "invariants.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_import_inside_a_function(path):
    nested = [
        f"{path.name}:{node.lineno}"
        for func in ast.walk(parse(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"imports inside functions: {nested}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_name_imported_from_another_module(path):
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "lagkit")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"private names imported from other lagkit modules: {private}"


# The pipeline steps a suite of ``verifier`` runs, which the CLI reaches
# only through the suites.
PIPELINE = {"analyze", "classify_analysis", "build_immersion", "frobenius_report",
            "hilf_chart", "laguerre_immersion_tau"}


def test_cli_only_parses_and_prints():
    tree = parse(next(p for p in SOURCES if p.name == "cli.py"))
    recorded = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Attribute) and node.func.attr in ("add", "skip")
             or isinstance(node.func, ast.Name) and node.func.id == "PropertyReport")
    ]
    imported = sorted(
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in PIPELINE
    )
    assert not recorded, f"checks recorded or reports built in the CLI: {recorded}"
    assert not imported, f"pipeline steps imported by the CLI: {imported}"
