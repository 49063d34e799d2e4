"""Every third-party module the package, the tests and ``bench/`` import
is declared.

``pip install -e .[test,bench]`` in a clean environment must give the
suites all they import, so each such module's distribution is a
dependency or an extra in ``pyproject.toml``.  ``pip install -e .``
must give the package all it imports, function-level imports included,
so the package's own are held to ``project.dependencies`` alone.
"""

import ast
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/zenograv/*.py"))
SUITES = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")])
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _normalized(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def undeclared(files, requirements):
    """The third-party modules that ``files`` import anywhere in their
    code and that no distribution named in ``requirements`` provides."""
    imported = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {"zenograv"} | {path.stem for path in SUITES}
    declared = {_normalized(re.match(r"[\w.-]+", r).group())
                for r in requirements}
    dists = importlib.metadata.packages_distributions()
    return [name for name in imported - local - set(sys.stdlib_module_names)
            if not {_normalized(d) for d in dists.get(name, [name])} & declared]


def test_third_party_imports_are_declared():
    assert not undeclared(SUITES, [
        *PROJECT["dependencies"],
        *sum(PROJECT["optional-dependencies"].values(), [])])


def test_package_imports_are_run_time_dependencies():
    assert not undeclared(PACKAGE, PROJECT["dependencies"])
