"""The package must import on the lowest Python that pyproject.toml admits:
its sources parse under that version's grammar.  It must also import with
numpy as its only installed dependency."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "bellselftest").rglob("*.py"))
LOWEST = (3, 10)
ALLOWED_IMPORTS = sys.stdlib_module_names | {"numpy", "bellselftest"}


def test_lowest_version_is_the_declared_one():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups() == (
        str(LOWEST[0]), str(LOWEST[1]))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_sources_parse_under_lowest_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=LOWEST)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert {name.split(".")[0] for name in names} <= ALLOWED_IMPORTS


def test_declared_dependencies_are_numpy_alone():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    deps = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', deps) == ["numpy"]


def test_numpy_floor_has_vecdot():
    """qmath calls np.vecdot, which NumPy added in 2.0."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', text).groups()
    assert tuple(map(int, floor)) >= (2, 0)
