"""The package must import on the lowest Python that pyproject.toml admits:
its sources parse under that version's grammar, and no compiled regular
expression uses a construct that `re` gained later (possessive quantifiers
and atomic groups came in 3.11; on 3.10 compiling them raises `re.error`).
It must also import with numpy as its only installed dependency."""

import ast
import importlib
import pathlib
import pkgutil
import re
import sys

import pytest

import bellselftest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "bellselftest").rglob("*.py"))
LOWEST = (3, 10)
NEWER_REGEX_OPS = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}
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


def opcodes(node, parser):
    if isinstance(node, parser.SubPattern):
        for op, arg in node:
            yield op.name
            yield from opcodes(arg, parser)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from opcodes(item, parser)


def test_patterns_compile_on_lowest_version():
    parser = getattr(re, "_parser", None) or importlib.import_module("sre_parse")
    modules = [bellselftest] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(bellselftest.__path__, "bellselftest.")]
    patterns = {f"{m.__name__}.{name}": value for m in modules
                for name, value in vars(m).items() if isinstance(value, re.Pattern)}
    assert patterns, "no compiled pattern found to check"
    for name, pattern in patterns.items():
        used = set(opcodes(parser.parse(pattern.pattern, pattern.flags), parser))
        assert not used & NEWER_REGEX_OPS, f"{name} uses {sorted(used & NEWER_REGEX_OPS)}"
