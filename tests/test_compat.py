"""The package must import on the lowest Python that pyproject.toml admits:
its sources parse under that version's grammar, and no compiled regular
expression uses a construct that `re` gained later (possessive quantifiers
and atomic groups came in 3.11; on 3.10 compiling them raises `re.error`)."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import bellselftest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "bellselftest").rglob("*.py"))
LOWEST = (3, 10)
NEWER_REGEX_OPS = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def test_lowest_version_is_the_declared_one():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups() == (
        str(LOWEST[0]), str(LOWEST[1]))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_sources_parse_under_lowest_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=LOWEST)


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
