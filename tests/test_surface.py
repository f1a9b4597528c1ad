"""The package's public surface: every exported name exists, and every
Python example in README.md runs."""

import importlib
import re
from pathlib import Path

import pytest

MODULES = ["engine", "multiply", "sparse", "io", "nmf", "svm", "pagerank", "bench", "cli"]

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    """Every ```python block of README.md, with its line number as its id."""
    text = README.read_text(encoding="utf-8")
    blocks = []
    for m in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S):
        line = text.count("\n", 0, m.start(1)) + 1
        blocks.append(pytest.param(line, m.group(1), id=f"README.md:{line}"))
    return blocks


def test_package_imports():
    mrmul = importlib.import_module("mrmul")
    assert mrmul.__version__


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"mrmul.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_has_python_examples():
    assert len(_python_blocks()) >= 2


@pytest.mark.parametrize("line, source", _python_blocks())
def test_readme_python_block_runs(line, source):
    exec(compile(source, f"README.md:{line}", "exec"), {"__name__": "readme"})
