"""The package's public surface: every exported name exists."""

import importlib

import pytest

MODULES = ["engine", "multiply", "sparse", "io", "nmf", "svm", "pagerank", "bench", "cli"]


def test_package_imports():
    mrmul = importlib.import_module("mrmul")
    assert mrmul.__version__


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"mrmul.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
