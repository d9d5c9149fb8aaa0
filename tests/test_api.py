"""The public surface: every name a module exports resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["sde", "coupling", "cost", "linalg", "presets"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"pathcoupling.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"pathcoupling.{module}.__all__ lists missing names {missing}"
