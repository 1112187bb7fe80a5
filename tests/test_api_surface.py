"""The public surface: every exported name resolves, removed names stay gone."""

import importlib

import pytest

import polycauchy

LAYERS = ("exact", "memo", "poly", "series", "sequences", "second_kind", "verify", "cli")
MODULES = [polycauchy] + [importlib.import_module(f"polycauchy.{name}") for name in LAYERS]
REMOVED = (
    "BasisExpansion",
    "to_falling_basis",
    "from_falling_basis",
    "SequenceParams",
    "pow_int",
    "normalize",
    "binomial_series",
    "exp_xt_series",
    "row_of",
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    assert not set(REMOVED) & set(module.__all__)
    assert not any(hasattr(module, name) for name in REMOVED)
