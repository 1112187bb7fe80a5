"""The public surface: every exported name resolves, removed names stay gone."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polycauchy

LAYERS = ("exact", "poly", "series", "sequences", "second_kind", "verify", "cli")
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
    "multinomial",
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    assert not set(REMOVED) & set(module.__all__)
    assert not any(hasattr(module, name) for name in REMOVED)


def _fresh_interpreter(code):
    # The child imports the same package as this process, installed or not.
    package_root = str(Path(polycauchy.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_loads_only_what_every_command_needs():
    # gen, expand and series never run the identity suite, write CSV by
    # default or stamp a time, so the CLI's start-up must not load them.
    deferred = ("polycauchy.verify", "dataclasses", "csv", "datetime")
    loaded = _fresh_interpreter(
        "import sys, polycauchy.cli\n"
        f"print(*[m for m in {deferred!r} if m in sys.modules])"
    )
    assert loaded == []


@pytest.mark.parametrize("name", ["GridConfig", "VerificationReport", "catalog", "run_suite"])
def test_reading_a_verify_name_loads_verify(name):
    out = _fresh_interpreter(
        "import sys, polycauchy\n"
        "before = 'polycauchy.verify' in sys.modules\n"
        f"value = polycauchy.{name}\n"
        f"print(before, value is sys.modules['polycauchy.verify'].{name})"
    )
    assert out == ["False", "True"]
