"""The repository's pytest configuration itself: a failing property test must
report its falsifying example, even though warnings are turned into errors."""

import subprocess
import sys
import textwrap
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_test_prints_its_example(tmp_path):
    test_file = tmp_path / "test_always_fails.py"
    test_file.write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(n):
            assert n < 10
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(CONFIG.parent),
         "-p", "no:cacheprovider", "-q", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
