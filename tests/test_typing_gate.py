"""The strict-typing gate on the public API surface (RL005 + mypy).

``repro.lint`` enforces full annotations structurally; this module checks
the two pieces of wiring around it: the ``[tool.mypy]`` configuration in
``pyproject.toml`` stays pinned to the typed packages, and — where mypy is
installed (the CI lint job installs the ``test`` extra) — ``mypy`` actually
runs over them.  mypy is optional at development time, so that test skips
rather than fails when the tool is absent.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The packages RL005 / mypy --strict cover, per docs/STATIC_ANALYSIS.md.
TYPED_TARGETS = (
    "src/repro/api",
    "src/repro/config.py",
    "src/repro/engine",
)


def test_pyproject_pins_mypy_to_typed_packages():
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "[tool.mypy]" in pyproject
    for target in TYPED_TARGETS:
        assert target in pyproject, f"{target} missing from [tool.mypy] files"
    test_extra = next(
        line for line in pyproject.splitlines() if line.startswith("test = [")
    )
    assert '"mypy"' in test_extra, "mypy missing from the test extra"


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy not installed (CI's lint job installs it via the test extra)",
)
def test_mypy_strict_passes_on_typed_packages():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")])
    )
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
