"""The typed islands stay clean under ``mypy --strict``.

Skipped when mypy is not installed (the repo itself is stdlib-only; CI's
``static-analysis`` job installs mypy and runs the same command).
"""

import subprocess
import sys

import pytest

pytest.importorskip("mypy")

STRICT_TARGETS = ["-p", "repro.api", "-p", "repro.execution",
                  "-m", "repro.dht.accel", "-m", "repro.dht.model",
                  "-m", "repro.net.codec"]


def test_typed_islands_pass_mypy_strict(repo_root):
    completed = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict", *STRICT_TARGETS],
        cwd=repo_root, capture_output=True, text=True)
    assert completed.returncode == 0, completed.stdout + completed.stderr


def test_py_typed_marker_ships(repo_root):
    assert (repo_root / "src" / "repro" / "py.typed").exists()
