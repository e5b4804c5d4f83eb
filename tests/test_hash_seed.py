"""CLI output must not depend on the string hash seed.

Every other CLI test runs in one interpreter, so one hash seed; set or dict
iteration order that leaked into the output would go unnoticed there. Here
each command runs in two fresh interpreters with different PYTHONHASHSEED
values, and stdout, stderr and the exit code must match.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(argv, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "latdiag.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [
    ("suite", "--max-cells", "3", "--max-weight", "2", "--json"),
    ("apply", "--op", "s", "--param", "2,1", "--axis", "y", "--diagram", "0,0;1,1;0,2;2,3", "--expand"),
    ("apply", "--op", "p", "--param", "2", "--axis", "y", "--diagram", "0,0;1,1;0,2;2,3"),
    ("hilbert", "--diagram", "0,0;1,0;0,1", "--json"),
    ("psi", "--tableau", "7,8,10|3,9|4,5,6,8", "--shape-lambda", "3,3,3", "--json"),
    ("tableaux", "--shape", "2,1", "--max-entry", "3"),
    ("delta", "--diagram", "1,0;0,0;0,1"),
])
def test_cli_output_ignores_the_hash_seed(argv):
    first = _run(argv, 0)
    assert first[1], first
    assert _run(argv, 1) == first
