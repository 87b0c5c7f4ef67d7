"""Smoke runs of the experiment scripts at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from copulasynth.pipeline import GENERATORS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/transfer_study.py", "--seeds", "1", "--d", "4",
         "--n-source", "500", "--n-target", "500", "--output-size", "1000",
         "--sizes", "1", "2"],
        ["scripts/permutation_robustness.py", "--permutations", "2", "--d", "4",
         "--n-source", "500", "--output-size", "1000"],
    ],
    ids=["transfer_study", "permutation_robustness"],
)
def test_script_runs(argv):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if argv[0] == "scripts/transfer_study.py":
        printed = set(proc.stdout.split())
        assert {m for m in GENERATORS if m != "external_copula"} <= printed
