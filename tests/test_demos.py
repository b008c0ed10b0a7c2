"""Every demo prints exactly its recorded output (tests/golden/<demo>.txt)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_output():
    assert [d.stem for d in DEMOS] == sorted(
        g.stem for g in (ROOT / "tests" / "golden").glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_unchanged(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                         capture_output=True, check=True)
    assert run.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_bytes()
