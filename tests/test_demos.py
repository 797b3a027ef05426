"""Every demo prints the bytes recorded in ``tests/golden/demos``.

Demos 03-05 print Newton points, class invariants and reports, so a
change to their text form shows here. To re-record one demo on purpose:
``PYTHONPATH=src python demos/NAME.py > tests/golden/demos/NAME.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    assert DEMOS
    recorded = sorted(p.stem for p in (ROOT / "tests" / "golden" / "demos").glob("*.txt"))
    assert recorded == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_recording(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(demo)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        check=True,
        timeout=120,
    )
    assert run.stdout == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_bytes()
