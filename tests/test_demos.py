"""Every demo runs to completion from a fresh working directory and prints
the stdout pinned in ``tests/golden/demos/<demo>.txt``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import continuum_lab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"
SRC = str(Path(list(continuum_lab.__path__)[0]).resolve().parent)


def test_six_demos():
    assert len(DEMOS) == 6
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == \
        [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    golden = (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert proc.stdout == golden
    if demo.stem == "03_crooked_towers":
        assert (tmp_path / "out" / "tower.svg").is_file()
