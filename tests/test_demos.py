"""Every demo runs to completion from a fresh working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import continuum_lab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(list(continuum_lab.__path__)[0]).resolve().parent)


def test_six_demos():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "03_crooked_towers":
        assert (tmp_path / "out" / "tower.svg").is_file()
