import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def loaded_modules():
    """Run ``code`` in a fresh interpreter with ``src`` on ``PYTHONPATH``;
    return the names in its ``sys.modules`` once the code has run.  The
    names are the last line of stdout, so the code may print too."""
    def run(code: str) -> set:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        code += "\nimport sys\nprint(sorted(sys.modules))\n"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(ast.literal_eval(proc.stdout.splitlines()[-1]))
    return run
