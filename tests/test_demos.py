"""The demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(__file__).resolve().parent.parent / "src"


# one line of each demo's output; word_integrals.py is left out, because its
# one length-3 quadrature takes about 1 s (the demo 1.3 to 1.4 s of CPU,
# against about 0.3 s for each demo here)
LINES = {"area_expansion.py": "alpha_5 = 3.699626994497618439893380135471044617736",
         "polylogarithms.py": "Li_2(1)  = (1.64493406684822643647241516665 + 0.0j)"}


@pytest.mark.parametrize("name", sorted(LINES))
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert LINES[name] in done.stdout
