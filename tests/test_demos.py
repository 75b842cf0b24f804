"""Each demo runs to exit 0 in a fresh interpreter and writes the files it
names into the output directory it is given."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockvortex

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo,outputs", [
    ("entanglement_accounting.py", ["entanglement_accounting.csv"]),
    ("negativity_growth.py", ["negativity_growth.csv"]),
    ("vortex_field_tour.py", [f"{kind}_n{n}.{ext}" for n in (2, 4, 6)
                              for kind, ext in (("field", "csv"), ("vortices", "json"))]),
])
def test_demo_runs_and_writes_its_files(tmp_path, demo, outputs):
    src = os.path.dirname(os.path.dirname(fockvortex.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, str(DEMOS / demo), str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path / "out")) == sorted(outputs)
