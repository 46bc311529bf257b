"""The CLI's import path: no command loads scipy's optimizers, integrators
or linear algebra; only `evolve.integrate_linear` loads scipy.integrate,
on its first call."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh interpreter, so that nothing this test session imported
# counts; prints one JSON line
SCRIPT = r"""
import json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.linalg")

def loaded():
    return [m for m in HEAVY if m in sys.modules]

report = {}
import ptdilate.cli
report["import"] = loaded()

with tempfile.TemporaryDirectory() as tmp:
    scenario = os.path.join(tmp, "omega037.json")
    with open(scenario, "w") as fh:
        json.dump({"E": 1.0, "omega": 0.37, "d0_sq": 3.5, "d1_sq": 238.0,
                   "t_start": 0.0, "t_end": 2.0, "grid_step": 0.05}, fh)
    report["codes"] = [
        ptdilate.cli.main(["paper-figures", "--out", os.path.join(tmp, "figures")]),
        ptdilate.cli.main(["simulate", "--scenario", scenario, "--out", os.path.join(tmp, "simulate")]),
        ptdilate.cli.main(["metric-scan", "--scenario", scenario, "--out", os.path.join(tmp, "scan")]),
    ]
report["commands"] = loaded()

import numpy as np
from ptdilate.evolve import EvolutionConfig, integrate_linear

# i v' = sigma_x v from (1, 0): v(t) = (cos t, -i sin t)
cfg = EvolutionConfig(output_grid=np.array([0.0, 1.0]))
traj = integrate_linear(lambda t: np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]), (0.0, 1.0), cfg)
end = traj.states[-1]
report["error"] = float(np.abs(end - np.array([np.cos(1.0), -1j * np.sin(1.0)])).max())
report["after_solve"] = "scipy.integrate" in sys.modules
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_heavy_scipy(report):
    assert report["import"] == []


def test_commands_load_no_heavy_scipy(report):
    assert report["codes"] == [0, 0, 0]
    assert report["commands"] == []


def test_integrate_linear_loads_scipy_on_first_call(report):
    assert report["after_solve"]
    assert report["error"] < 1e-9
