"""The CLI's import path: `import ptdilate.cli` loads nothing from scipy
or mpmath, no command loads either or imports any module for the first
time inside `main()`, so that every import counts as start-up; only
`evolve.integrate_linear` loads scipy.integrate and `specfun.whittaker_w`
mpmath, each on its first call."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh interpreter, so that nothing this test session imported
# counts; it imports nothing but json, os and sys before the CLI and
# prints one JSON line
SCRIPT = r"""
import json, os, sys
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

report = {}
import ptdilate.cli
report["import"] = loaded("scipy")
report["import_mpmath"] = loaded("mpmath")
before = set(sys.modules)

report["codes"] = {}
for omega in ("0.5", "0.37"):
    scenario = os.path.join(out, f"omega{omega}.json")
    for command in ptdilate.cli._COMMANDS:
        argv = [command, "--scenario", scenario, "--out", os.path.join(out, omega, command)]
        report["codes"][f"{command} {omega}"] = ptdilate.cli.main(argv)
report["codes"]["paper-figures"] = ptdilate.cli.main(["paper-figures", "--out", os.path.join(out, "figures")])
report["commands"] = loaded("scipy")
report["commands_mpmath"] = loaded("mpmath")
report["first_imported_in_main"] = sorted(set(sys.modules) - before)

from ptdilate.specfun import RayArgument, WhittakerIndex, whittaker_w

# W_{k,k-1/2}(z) = e^{-z/2} z^k (DLMF 13.18.2): W_{3/4,1/4}(2) = 2^{3/4} / e
report["w"] = abs(whittaker_w(WhittakerIndex(0.75), RayArgument.positive(2.0)) - 2.0 ** 0.75 / 2.718281828459045)
report["after_w"] = "mpmath" in sys.modules

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
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    for omega in ("0.5", "0.37"):
        (out / f"omega{omega}.json").write_text(json.dumps(
            {"E": 1.0, "omega": float(omega), "d0_sq": 3.5, "d1_sq": 238.0,
             "t_start": 0.0, "t_end": 2.0, "grid_step": 0.05}
        ))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC), str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_heavy_scipy(report):
    assert report["import"] == []


def test_commands_load_no_heavy_scipy(report):
    assert len(report["codes"]) == 15
    assert set(report["codes"].values()) == {0}
    assert report["commands"] == []


def test_importing_the_cli_loads_no_mpmath(report):
    assert report["import_mpmath"] == []


def test_commands_load_no_mpmath(report):
    assert set(report["codes"].values()) == {0}
    assert report["commands_mpmath"] == []


def test_whittaker_w_loads_mpmath_on_first_call(report):
    assert report["after_w"]
    assert report["w"] < 1e-15


def test_commands_import_no_module_at_run_time(report):
    assert report["first_imported_in_main"] == []


def test_integrate_linear_loads_scipy_on_first_call(report):
    assert report["after_solve"]
    assert report["error"] < 1e-9
