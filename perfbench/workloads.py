"""The three benchmark workloads and their seeded inputs.

Each workload is one `ptdilate` CLI invocation.  The seed picks the
scenario; the program only ever sees the scenario file written here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("figures_half", "simulate_half", "scan_whittaker")

# simulate_half: the default scenario (E = 1, w = 1/2, D = (3.5, 238),
# grid step 1e-3) on [0, 3.9], before the breakdown at t = 4.0001.
SIM_T_END = 3.9

# scan_whittaker: w t^2 > 12 (mpmath metric path) past t = 5.69 and
# magnitude > 30 (asymptotic W) past t = 9.005, so the span reaches both.
SCAN_OMEGA = 0.37
SCAN_T_END = 10.0
SCAN_STEP = 0.05
SCAN_OFFSETS = 8            # start offsets k * SCAN_STEP / SCAN_OFFSETS


def scan_start(k: int) -> float:
    return k * SCAN_STEP / SCAN_OFFSETS


@dataclass(frozen=True)
class Inputs:
    """CLI arguments (without --out) plus what the output check needs."""

    argv: list[str]
    scenario: dict = field(default_factory=dict)
    offset_index: int | None = None


def make_inputs(workload: str, seed: int, work: Path) -> Inputs:
    """Generate the workload's inputs from the seed; same seed, same inputs."""
    rng = random.Random(seed)
    if workload == "figures_half":
        # the paper's fixed reference datasets: the seed is unused
        return Inputs(["paper-figures"])
    if workload == "simulate_half":
        state = [0.0] * 4
        while sum(x * x for x in state) < 0.01:
            state = [rng.gauss(0.0, 1.0) for _ in range(4)]
        scenario = {"t_start": 0.0, "t_end": SIM_T_END, "initial_state": state}
        command, offset_index = "simulate", None
    elif workload == "scan_whittaker":
        offset_index = rng.randrange(SCAN_OFFSETS)
        scenario = {
            "omega": SCAN_OMEGA,
            "d0_sq": 10.0 ** rng.uniform(0.0, 1.0),
            "d1_sq": 10.0 ** rng.uniform(1.0, 3.3),
            "t_start": scan_start(offset_index),
            "t_end": SCAN_T_END,
            "grid_step": SCAN_STEP,
        }
        command = "metric-scan"
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    path = work / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return Inputs([command, "--scenario", str(path)], scenario, offset_index)
