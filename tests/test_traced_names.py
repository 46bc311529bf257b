"""Every function the benchmark's span tracer wraps still exists in `ptdilate`.

`perfbench/tracer.py` reports a span whose target is gone as absent, and the
benchmark then prints that span's per-layer metric as `null`.  So a rename
or a deletion of a traced function has to change the benchmark with it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
GONE = {"evolve.guard"}   # `_breakdown_cached` was deleted; its span reports absent


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [span for span in tracer.SPANS if span[0] not in GONE]


@pytest.mark.parametrize("name, module, attr", _spans(), ids=[span[0] for span in _spans()])
def test_traced_target_resolves(name, module, attr):
    owner = importlib.import_module(f"ptdilate.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{name}: ptdilate.{module}.{attr} is gone"


def test_rebound_solve_ivp_resolves():
    # the tracer counts right-hand-side evaluations through this name
    assert callable(getattr(importlib.import_module("ptdilate.evolve"), "solve_ivp", None))

