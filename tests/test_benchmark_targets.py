"""The benchmark's traced run wraps library functions by module attribute.

A wrap point that no longer resolves makes the traced run report
``correct: false``; this checks every one of them without running it.
"""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    targets = runpy.run_path(str(TRACER))["TARGETS"]  # read-only: no bytecode written
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in targets
        if not hasattr(importlib.import_module(f"swnet.{module}"), attr)
    ]
    assert targets and missing == []
