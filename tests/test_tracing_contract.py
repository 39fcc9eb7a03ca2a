"""The benchmark's tracer patches ppsim module attributes by name.

perfbench/tracing.py lists them in its LAYERS table.  A refactor that drops
one of those attributes would only surface when a traced benchmark run
crashes, so the table is checked here.  It is read as a literal from the
source, without importing or executing the benchmark code.  The tracer also
counts readout records through MeasurementSet.records.
"""

import ast
import importlib
from pathlib import Path

from ppsim import readout

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACING}")


def test_every_traced_attribute_resolves():
    layers = traced_layers()
    assert layers
    missing = [
        f"ppsim.{module}.{attr} (layer {name})"
        for name, sites in layers.items()
        for module, attr in sites
        if not callable(getattr(importlib.import_module(f"ppsim.{module}"), attr, None))
    ]
    assert not missing, missing


def test_measurement_sets_expose_their_records():
    # perfbench/tracing.py counts len(result.records) of each simulate_measurements call
    assert isinstance(readout.MeasurementSet.records, property)
