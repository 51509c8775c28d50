"""The classic event loop, pinned below the result rows.

Row-level fixtures pin what a query reports; these pin the machinery
underneath on three runs that never take the analytic fast path: the
clock's dispatched-event count, every processor's busy intervals
(count and digest of their exact ``repr``), and the tuples each link
carried.  ``tests/golden/classic_path.json`` was captured before the
per-event path of :mod:`repro.sim.process` was fused, so any change to
event order, event count or a single float in a chunk boundary fails
here with the run and machine that moved.

Regenerate deliberately with ``tests/golden/generate_fixtures.py``
after a documented semantics change.
"""

import importlib.util
import json
import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"
PINS = json.loads((GOLDEN_DIR / "classic_path.json").read_text())


@pytest.fixture(scope="module")
def generators():
    spec = importlib.util.spec_from_file_location(
        "golden_fixture_generators", GOLDEN_DIR / "generate_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["mixed", "cluster", "lossy"])
def test_classic_run_reproduces_its_pins(generators, name):
    observed = generators.classic_path_observables(name)
    expected = PINS[name]
    assert len(observed) == len(expected), "machine count moved"
    for index, (got, want) in enumerate(zip(observed, expected)):
        where = f"{name} machine {index}"
        assert got["events_dispatched"] == want["events_dispatched"], where
        assert got["transferred"] == want["transferred"], where
        for ident, pin in want["intervals"].items():
            assert got["intervals"][ident] == pin, f"{where} processor {ident}"
        assert got["intervals"].keys() == want["intervals"].keys(), where

