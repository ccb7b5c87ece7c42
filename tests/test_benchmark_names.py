"""The names of ``ifslab`` that the benchmark in ``perfbench/`` calls.

The benchmark's tracer wraps a fixed list of functions by name, and its
thread probe passes ``threads=2``.  Without these tests, removing or renaming
one of them would surface only when ``perfbench/run.py --trace 1`` runs.  Its
input generator finds and checks roots with ``series``, so its self-test runs
here too."""

import importlib
from pathlib import Path

import numpy as np

from ifslab import certificate, ifs, landmarks, paramspace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    originals = {
        (layer, attr): getattr(importlib.import_module(f"ifslab.{layer}"), attr)
        for layer, attr in spans.TRACED
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (layer, attr), original in originals.items():
            assert getattr(importlib.import_module(f"ifslab.{layer}"), attr) is not original
        ifs.attractor_sample(0.5, 2, ifs.BINARY)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["ifs.attractor_sample", "ifs.level_nodes"]
    for (layer, attr), original in originals.items():
        assert getattr(importlib.import_module(f"ifslab.{layer}"), attr) is original


def test_certify_traces_its_chain_geometry(monkeypatch):
    # the certify metrics of --trace 1 read the geometry only if certify
    # reaches it through the traced name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("spans").Tracer()
    tracer.install()
    try:
        certificate.certify(landmarks.landmark(5).series, landmarks.landmark_root(5))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    geometry = tracer.spans[names.index("certificate.verify_chain")]
    assert tracer.spans[geometry[3]][0] == "certificate.certify"


def test_thread_probe_keywords_change_nothing():
    window = (0.5, -0.05, 0.6, 0.05)
    grids = [paramspace.escape_grid(window, 5, 3, paramspace.SET_M, 12, threads=t).values
             for t in (1, 2)]
    assert np.array_equal(grids[0], grids[1])
    nodes = [ifs.level_nodes(0.52 + 0.31j, 6, ifs.TERNARY, threads=t) for t in (1, 2)]
    assert nodes[0].tobytes() == nodes[1].tobytes()


def test_benchmark_inputs_pass_their_selftest(monkeypatch):
    # the input generator evaluates series (Newton roots and their
    # residuals), so a change to that arithmetic can invalidate its jobs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inputs = importlib.import_module("inputs")
    for workload in ("raster", "certify", "attractor"):
        assert inputs.selftest(workload, 600) == []
