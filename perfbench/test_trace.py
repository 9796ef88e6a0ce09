"""Tracing must not change what the program computes, and must undo itself.

    python3 -m pytest -q perfbench
"""

import sys
import tempfile

import worker

worker.import_program()

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import ClassifyNuRho, ScanWindows, SobolTable  # noqa: E402


def _bindings():
    return {(name, attr): obj
            for name, module in list(sys.modules.items())
            if name == "krigesense" or name.startswith("krigesense.")
            for attr, obj in vars(module).items()}


def _traced_and_untraced(workload, ops, seed=0):
    runner = worker.Runner(workload, seed)
    tracer = Tracer()
    before = _bindings()
    for op in ops:
        inputs = workload.inputs(seed, op)
        plain = runner.run_op(op, inputs)
        tracer.op_id = op
        with tracer.installed():
            traced = runner.run_op(op, inputs)
        assert plain["ok"] and traced["ok"], (plain["error"], traced["error"])
        assert traced["output"] == plain["output"]
    assert _bindings() == before
    calls, _, _ = tracer.times()
    return calls


def test_sobol_rows_identical_under_tracing():
    with tempfile.TemporaryDirectory() as out:
        calls = _traced_and_untraced(SobolTable(out), ops=(0, 11))
    assert calls["sensitivity.sobol_total"] == 2
    assert calls["cli.main"] == 2
    assert calls["kriging.KrigingSystem.build"] > 0


def test_scan_window_identical_under_tracing():
    with tempfile.TemporaryDirectory() as out:
        calls = _traced_and_untraced(ScanWindows(out), ops=(0,))
    assert calls["linalg.sym_eigenvalues"] > 0
    assert calls["sensitivity.sobol_total"] == 0


def test_classify_identical_under_tracing():
    with tempfile.TemporaryDirectory() as out:
        # smaller than the workload's sets, so seed 1: no reference applies
        workload = ClassifyNuRho(out, train=120, test=40)
        calls = _traced_and_untraced(workload, ops=(0,), seed=1)
    assert calls["classifier._LocalPlan.latent_means"] == 101
    assert calls["kriging.KrigingSystem.build"] == 0


def test_every_layer_module_has_traced_functions():
    tracer = Tracer()
    with tracer.installed():
        labels = set(tracer.labels)
    for layer in LAYERS:
        assert any(label.startswith(layer + ".") for label in labels), layer
