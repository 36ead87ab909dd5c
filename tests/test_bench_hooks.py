"""The benchmark under perfbench/ reaches into ksq by name: its tracer wraps
layer functions and methods, and its workloads import ksq names.  A
rename or deletion in ksq breaks the benchmark's runs, so it fails here."""

import importlib
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_and_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    from ksq import classify, oracle
    from ksq.channels import DiagonalParams, QubitChannel, TensorMap, conjugate_by_unitaries

    # a conjugated transpose fails KS, so its KS operator certifies nothing
    # and the search draws; the tensor map's positivity is searched
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    transpose = QubitChannel.diagonal(DiagonalParams(1, -1, 1))
    closure = conjugate_by_unitaries(transpose, hadamard, np.eye(2))
    cfg = oracle.SampleConfig(n_samples=64, seed=3)
    tracer = tracing.Tracer()
    tracer.install(os.path.join(ROOT, "src", "ksq"))
    try:
        classify.classify_full("tmat:" + ",".join(["0.1"] * 18), n_samples=64)
        assert oracle.ks_violation_search(closure, cfg) is not None
        oracle.positivity_violation_search(TensorMap(0.3 * np.eye(3), 0.2 * np.eye(3)), cfg)
    finally:
        tracer.uninstall()
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"classify.classify_full", "channels.choi", "channels.evaluate_batch"} <= names
    assert {"oracle.ks_violation_search", "oracle.sample_unit_sphere",
            "oracle.positivity_violation_search", "oracle.sample_unit_ball"} <= names


def test_oracle_workloads_pass_their_own_checks(monkeypatch, tmp_path):
    # round 0 of the reduced grid-verify and witness-hunt inputs, judged by
    # the benchmark's independent checkers: a harness report or a witness
    # that changes fails here before it fails a benchmark run
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    for name in ("GridVerify", "WitnessHunt"):
        workload = getattr(workloads, name)(1, True, str(tmp_path))
        records = [(req, req.call()) for req in workload.round(0)]
        assert workload.check(records) == ([], 0), name


def test_traced_workload_rounds_keep_the_decider_spans(monkeypatch, tmp_path):
    # the tracer wraps classify.ks_phi_diag_exact and
    # classify.diag_ks_defect_supremum by name; round 0 of the reduced
    # grid-verify and classify-mix inputs must still record both, so a
    # decider signature the wraps cannot carry fails here
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    for name in ("GridVerify", "ClassifyMix"):
        workload = getattr(workloads, name)(1, True, str(tmp_path))
        tracer = tracing.Tracer()
        tracer.install(os.path.join(ROOT, "src", "ksq"))
        try:
            records = [(req, req.call()) for req in workload.round(0)]
        finally:
            tracer.uninstall()
        assert workload.check(records)[0] == [], name
        names = {span[tracing.NAME] for span in tracer.spans}
        assert {"classify.ks_phi_diag_exact", "classify.diag_ks_defect_supremum"} <= names, name
