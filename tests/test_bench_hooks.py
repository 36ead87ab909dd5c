"""The benchmark under perfbench/ reaches into ksq by name: its tracer wraps
layer functions and methods, and its workloads import ksq names.  A
rename or deletion in ksq breaks the benchmark's runs, so it fails here."""

import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_and_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    from ksq import classify

    tracer = tracing.Tracer()
    tracer.install(os.path.join(ROOT, "src", "ksq"))
    try:
        classify.classify_full("tmat:" + ",".join(["0.1"] * 18), n_samples=64)
    finally:
        tracer.uninstall()
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"classify.classify_full", "channels.choi", "channels.evaluate_batch"} <= names


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
