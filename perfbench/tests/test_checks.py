"""The benchmark's checkers accept ksq's real outputs and reject wrong ones.

Run from the repository root with

    python3 -m pytest -q perfbench/tests

The smoke tests at the end run every workload through run.py at reduced
size, traced and untraced.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import worker
import workloads
from ksq import classify, cli, oracle
from ksq.channels import QubitChannel, DiagonalParams

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
GRID = 21


@pytest.fixture(scope="module")
def scans(tmp_path_factory):
    """Real ksq scan outputs for both figures at a small grid."""
    out = {}
    tmp = tmp_path_factory.mktemp("scan")
    for figure in ("fig1", "fig2"):
        csv, pgm = tmp / f"{figure}.csv", tmp / f"{figure}.pgm"
        assert cli.main(["scan", "--figure", figure, "--grid", str(GRID), "--out", str(csv),
                         "--pgm", str(pgm)]) == 0
        out[figure] = (csv.read_bytes(), pgm.read_bytes())
    return out


def _table_problems(figure, data):
    problems, table = checks.parse_scan_csv(data, figure)
    if table is None:
        return problems
    return problems + checks.check_scan_table(figure, GRID, table, seed=3, subset=50)


def _edit_row(data: bytes, row: int, edit) -> bytes:
    lines = data.split(b"\n")
    fields = lines[row + 1].split(b",")
    lines[row + 1] = b",".join(edit(fields))
    return b"\n".join(lines)


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_scan_outputs_pass(scans, figure):
    csv, pgm = scans[figure]
    assert _table_problems(figure, csv) == []
    _, table = checks.parse_scan_csv(csv, figure)
    assert checks.check_scan_pgm(pgm, figure, GRID, table) == []


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_flipped_scan_flag_is_rejected(scans, figure):
    csv, _ = scans[figure]
    row = GRID * GRID // 2 + GRID // 2  # the centre cell lies inside every region

    def flip(fields):
        fields[2] = b"0" if fields[2] == b"1" else b"1"
        return fields

    problems = _table_problems(figure, _edit_row(csv, row, flip))
    assert any("wrong at 1 cells" in p for p in problems), problems


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_shifted_cell_coordinate_is_rejected(scans, figure):
    csv, _ = scans[figure]

    def shift(fields):
        fields[0] = repr(float(np.nextafter(float(fields[0]), 10.0))).encode()
        return fields

    problems = _table_problems(figure, _edit_row(csv, 7, shift))
    assert any("off their cell centre, first at row 7" in p for p in problems), problems


def test_wrong_pgm_is_rejected(scans):
    csv, pgm = scans["fig1"]
    _, table = checks.parse_scan_csv(csv, "fig1")
    assert checks.check_scan_pgm(pgm[:-1], "fig1", GRID, table)
    header_end = len(pgm) - GRID * GRID
    flipped = bytearray(pgm)
    flipped[header_end] ^= 0xFF
    assert checks.check_scan_pgm(bytes(flipped), "fig1", GRID, table)
    assert checks.check_scan_pgm(pgm.replace(b"P5", b"P2", 1), "fig1", GRID, table)


def test_ks_witness_that_does_not_violate_is_rejected():
    identity = ("qubit", np.eye(3))
    w = np.array([1.0, 1j, 0.0]) / np.sqrt(2.0)
    value = checks.ks_defect_min_eig(identity, 0.0, w)
    assert value >= 0.0
    problems, violates = checks.check_ks_witness(identity, 0.0, w, value, 1e-8)
    assert problems == [] and violates is False
    # a reported value that the definition does not reproduce
    problems, _ = checks.check_ks_witness(identity, 0.0, w, value - 1e-6, 1e-8)
    assert problems


def test_known_phi_witness_fault_counts_as_failed():
    """ksq's witness for phi:0.301,0.213,-0.932 has a positive defect eigenvalue."""
    verdict = classify.classify_full("phi:0.301,0.213,-0.932")
    x, viol = verdict.kadison_schwarz.witness
    spec = ("qubit", np.diag([0.301, 0.213, -0.932]))
    levels = {name: tri.status.value for name, tri in verdict.rows()}
    problems, violates = checks.check_verdict("phi", spec, levels, (x.w0, x.w, viol), None)
    assert problems == [] and violates is False


def test_witness_hunt_rejects_non_violating_witness():
    hunt = workloads.WitnessHunt(seed=1, small=True, scratch="")
    req = [r for r in hunt.round(0) if r.label == "ks-transpose"][0]
    wit = req.call()
    assert hunt.check([(req, wit)]) == ([], 0)
    # the same input, reported against the identity channel: defect >= 0
    (label, _, _, search, n, expect), cfg = req.info
    fake = (label, QubitChannel.diagonal(DiagonalParams(1, 1, 1)), ("qubit", np.eye(3)), search, n, expect)
    req.info = (fake, cfg)
    problems, _ = hunt.check([(req, oracle.Witness(wit.x, 0.0, "KS"))])
    assert any("not below" in p for p in problems), problems


def test_cp_verdict_contradicting_choi_is_rejected():
    transpose = ("qubit", np.diag([1.0, -1.0, 1.0]))
    levels = {"positive": "holds_exact", "kadison_schwarz": "holds_exact",
              "completely_positive": "holds_exact"}
    problems, _ = checks.check_verdict("phi", transpose, levels, None, None)
    assert any("Choi matrix has eigenvalue" in p for p in problems), problems
    interior = ("qubit", np.diag([0.5, 0.3, 0.2]))
    levels = {"positive": "holds_exact", "kadison_schwarz": "holds_exact",
              "completely_positive": "fails"}
    problems, _ = checks.check_verdict("phi", interior, levels, None, None)
    assert any("Choi matrix is positive" in p for p in problems), problems


def test_hierarchy_violation_is_rejected():
    identity = ("qubit", np.eye(3))
    levels = {"positive": "holds_exact", "kadison_schwarz": "fails",
              "completely_positive": "holds_exact"}
    problems, _ = checks.check_verdict("phi", identity, levels, None, None)
    assert any("hierarchy" in p for p in problems), problems


def test_harness_counts():
    rep = oracle.agreement_harness("tlm", 5, oracle.SampleConfig(n_samples=2000, seed=7))
    assert checks.check_harness("tlm", 5, rep.agree, rep.resolved_by_oracle, rep.discrepancies) == []
    assert checks.check_harness("tlm", 5, rep.agree - 1, rep.resolved_by_oracle, rep.discrepancies)
    assert checks.check_harness("tlm", 5, rep.agree - 1, rep.resolved_by_oracle + 1, 0)
    assert checks.check_harness("tlm", 5, rep.agree - 1, rep.resolved_by_oracle, 1)


def test_classify_mix_inputs_are_seeded():
    a = workloads.mix_items(5, 0)
    assert [d for _, d, _ in a] == [d for _, d, _ in workloads.mix_items(5, 0)]
    assert [d for _, d, _ in a] != [d for _, d, _ in workloads.mix_items(6, 0)]
    assert sorted(k for k, _, _ in a) == sorted(k for k, _, _ in workloads.mix_items(6, 3))


# ---------------------------------------------------------------------------
# smoke runs of the whole benchmark at reduced size
# ---------------------------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "4", "--seconds", "0",
                "--trace", trace, "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    if workload == "classify-mix":
        # --seconds 0 runs the minimum number of rounds, one known fault in each
        assert result["failed"] == worker.MIN_ROUNDS
    else:
        assert result["failed"] == 0


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "classify-mix", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
