import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksq import classify, cli
from ksq.channels import (
    MAX_PARAM,
    DiagonalParams,
    DiagonalTensorParams,
    QubitChannel,
    ScalarPairParams,
    TensorMap,
    choi_matrix_qubit,
    choi_matrix_tensor,
)
from ksq.cli import (
    ScanSpec,
    fig1_flags,
    fig2_flags,
    scan_flags,
    verify_scan_against_choi,
    write_scan_csv,
    write_scan_pgm,
)


def run(argv):
    return cli.main(argv)


# --- classify ---------------------------------------------------------------


def test_classify_table(capsys):
    assert run(["classify", "phi:0.6,0.5,0.0", "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert "kadison_schwarz" in out and "holds_exact" in out
    assert "completely_positive" in out and "fails" in out


def test_classify_json_lines(capsys):
    assert run(["classify", "tlm:0.5,0.5", "--samples", "500", "--format", "json-lines"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 3
    by_level = {rec["level"]: rec for rec in lines}
    assert by_level["completely_positive"]["status"] == "holds_exact"
    assert by_level["kadison_schwarz"]["status"] == "holds_sufficient"
    assert all(rec["descriptor"] == "tlm:0.5,0.5" for rec in lines)


def test_classify_json_lines_positivity_witness(capsys):
    desc = "tmat:0.8,0,0,0,0,0,0,0,0,0.3,0,0,0,0,0,0,0,0"
    assert run(["classify", desc, "--samples", "500", "--format", "json-lines"]) == 0
    by_level = {rec["level"]: rec for rec in map(json.loads, capsys.readouterr().out.splitlines())}
    pos = by_level["positive"]
    assert pos["status"] == "fails"
    wit = pos["witness"]
    assert wit["sup"] == pytest.approx(1.1, abs=1e-12)
    # the violation is the smallest eigenvalue of the image of the positive
    # input 1 + w.s, with the sign convention of KS witnesses
    values = np.array(wit["input"])
    x = np.array([complex(re, im) for re, im in zip(values[0::2], values[1::2])])
    assert x[0] == 1.0 and np.linalg.norm(x[1:]) <= 1.0 + 1e-15
    image = TensorMap(np.diag([0.8, 0.0, 0.0]), np.diag([0.3, 0.0, 0.0])).evaluate_batch(
        x[:1], x[None, 1:]
    )[0]
    low = np.linalg.eigvalsh(image)[0]
    assert wit["violation"] == pytest.approx(low, abs=1e-12) and low == pytest.approx(-0.1, abs=1e-12)
    assert by_level["kadison_schwarz"]["witness"]["violation"] < 0.0


def test_classify_out_of_range_exits_2(capsys):
    assert run(["classify", "phi:2,0,0"]) == 2
    assert run(["classify", "blah:1,2,3"]) == 2
    assert run(["classify", "phi:not,a,number"]) == 2


@pytest.mark.parametrize("family", ["tlm", "tmat"])
def test_huge_parameters_exit_2_or_classify(family, capsys):
    # squares of entries past ~1e154 overflow; magnitudes above
    # channels.MAX_PARAM are rejected at parse time instead
    pattern = np.random.default_rng(17).uniform(-1.0, 1.0, 18 if family == "tmat" else 2)
    for e in range(301):
        desc = f"{family}:" + ",".join(repr(float(v)) for v in 10.0**e * pattern)
        for argv in (["classify", desc, "--samples", "64"], ["oracle", desc, "--samples", "64"]):
            code = run(argv)
            if 10.0**e * np.max(np.abs(pattern)) > MAX_PARAM:
                assert code == 2 and "error:" in capsys.readouterr().err, argv
            else:
                assert code in (0, 1), argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "phi:0.6,0.5,0.0", "--samples", "0"],
        ["oracle", "phi:1,1,1", "--samples", "0"],
        ["oracle", "phi:1,1,1", "--tol", "-1"],
        ["harness", "--family", "phi", "--grid", "3", "--samples", "0"],
        ["harness", "--family", "phi", "--grid", "0"],
        ["harness", "--family", "phi", "--grid", "-1"],
        ["scan", "--figure", "fig1", "--grid", "4", "--verify-choi", "-3", "--out"],
        ["oracle", "tlm:0.6,0.55", "--seed", "-1"],
        ["classify", "tlm:0.6,0.55", "--seed", "-3"],
        ["harness", "--family", "phi", "--grid", "3", "--seed", "-4"],
        ["scan", "--figure", "fig1", "--grid", "4", "--verify-choi", "3", "--seed", "-2", "--out"],
        ["oracle", "tlm:0.6,0.55", "--tol", "inf"],
        ["oracle", "tlm:0.6,0.55", "--tol", "nan"],
    ],
    ids=[
        "classify-samples", "oracle-samples", "oracle-tol", "harness-samples", "harness-grid-0",
        "harness-grid-negative", "scan-verify-choi", "oracle-seed", "classify-seed", "harness-seed",
        "scan-seed", "oracle-tol-inf", "oracle-tol-nan",
    ],
)
def test_bad_numbers_exit_2(tmp_path, capsys, argv):
    # exit 1 means "witness found", so a bad number must not surface as a crash
    if argv[-1] == "--out":
        argv = argv + [str(tmp_path / "scan.csv")]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


# --- scan -------------------------------------------------------------------


def test_scan_spec_cell_centres():
    spec = ScanSpec.for_figure("fig1", 10)
    xs = spec.xs()
    assert len(xs) == 10
    assert xs[0] == pytest.approx(-0.45)
    assert xs[-1] == pytest.approx(0.45)
    # centres never touch the |b| = 1/2 boundary
    assert np.all(np.abs(spec.ys()) < 0.5)


def test_fig1_flag_fixtures():
    t_cp, phi_cp = fig1_flags(0.3, 0.0)
    assert bool(t_cp) and not bool(phi_cp)  # 0.09 <= 0.125 but 0.09 > 0.0625
    t_cp, phi_cp = fig1_flags(0.0, 0.0)
    assert bool(t_cp) and bool(phi_cp)


def test_fig2_flag_fixtures():
    cp, ks, comps = fig2_flags(0.5, 0.5)
    assert bool(cp) and bool(ks) and bool(comps)
    cp, ks, comps = fig2_flags(-0.3, 0.0)
    assert bool(ks) and not bool(comps)  # KS holds outside the component square
    cp, ks, comps = fig2_flags(1.0, 1.0)
    assert not bool(cp)


# property tests: every flag column equals the per-point decider, on
# points inside the figure box, uniform or within 1e-6 of a boundary curve
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
NEAR = st.floats(-1e-6, 1e-6)


@st.composite
def fig1_points(draw):
    b = draw(st.floats(-0.5, 0.5))
    curves = [np.sqrt((1 + 2 * b) / 8), (1 + 2 * b) / 4]  # t_cp and phi_cp
    curve = draw(st.sampled_from([None] + curves))
    if curve is None:
        return draw(st.floats(-0.5, 0.5)), b
    a = draw(st.sampled_from([1.0, -1.0])) * curve + draw(NEAR)
    return float(np.clip(a, -0.5, 0.5)), b


def _fig2_curves(lam):
    """Values of mu on the boundary curves of the fig2 columns at lam."""
    curves = [1.0 - lam, -0.25, 0.5]  # lam + mu = 1, component square
    if 3 * lam + 1 >= 0:  # lam + mu + 1 = 2 sqrt(lam^2 - lam mu + mu^2)
        r = 2 * np.sqrt(3 * lam + 1)
        curves += [(3 * lam + 1 + r) / 3, (3 * lam + 1 - r) / 3]
    g = abs(lam) * abs(1 - 2 * lam) + 2 * lam * lam
    c = 1.0 - g  # the KS-sufficient boundary is g(lam) + g(mu) = 1
    if c >= 0:
        curves += [(1 - np.sqrt(1 + 16 * c)) / 8, c if c <= 0.5 else (1 + np.sqrt(1 + 16 * c)) / 8]
    return curves


@st.composite
def fig2_points(draw):
    lam = draw(st.floats(-1.0, 1.0))
    curve = draw(st.sampled_from([None] + _fig2_curves(lam)))
    mu = draw(st.floats(-1.0, 1.0)) if curve is None else float(np.clip(curve + draw(NEAR), -1, 1))
    return (mu, lam) if draw(st.booleans()) else (lam, mu)


@PROPERTY
@given(fig1_points())
def test_fig1_flags_match_deciders(point):
    a, b = point
    t_cp, phi_cp = fig1_flags(np.array([a]), np.array([b]))[:, 0]
    tensor = classify.cp_tensor_diag_exact(DiagonalTensorParams(a, a, b))
    channel = classify.cp_phi_exact(DiagonalParams(2 * a, 2 * a, 2 * b))
    assert t_cp == (tensor.status is classify.Status.HOLDS_EXACT)
    assert phi_cp == (channel.status is classify.Status.HOLDS_EXACT)


@PROPERTY
@given(fig2_points())
def test_fig2_flags_match_deciders(point):
    lam, mu = point
    cp, ks, comps = fig2_flags(np.array([lam]), np.array([mu]))[:, 0]
    p = ScalarPairParams(lam, mu)
    assert cp == (classify.cp_tlm_exact(p).status is classify.Status.HOLDS_EXACT)
    assert ks == classify.ks_tlm_inequality(lam, mu)[0]
    in_square = [bool(classify.ks_scalar_interval_holds(v)) for v in (lam, mu)]
    assert comps == all(in_square)


def test_scan_csv_format(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["scan", "--figure", "fig1", "--grid", "12", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,y,t_cp,phi_cp"
    assert len(lines) == 1 + 12 * 12
    cells = lines[1].split(",")
    assert float(cells[0]) == pytest.approx(-0.5 + 0.5 / 12)
    assert set(cells[2:]) <= {"0", "1"}
    # byte-identical reruns
    again = tmp_path / "scan2.csv"
    assert run(["scan", "--figure", "fig1", "--grid", "12", "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_scan_csv_matches_flag_functions(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["scan", "--figure", "fig2", "--grid", "9", "--out", str(out)]) == 0
    spec = ScanSpec.for_figure("fig2", 9)
    flags = scan_flags(spec)
    rows = out.read_text().splitlines()[1:]
    k = 0
    for iy in range(9):
        for ix in range(9):
            cells = rows[k].split(",")
            assert [int(c) for c in cells[2:]] == [int(flags[c, iy, ix]) for c in range(3)]
            k += 1


def test_scan_pgm(tmp_path):
    csv = tmp_path / "scan.csv"
    pgm = tmp_path / "scan.pgm"
    assert run(
        ["scan", "--figure", "fig1", "--grid", "16", "--out", str(csv), "--pgm", str(pgm)]
    ) == 0
    blob = pgm.read_bytes()
    assert blob.startswith(b"P5\n")
    header, _, rest = blob.partition(b"255\n")
    assert b"# fig1" in header and b"bitmask" in header
    assert b"16 16" in header
    pixels = np.frombuffer(rest, dtype=np.uint8).reshape(16, 16)
    spec = ScanSpec.for_figure("fig1", 16)
    flags = scan_flags(spec)
    scale = 255 // 4
    expect = (flags[0].astype(np.uint8) + 2 * flags[1].astype(np.uint8)) * scale
    assert np.array_equal(pixels, expect)


def test_scan_verify_choi(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(
        ["scan", "--figure", "fig1", "--grid", "16", "--out", str(out), "--verify-choi", "25"]
    )
    assert code == 0
    code = run(
        ["scan", "--figure", "fig2", "--grid", "16", "--out", str(out), "--verify-choi", "25"]
    )
    assert code == 0


def _reference_scan_csv(spec, flags) -> bytes:
    """The per-cell formatter that write_scan_csv must reproduce byte for byte."""
    lines = ["x,y," + ",".join(spec.columns) + "\n"]
    for iy, y in enumerate(spec.ys()):
        for ix, x in enumerate(spec.xs()):
            bits = ",".join(str(int(flags[c, iy, ix])) for c in range(len(spec.columns)))
            lines.append(f"{cli._fmt(x)},{cli._fmt(y)},{bits}\n")
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
@pytest.mark.parametrize(
    "grid, random_flags", [(2, False), (7, False), (33, False), (33, True)],
    ids=["2", "7", "33", "33-random"],
)
def test_scan_csv_matches_reference_formatter(tmp_path, figure, grid, random_flags):
    spec = ScanSpec.for_figure(figure, grid)
    if random_flags:
        # every row of the 2^k-tail table, which scan_flags may leave unused
        k = len(spec.columns)
        flags = np.random.default_rng(19).random((k, grid, grid)) < 0.5
        assert set(np.unique(cli._bitmask(flags)).tolist()) == set(range(1 << k))
    else:
        flags = scan_flags(spec)
    out = tmp_path / "scan.csv"
    write_scan_csv(str(out), spec, flags)
    assert out.read_bytes() == _reference_scan_csv(spec, flags)


def test_scan_verify_choi_reports_mismatches(tmp_path, monkeypatch, capsys):
    def flipped(lam, mu):
        flags = fig2_flags(lam, mu)
        flags[0] = ~flags[0]
        return flags

    monkeypatch.setattr(cli, "fig2_flags", flipped)
    out = tmp_path / "scan.csv"
    argv = ["scan", "--figure", "fig2", "--grid", "8", "--out", str(out)]
    assert run(argv + ["--verify-choi", "5", "--seed", "3"]) == 4
    lines = capsys.readouterr().err.splitlines()
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1.0, 1.0, size=5)
    ys = rng.uniform(-1.0, 1.0, size=5)
    assert len(lines) == 5
    for line, x, y in zip(lines, xs, ys):
        where = f"({cli._fmt(x)}, {cli._fmt(y)})"
        assert line.startswith(f"verify-choi: cp mismatch at {where}: flag=")


def _per_point_choi_flags(figure):
    """Flag functions that decide each point by its own cp_choi_numeric call."""

    def holds(choi):
        return classify.cp_choi_numeric(choi).status is classify.Status.HOLDS_EXACT

    def fig1(a, b):
        t_cp, phi_cp = [], []
        for x, y in zip(a, b):
            m = TensorMap.diagonal(DiagonalTensorParams(x, x, y))
            t_cp.append(holds(choi_matrix_tensor(m)))
            ch = QubitChannel.diagonal(DiagonalParams(2 * x, 2 * x, 2 * y))
            phi_cp.append(holds(choi_matrix_qubit(ch)))
        return np.array([t_cp, phi_cp])

    def fig2(lam, mu):
        cp = [
            holds(choi_matrix_tensor(TensorMap.scalar(ScalarPairParams(x, y))))
            for x, y in zip(lam, mu)
        ]
        return np.array([cp, cp, cp])

    return fig1 if figure == "fig1" else fig2


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_batched_verify_matches_per_point_choi(monkeypatch, figure):
    spec = ScanSpec.for_figure(figure, 5)
    per_point = _per_point_choi_flags(figure)
    flag_name = "fig1_flags" if figure == "fig1" else "fig2_flags"
    rng = np.random.default_rng(17)
    xs = rng.uniform(*spec.x_range, size=200)
    ys = rng.uniform(*spec.y_range, size=200)
    decided = per_point(xs, ys)
    assert decided.any(axis=1).all() and (~decided).any(axis=1).all()
    monkeypatch.setattr(cli, flag_name, per_point)
    assert verify_scan_against_choi(spec, 200, seed=17) == []
    monkeypatch.setattr(cli, flag_name, lambda a, b: ~per_point(a, b))
    assert len(verify_scan_against_choi(spec, 200, seed=17)) == 200 * {"fig1": 2, "fig2": 1}[figure]


# sha256 of the 401^2 CSV and PGM of each figure
SCAN_401_SHA256 = {
    "fig1": (
        "5da14b58b6a795f1c3faab1c3e82b87049e138bd524df67a30478be9daef0b4b",
        "0be90db253cf8b80abed5e57ffecf68bc82fecb3343128a7e838f546ba9a5e57",
    ),
    "fig2": (
        "1c865520afe2a031d2d65aa1e4a3c383ba5891e41ac2e6d0f3db6ff4d905f385",
        "58ab1330ecac6d5f6bd22ccaef5a26df2f8b1698bd0f1d69ceaa38da4c559cd3",
    ),
}


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_scan_401_output_hashes(tmp_path, figure):
    csv, pgm = tmp_path / "scan.csv", tmp_path / "scan.pgm"
    argv = ["scan", "--figure", figure, "--grid", "401", "--out", str(csv), "--pgm", str(pgm)]
    assert run(argv) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (csv, pgm))
    assert digests == SCAN_401_SHA256[figure]


def test_scan_unwritable_path_exits_3(tmp_path):
    missing = tmp_path / "nope" / "scan.csv"
    assert run(["scan", "--figure", "fig1", "--grid", "8", "--out", str(missing)]) == 3


# --- oracle -----------------------------------------------------------------


def test_oracle_transpose_witness(capsys):
    code = run(["oracle", "phi:1,-1,1", "--samples", "1000", "--seed", "7"])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("witness ")
    assert "violation=" in out


def test_oracle_identity_clean(capsys):
    # the KS operator certifies the identity: the note gives lambda_min(H)
    # and says no sample was drawn
    assert run(["oracle", "phi:1,1,1", "--samples", "1000", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("no violation: the KS operator certifies") and "no sample drawn" in out
    assert "lambda_min(H) = 0 >= -tol/2" in out


def test_oracle_sampled_clean(capsys):
    # KS holds but the KS operator does not certify it: the samples decide
    assert run(["oracle", "phi:0.6,0.5,0", "--samples", "1000", "--seed", "7"]) == 0
    assert capsys.readouterr().out == "no violation found in 1000 samples\n"


def test_oracle_tlm_clean():
    assert run(["oracle", "tlm:0.25,0.25", "--samples", "100000", "--seed", "7"]) == 0


def test_oracle_parse_error():
    assert run(["oracle", "phi:9,9"]) == 2


# --- harness ----------------------------------------------------------------


def test_harness_families(capsys):
    assert run(["harness", "--family", "phi", "--grid", "5", "--samples", "300"]) == 0
    assert "discrepancies=0" in capsys.readouterr().out
    assert run(["harness", "--family", "tdiag", "--grid", "5", "--samples", "300"]) == 0
    assert run(["harness", "--family", "tlm", "--grid", "7", "--samples", "300"]) == 0


def test_harness_tlm_spec_scale(capsys):
    assert run(["harness", "--family", "tlm", "--grid", "21", "--samples", "1000"]) == 0
    assert "discrepancies=0" in capsys.readouterr().out


def test_harness_unknown_family():
    assert run(["harness", "--family", "nope", "--grid", "5"]) == 2


# --- seed plumbing ----------------------------------------------------------


def test_ksq_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("KSQ_SEED", "12345")
    parser = cli.build_parser()
    args = parser.parse_args(["oracle", "phi:1,1,1"])
    assert args.seed == 12345
    args = parser.parse_args(["oracle", "phi:1,1,1", "--seed", "9"])
    assert args.seed == 9
    monkeypatch.setenv("KSQ_SEED", "not-an-int")
    with pytest.raises(SystemExit) as exc:
        cli.build_parser()
    assert exc.value.code == cli.EXIT_PARSE == 2
    assert capsys.readouterr().err.startswith("error: KSQ_SEED must be an integer")
    # a negative seed is a usage error, not a crash that exits 1 ("witness found")
    monkeypatch.setenv("KSQ_SEED", "-5")
    with pytest.raises(SystemExit) as exc:
        run(["oracle", "tlm:0.6,0.55"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: KSQ_SEED must be at least 0")
