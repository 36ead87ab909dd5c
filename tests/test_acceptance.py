"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The suite exercises
the full classification stack at the scales and tolerances the library
commits to; expect a few minutes of runtime.
"""

import time

import numpy as np
import pytest

from conftest import random_unitary
from ksq import classify, linalg, oracle
from ksq.channels import (
    DiagonalParams,
    DiagonalTensorParams,
    QubitChannel,
    ScalarPairParams,
    TensorMap,
    choi_matrix_qubit,
    choi_matrix_tensor,
    choi_matrix_tensor_batch,
    conjugate_by_unitaries,
    convex_combination,
)
from ksq.cli import ScanSpec, scan_flags, verify_scan_against_choi
from ksq.oracle import SampleConfig, ks_violation_search, positivity_violation_search
from ksq.pauli import (
    PauliElement,
    star_square,
    star_square_coeffs,
    tensor_to_matrix_batch,
    to_matrix_batch,
)
from test_channels import tlm_choi_printed


def _report(num, text):
    print(f"\nACCEPTANCE {num} PASS — {text}")


def test_criterion_1_tlm_choi_fixture():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    pairs = rng.uniform(-1.0, 1.0, size=(100, 2))
    eye = np.eye(3)
    chois = choi_matrix_tensor_batch(pairs[:, 0, None, None] * eye, pairs[:, 1, None, None] * eye)
    for k, (lam, mu) in enumerate(pairs):
        assert np.max(np.abs(chois[k] - tlm_choi_printed(lam, mu))) <= 1e-14
    spectra = linalg.hermitian_eigenvalues(chois)
    for k, (lam, mu) in enumerate(pairs):
        analytic = 0.5 * classify.tlm_choi_eigenvalues(ScalarPairParams(lam, mu))
        for v in analytic:
            assert np.min(np.abs(spectra[k] - v)) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"100 scalar-family Choi matrices match the closed form entry for entry "
               f"and carry the analytic spectrum ({elapsed:.2f}s)")


def test_criterion_2_tdiag_choi_fixture_and_grid():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    # blocks against the closed forms
    for _ in range(100):
        l1, l2, l3 = rng.uniform(-0.5, 0.5, size=3)
        m = TensorMap.diagonal(DiagonalTensorParams(l1, l2, l3))
        choi = choi_matrix_tensor(m)
        b1, b2 = l1 + l2, l1 - l2
        t11 = 0.5 * np.diag([1 + 2 * l3, 1.0, 1.0, 1 - 2 * l3])
        t12 = 0.5 * np.array(
            [[0, b1, b1, 0], [b2, 0, 0, b1], [b2, 0, 0, b1], [0, b2, b2, 0]]
        )
        assert np.max(np.abs(choi[:4, :4] - t11)) <= 1e-14
        assert np.max(np.abs(choi[:4, 4:] - t12)) <= 1e-14
    # full-grid sign agreement between the exact criterion and the spectrum
    axis = np.linspace(-0.5, 0.5, 21)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    diags = np.zeros((len(pts), 3, 3))
    diags[:, [0, 1, 2], [0, 1, 2]] = pts
    lows = linalg.hermitian_eigenvalues(choi_matrix_tensor_batch(diags, diags))[:, 0]
    res = classify.cp_tensor_diag_residuals(pts[:, 0], pts[:, 1], pts[:, 2])
    exact_ok = classify.all_hold(res, 1e-9)
    numeric_ok = lows >= -1e-9
    disagreements = int(np.sum(exact_ok != numeric_ok))
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 30.0
    _report(2, f"diagonal tensor Choi blocks match and the exact CP criterion agrees "
               f"with the spectrum sign at all {len(pts)} grid points ({elapsed:.1f}s)")


def test_criterion_3_diag_ks_vs_oracle_grid():
    t0 = time.perf_counter()
    axis = np.linspace(-1.0, 1.0, 21)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    cfg = SampleConfig(n_samples=10000, seed=7, tol=1e-8)
    params = [DiagonalParams(l1, l2, l3) for l1, l2, l3 in pts]
    channels = [QubitChannel.diagonal(p) for p in params]
    witnesses = oracle.ks_violation_search_many(channels, cfg)
    anomalies = []
    n_holds = n_fails = n_unwitnessed = 0
    for p, ch, wit in zip(params, channels, witnesses):
        verdict = classify.ks_phi_diag_exact(p)
        if verdict.status is classify.Status.HOLDS_EXACT:
            n_holds += 1
            if wit is not None:
                anomalies.append((tuple(p.as_array()), "holds but witness", wit.violation))
        else:
            n_fails += 1
            if wit is None or wit.violation >= -1e-6:
                anomalies.append((tuple(p.as_array()), "fails but no witness", wit))
            # the verdict's own certificate must violate KS at definition level
            if verdict.witness is None:
                n_unwitnessed += 1
            else:
                x, reported = verdict.witness
                value = classify.ks_defect_min_eig(ch, x)
                if not (value < -cfg.tol and abs(value - reported) <= 1e-12):
                    anomalies.append((tuple(p.as_array()), "witness does not re-verify", value))
    elapsed = time.perf_counter() - t0
    assert anomalies == [], anomalies[:5]
    assert elapsed < 300.0
    _report(3, f"KS classification vs oracle on the 21^3 grid: {n_holds} holds all "
               f"oracle-clean, {n_fails} fails all witnessed beyond 1e-6, every returned "
               f"certificate re-verified, {n_unwitnessed} without one ({elapsed:.0f}s)")


def test_criterion_4_redundancy_checks():
    axis = np.linspace(-1.0, 1.0, 41)
    g = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    l1, l2, l3 = g[:, 0], g[:, 1], g[:, 2]
    p = l1 * l2 * l3
    holds = (
        ((1 + l1**2) * (3 + l2**2 + l3**2 - l1**2) <= 4 * (1 + p) + 1e-12)
        & ((1 + l2**2) * (3 + l1**2 + l3**2 - l2**2) <= 4 * (1 + p) + 1e-12)
        & ((1 + l3**2) * (3 + l1**2 + l2**2 - l3**2) <= 4 * (1 + p) + 1e-12)
    )
    extra = l1**2 + l2**2 + l3**2 <= 1 + 2 * p + 1e-12
    bad1 = int(np.sum(holds & ~extra))

    axis = np.linspace(-0.5, 0.5, 41)
    g = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    l1, l2, l3 = g[:, 0], g[:, 1], g[:, 2]
    lhs = 4 * (1 + 8 * l1 * l2 * l3)
    holds = (
        (lhs >= (1 + 4 * l1**2) * (3 + 4 * l2**2 + 4 * l3**2 - 4 * l1**2) - 1e-12)
        & (lhs >= (1 + 4 * l2**2) * (3 + 4 * l1**2 + 4 * l3**2 - 4 * l2**2) - 1e-12)
        & (lhs >= (1 + 4 * l3**2) * (3 + 4 * l1**2 + 4 * l2**2 - 4 * l3**2) - 1e-12)
    )
    extra = 1 + 16 * l1 * l2 * l3 >= 4 * (l1**2 + l2**2 + l3**2) - 1e-12
    bad2 = int(np.sum(holds & ~extra))

    assert bad1 == 0 and bad2 == 0
    _report(4, "the fourth inequality is implied by the other three on both 41^3 grids "
               "(0 counterexamples each)")


def test_criterion_5_separation_witnesses():
    # transpose channel: positive, not KS, not CP
    transpose = QubitChannel.diagonal(DiagonalParams(1, -1, 1))
    pos_cfg = SampleConfig(n_samples=10000, seed=13, tol=1e-8)
    assert positivity_violation_search(transpose, pos_cfg) is None
    wit = ks_violation_search(transpose, SampleConfig(n_samples=10000, seed=13))
    assert wit is not None and wit.violation < -1e-6
    low = linalg.min_eigenvalue(choi_matrix_qubit(transpose))
    assert low < -1e-3

    # KS-but-not-CP channel
    p = DiagonalParams(0.6, 0.5, 0.0)
    assert classify.ks_phi_diag_exact(p).status is classify.Status.HOLDS_EXACT
    assert ks_violation_search(
        QubitChannel.diagonal(p), SampleConfig(n_samples=100000, seed=13)
    ) is None
    assert classify.cp_phi_exact(p).status is classify.Status.FAILS
    low2 = linalg.min_eigenvalue(choi_matrix_qubit(QubitChannel.diagonal(p)))
    assert low2 < -1e-3
    _report(5, f"transpose channel is positive / not KS (violation {wit.violation:.3f}) / "
               f"not CP (Choi eig {low:.3f}); (0.6, 0.5, 0) is KS but not CP "
               f"(Choi eig {low2:.4f})")


def test_criterion_6_figure1_regions():
    t0 = time.perf_counter()
    spec = ScanSpec.for_figure("fig1", 401)
    flags = scan_flags(spec)
    t_cp, phi_cp = flags[0].astype(bool), flags[1].astype(bool)
    # strict containment: the channel's CP region sits inside the tensor map's
    assert not np.any(phi_cp & ~t_cp)
    witness_cells = t_cp & ~phi_cp
    assert np.count_nonzero(witness_cells) > 0
    # the band at b ~ 0 contains such cells
    ys = spec.ys()
    row = int(np.argmin(np.abs(ys)))
    assert np.count_nonzero(witness_cells[row]) > 0
    bad = verify_scan_against_choi(spec, 200, seed=6)
    elapsed = time.perf_counter() - t0
    assert bad == []
    assert elapsed < 60.0
    _report(6, f"401^2 scan: tensor-map CP region strictly contains the channel CP region "
               f"({np.count_nonzero(witness_cells)} witness cells); 200 Choi re-checks clean "
               f"({elapsed:.1f}s)")


def test_criterion_7_figure2_regions():
    spec = ScanSpec.for_figure("fig2", 401)
    flags = scan_flags(spec)
    cp, ks_suff, comps = (flags[k].astype(bool) for k in range(3))
    # the sufficient KS region strictly contains the componentwise square
    assert np.all(ks_suff[comps])
    outside = ks_suff & ~comps
    assert np.count_nonzero(outside) > 0

    xs, ys = spec.xs(), spec.ys()
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    lams = X[outside]
    mus = Y[outside]

    # oracle-clean at 10^4 samples for every qualifying point, on one shared draw
    maps = [TensorMap.scalar(ScalarPairParams(float(lam), float(mu))) for lam, mu in zip(lams, mus)]
    tol = 1e-8
    found = oracle.ks_violation_search_many(maps, SampleConfig(n_samples=10000, seed=7, tol=tol))
    dirty = [(lams[k], mus[k]) for k, wit in enumerate(found) if wit is not None]
    assert dirty == [], dirty[:5]

    # tie the batched search to the literal per-map oracle on a subsample
    rng = np.random.default_rng(77)
    idx = rng.choice(len(lams), size=40, replace=False)
    for k in idx:
        m = TensorMap.scalar(ScalarPairParams(float(lams[k]), float(mus[k])))
        assert ks_violation_search(m, SampleConfig(n_samples=10000, seed=7, tol=tol)) is None
    _report(7, f"401^2 scan: KS-sufficient region strictly exceeds the componentwise square "
               f"({np.count_nonzero(outside)} cells outside), all oracle-clean at 10^4 samples")


def test_criterion_8_tensor_spectrum():
    rng = np.random.default_rng(108)
    w0 = rng.normal(size=10000)
    w = rng.normal(size=(10000, 3))
    r = rng.normal(size=(10000, 3))
    mats = tensor_to_matrix_batch(w0.astype(complex), w.astype(complex), r.astype(complex))
    numeric = linalg.hermitian_eigenvalues(mats)
    nw = np.linalg.norm(w, axis=1)
    nr = np.linalg.norm(r, axis=1)
    analytic = np.sort(
        np.stack([w0 - nw - nr, w0 - nw + nr, w0 + nw - nr, w0 + nw + nr], axis=-1), axis=1
    )
    worst = np.max(np.abs(numeric - analytic))
    assert worst < 1e-10
    _report(8, f"closed-form tensor spectrum matches the eigensolver on 10^4 random "
               f"elements (worst deviation {worst:.2e})")


def test_criterion_9_star_square():
    rng = np.random.default_rng(109)
    z = rng.normal(size=(10000, 8))
    w0 = z[:, 0] + 1j * z[:, 1]
    w = z[:, 2:5] + 1j * z[:, 5:]
    c0, cvec = star_square_coeffs(w0, w)
    mats = to_matrix_batch(w0, w)
    direct = np.conj(np.swapaxes(mats, -1, -2)) @ mats
    d0 = np.einsum("nii->n", direct) / 2.0
    from ksq.pauli import SIGMA

    dvec = np.einsum("kij,nji->nk", SIGMA, direct) / 2.0
    worst = max(float(np.max(np.abs(c0 - d0))), float(np.max(np.abs(cvec - dvec))))
    assert worst < 1e-12
    _report(9, f"product formula matches direct matrix computation on 10^4 random "
               f"elements (worst deviation {worst:.2e})")


def test_criterion_10_structural_properties():
    rng = np.random.default_rng(110)
    cfg = SampleConfig(n_samples=5000, seed=17, tol=1e-8)

    # 100 random convex combinations of clean diagonal KS channels stay clean
    clean_params = []
    while len(clean_params) < 200:
        lams = rng.uniform(-1, 1, size=3)
        if np.all(classify.diag_ks_residuals(*lams) <= 0.0):
            clean_params.append(DiagonalParams(*lams))
    failures = 0
    for k in range(100):
        a = QubitChannel.diagonal(clean_params[2 * k])
        b = QubitChannel.diagonal(clean_params[2 * k + 1])
        mix = convex_combination(a, b, float(rng.uniform(0, 1)))
        if ks_violation_search(mix, cfg) is not None:
            failures += 1
    assert failures == 0

    # 100 random unitary conjugations preserve the oracle verdict
    bases = []
    while len(bases) < 50:
        lams = rng.uniform(-1, 1, size=3)
        if np.all(classify.diag_ks_residuals(*lams) <= 0.0):
            bases.append((QubitChannel.diagonal(DiagonalParams(*lams)), False))
    while len(bases) < 100:
        lams = rng.uniform(-1, 1, size=3)
        p = DiagonalParams(*lams)
        if classify.ks_phi_diag_exact(p).status is classify.Status.FAILS:
            base = QubitChannel.diagonal(p)
            wit = ks_violation_search(base, cfg)
            if wit is not None and wit.violation < -1e-4:
                bases.append((base, True))
    mismatches = 0
    for base, has_witness in bases:
        wrapped = conjugate_by_unitaries(base, random_unitary(rng), random_unitary(rng))
        wit = ks_violation_search(wrapped, cfg)
        if (wit is not None) != has_witness:
            mismatches += 1
    assert mismatches == 0
    _report(10, "100 convex combinations of KS channels stay oracle-clean; "
                "100 unitary conjugations preserve the oracle verdict")
