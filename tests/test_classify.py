import numpy as np
import pytest

from ksq import classify, linalg
from ksq.channels import (
    DiagonalParams,
    DiagonalTensorParams,
    QubitChannel,
    ScalarPairParams,
    TensorMap,
    choi_matrix_qubit,
    choi_matrix_qubit_batch,
    choi_matrix_tensor,
)
from ksq.classify import (
    DiagKsTerms,
    Status,
    cp_choi_numeric,
    cp_phi_exact,
    cp_tensor_diag_exact,
    cp_tlm_exact,
    classify_full,
    diag_ks_defect_supremum,
    diag_ks_residuals,
    ks_defect_min_eig,
    ks_phi_diag_exact,
    ks_phi_scalar_interval,
    ks_tensor_diag_sufficient,
    ks_tensor_sufficient,
    ks_tlm_sufficient,
    ks_witness_for_diag,
    positive_tensor,
    tlm_choi_eigenvalues,
    _phase_supremum,
)
from ksq.pauli import PauliElement


# --- diagonal channel KS ----------------------------------------------------


def test_ks_phi_diag_identity_boundary():
    tri = ks_phi_diag_exact(DiagonalParams(1, 1, 1))
    assert tri.status is Status.HOLDS_EXACT
    assert np.allclose(diag_ks_residuals(1, 1, 1), [0.0, 0.0, 0.0])  # 8 <= 8


def test_ks_phi_diag_transpose_fails():
    tri = ks_phi_diag_exact(DiagonalParams(1, -1, 1))
    assert tri.status is Status.FAILS
    assert tri.witness is not None
    x, violation = tri.witness
    assert violation < -1e-6
    # 8 <= 0 is false for the first inequality
    assert diag_ks_residuals(1, -1, 1)[0] == pytest.approx(8.0)


def test_ks_phi_diag_known_interior_point():
    p = DiagonalParams(0.6, 0.5, 0.0)
    lhs = np.array(
        [
            (1 + 0.36) * (3 + 0.25 + 0.0 - 0.36),
            (1 + 0.25) * (3 + 0.36 + 0.0 - 0.25),
            (1 + 0.0) * (3 + 0.36 + 0.25 - 0.0),
        ]
    )
    assert np.allclose(lhs, [3.9304, 3.8875, 3.61])
    assert np.all(lhs <= 4.0)
    assert ks_phi_diag_exact(p).status is Status.HOLDS_EXACT


def test_ks_phi_diag_sufficiency_gap():
    # diag(-1/2, -1/2, -1/2) is the scalar boundary case: genuinely KS,
    # yet all three closed-form inequalities are violated
    p = DiagonalParams(-0.5, -0.5, -0.5)
    assert np.all(diag_ks_residuals(-0.5, -0.5, -0.5) > 0.5)
    tri = ks_phi_diag_exact(p)
    assert tri.status is Status.HOLDS_EXACT
    sup, _ = diag_ks_defect_supremum(p)
    assert abs(sup) < 1e-12


def test_scalar_interval_consistency_with_diag_exact():
    for lam in np.linspace(-0.5, 0.5, 41):
        interval = ks_phi_scalar_interval(lam)
        diag = ks_phi_diag_exact(DiagonalParams(2 * lam, 2 * lam, 2 * lam))
        assert (interval.status is Status.HOLDS_EXACT) == (
            diag.status is Status.HOLDS_EXACT
        ), f"disagreement at lam={lam}"


def test_phase_supremum_against_brute_force(rng):
    t = np.linspace(0.0, np.pi, 400)
    d1, d2 = np.meshgrid(t, t, indexing="ij")
    for _ in range(40):
        a = rng.uniform(0.0, 2.0, size=3)
        if rng.random() < 0.25:
            a[rng.integers(3)] = 0.0
        brute = float(
            np.max(a[0] * np.sin(d1) ** 2 + a[1] * np.sin(d2) ** 2 + a[2] * np.sin(d1 + d2) ** 2)
        )
        closed = float(_phase_supremum(a[0], a[1], a[2]))
        assert closed >= brute - 1e-9
        assert closed <= brute + 1e-3 * max(1.0, brute)


def test_defect_supremum_against_sampling(rng):
    # the analytic supremum must dominate every sampled defect and be
    # attained by the constructed witness
    for lams in ([0.9, -0.7, 0.2], [-0.5, -0.4, -0.5], [0.3, 0.9, -0.8]):
        p = DiagonalParams(*lams)
        ch = QubitChannel.diagonal(p)
        sup, n = diag_ks_defect_supremum(p)
        z = rng.normal(size=(4000, 6))
        w = z[:, :3] + 1j * z[:, 3:]
        w /= np.linalg.norm(w, axis=1)[:, None]
        sampled = []
        for row in w[:300]:
            sampled.append(-ks_defect_min_eig(ch, PauliElement(0.0, row)))
        # convert defect eigenvalue to the squared-inequality margin scale:
        # just check sign consistency and witness quality instead
        if sup > 1e-9:
            witness = ks_witness_for_diag(p, n)
            assert ks_defect_min_eig(ch, witness) < -1e-9
        else:
            assert max(sampled) < 1e-9


def test_ks_phi_diag_witness_violates_ks():
    # the phase difference of w1 and w2 must be d1 + d2; with d1 - d2 this
    # point's witness had a positive defect eigenvalue (+0.470)
    p = DiagonalParams(0.301, 0.213, -0.932)
    tri = ks_phi_diag_exact(p)
    assert tri.status is Status.FAILS
    x, violation = tri.witness
    assert violation == pytest.approx(-0.0658, abs=5e-4)
    assert ks_defect_min_eig(QubitChannel.diagonal(p), x) == pytest.approx(violation, abs=1e-12)
    assert "oracle" not in tri.note


def test_ks_phi_diag_witness_fallbacks(monkeypatch):
    # a real input has a zero bracket, so its defect is ||w||^2 - ||Tw||^2 >= 0
    p = DiagonalParams(1, -1, 1)
    monkeypatch.setattr(
        classify, "ks_witness_for_diag", lambda p, n: PauliElement(0.0, [1.0, 0.0, 0.0])
    )
    tri = ks_phi_diag_exact(p)
    assert tri.status is Status.FAILS
    assert "sampling oracle" in tri.note
    x, violation = tri.witness
    assert violation < -1e-8
    assert ks_defect_min_eig(QubitChannel.diagonal(p), x) == pytest.approx(violation, abs=1e-12)

    from ksq import oracle

    monkeypatch.setattr(oracle, "ks_violation_search", lambda map_obj, cfg: None)
    tri = ks_phi_diag_exact(p)
    assert tri.status is Status.FAILS
    assert tri.witness is None
    assert "defect supremum" in tri.note and "no witness" in tri.note


def test_ks_probe_vectors_read_only():
    probes = classify.ks_probe_vectors()
    with pytest.raises(ValueError):
        probes[0, 0] = 0.0
    assert probes[0, 0] == 1.0
    assert classify.ks_probe_vectors() is probes


def test_diag_ks_terms_record():
    t = DiagKsTerms.from_params(DiagonalParams(0.6, 0.5, 0.0))
    assert t.alpha == pytest.approx(0.64)
    assert t.beta == pytest.approx(0.75)
    assert t.gamma == pytest.approx(1.0)
    assert t.A == pytest.approx(0.36)
    assert t.B == pytest.approx(0.25)
    assert t.C == pytest.approx(0.09)


# --- tensor positivity ------------------------------------------------------


def test_positive_tensor_equal_boundary():
    m = TensorMap.diagonal(DiagonalTensorParams(0.5, 0.5, 0.5))
    tri = positive_tensor(m)
    assert tri.status is Status.HOLDS_EXACT


def test_positive_tensor_axis_failure():
    m = TensorMap(np.diag([0.8, 0.0, 0.0]), np.diag([0.3, 0.0, 0.0]))
    tri = positive_tensor(m)
    assert tri.status is Status.FAILS
    x, value = tri.witness
    assert value == pytest.approx(1.1, abs=1e-9)
    assert abs(abs(x.w[0].real) - 1.0) < 1e-6


def test_positive_tensor_zero_map():
    tri = positive_tensor(TensorMap(np.zeros((3, 3)), np.zeros((3, 3))))
    assert tri.status is Status.HOLDS_EXACT


def test_positive_tensor_grid_validation():
    with pytest.raises(ValueError, match="64"):
        positive_tensor(TensorMap(np.zeros((3, 3)), np.zeros((3, 3))), grid=32)


def test_positive_tensor_unequal_sufficient(rng):
    m = TensorMap(np.diag([0.4, 0.1, 0.2]), np.diag([0.3, 0.2, 0.1]))
    tri = positive_tensor(m)
    assert tri.status is Status.HOLDS_SUFFICIENT


# --- tensor KS --------------------------------------------------------------


def test_ks_tensor_sufficient_zero_map():
    tri = ks_tensor_sufficient(TensorMap(np.zeros((3, 3)), np.zeros((3, 3))), 2000, seed=5)
    assert tri.status is Status.HOLDS_SUFFICIENT


def test_ks_tensor_sufficient_scalar_boundary():
    m = TensorMap.scalar(ScalarPairParams(-0.25, -0.25))
    tri = ks_tensor_sufficient(m, 5000, seed=5)
    assert tri.status is Status.HOLDS_SUFFICIENT


def test_ks_tensor_sufficient_inconclusive():
    m = TensorMap.scalar(ScalarPairParams(0.5, -0.3))
    tri = ks_tensor_sufficient(m, 2000, seed=5)
    assert tri.status is Status.INCONCLUSIVE


def test_ks_tensor_diag_sufficient_cases():
    assert (
        ks_tensor_diag_sufficient(DiagonalTensorParams(0.5, 0.5, 0.5)).status
        is Status.HOLDS_SUFFICIENT
    )
    assert (
        ks_tensor_diag_sufficient(DiagonalTensorParams(0, 0, 0)).status
        is Status.HOLDS_SUFFICIENT
    )
    assert (
        ks_tensor_diag_sufficient(DiagonalTensorParams(0.5, -0.5, 0.5)).status
        is Status.INCONCLUSIVE
    )


def test_ks_tlm_sufficient_cases():
    assert ks_tlm_sufficient(ScalarPairParams(0, 0)).status is Status.HOLDS_SUFFICIENT
    assert ks_tlm_sufficient(ScalarPairParams(0.5, 0.5)).status is Status.HOLDS_SUFFICIENT
    tri = ks_tlm_sufficient(ScalarPairParams(0.5, -0.3))
    assert tri.status is Status.INCONCLUSIVE
    assert "0.48" in tri.note and "0.32" in tri.note


def test_ks_tlm_component_rule():
    # just outside the corner (-1/4, -1/4) the scalar inequality fails by more
    # than its slack while both components stay in [-1/4, 1/2] within theirs
    p = ScalarPairParams(-0.25 - 5e-10, -0.25 - 5e-10)
    assert ks_tlm_sufficient(p).status is Status.INCONCLUSIVE
    tri = classify.ks_tlm(p)
    assert tri.status is Status.HOLDS_SUFFICIENT and "components" in tri.note
    assert classify.ks_tlm(ScalarPairParams(0.5, -0.3)).status is Status.INCONCLUSIVE
    assert classify.ks_tlm(ScalarPairParams(0.5, 0.5)).note.startswith("scalar KS inequality holds")


def test_scalar_ks_implies_tensor_ks(rng):
    # every scalar pair passing the scalar inequality also passes the
    # generic tensor sufficient test with A = lam*1, C = mu*1
    for _ in range(30):
        lam, mu = rng.uniform(-0.6, 0.6, size=2)
        if ks_tlm_sufficient(ScalarPairParams(lam, mu)).status is Status.HOLDS_SUFFICIENT:
            tri = ks_tensor_sufficient(TensorMap.scalar(ScalarPairParams(lam, mu)), 800, seed=2)
            assert tri.status is Status.HOLDS_SUFFICIENT, (lam, mu)


def test_ks_phi_scalar_interval_endpoints():
    assert ks_phi_scalar_interval(0.5).status is Status.HOLDS_EXACT
    assert ks_phi_scalar_interval(-0.25).status is Status.HOLDS_EXACT
    assert ks_phi_scalar_interval(-0.3).status is Status.FAILS
    assert ks_phi_scalar_interval(0.51).status is Status.FAILS


# --- complete positivity ----------------------------------------------------


def test_cp_phi_fixtures():
    assert cp_phi_exact(DiagonalParams(1, 1, 1)).status is Status.HOLDS_EXACT
    tri = cp_phi_exact(DiagonalParams(1, -1, 1))
    assert tri.status is Status.FAILS
    assert "inequality 2" in tri.note  # (l1 - l2)^2 = 4 > 0 = (1 - l3)^2
    tri = cp_phi_exact(DiagonalParams(0.6, 0.5, 0.0))
    assert tri.status is Status.FAILS
    # third inequality residual: 4*0.09 - 0.39^2 = 0.2079
    l1, l2, l3 = 0.6, 0.5, 0.0
    res3 = 4 * (l1**2 * l2**2 + l2**2 * l3**2 + l1**2 * l3**2 - 2 * l1 * l2 * l3) - (
        1 - (l1**2 + l2**2 + l3**2)
    ) ** 2
    assert res3 == pytest.approx(0.36 - 0.1521)


def test_cp_phi_matches_choi_spectrum(rng):
    for _ in range(150):
        lams = rng.uniform(-1, 1, size=3)
        exact = cp_phi_exact(DiagonalParams(*lams)).status is Status.HOLDS_EXACT
        low = linalg.min_eigenvalue(choi_matrix_qubit(QubitChannel.diagonal(DiagonalParams(*lams))))
        # skip the razor-thin boundary band where both sides round
        if abs(low) > 1e-7:
            assert exact == (low >= 0), lams


def test_cp_tensor_diag_fixtures():
    assert cp_tensor_diag_exact(DiagonalTensorParams(0, 0, 0)).status is Status.HOLDS_EXACT
    assert cp_tensor_diag_exact(DiagonalTensorParams(0.3, 0.3, -0.5)).status is Status.FAILS
    # equality planes: the third parameter at +1/2 requires equal first two,
    # at -1/2 opposite first two (closure of the interior criterion)
    assert cp_tensor_diag_exact(DiagonalTensorParams(0.2, 0.2, 0.5)).status is Status.HOLDS_EXACT
    assert cp_tensor_diag_exact(DiagonalTensorParams(0.5, 0.0, 0.5)).status is Status.FAILS
    assert cp_tensor_diag_exact(DiagonalTensorParams(0.1, -0.1, -0.5)).status is Status.HOLDS_EXACT
    assert cp_tensor_diag_exact(DiagonalTensorParams(0.5, -0.5, -0.5)).status is Status.HOLDS_EXACT


def test_cp_tensor_diag_matches_choi_grid():
    axis = np.linspace(-0.5, 0.5, 11)
    for l1 in axis:
        for l2 in axis:
            for l3 in (-0.5, -0.25, 0.0, 0.3, 0.5):
                p = DiagonalTensorParams(l1, l2, l3)
                exact = cp_tensor_diag_exact(p).status is Status.HOLDS_EXACT
                low = linalg.min_eigenvalue(choi_matrix_tensor(TensorMap.diagonal(p)))
                assert exact == (low >= -1e-9), (l1, l2, l3, low)


def test_cp_phi_vs_choi_full_grid():
    from ksq.channels import choi_matrix_qubit_batch

    axis = np.linspace(-1.0, 1.0, 21)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    diags = np.zeros((len(pts), 3, 3))
    diags[:, [0, 1, 2], [0, 1, 2]] = pts
    lows = linalg.hermitian_eigenvalues(choi_matrix_qubit_batch(diags))[:, 0]
    for k, (l1, l2, l3) in enumerate(pts):
        exact = cp_phi_exact(DiagonalParams(l1, l2, l3)).status is Status.HOLDS_EXACT
        assert exact == (lows[k] >= -1e-9), (l1, l2, l3, lows[k])


def test_cp_tlm_vs_choi_full_grid():
    from ksq.channels import choi_matrix_tensor_batch

    axis = np.linspace(-1.0, 1.0, 41)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    eye = np.eye(3)
    lows = linalg.hermitian_eigenvalues(
        choi_matrix_tensor_batch(pts[:, 0, None, None] * eye, pts[:, 1, None, None] * eye)
    )[:, 0]
    for k, (lam, mu) in enumerate(pts):
        exact = cp_tlm_exact(ScalarPairParams(lam, mu)).status is Status.HOLDS_EXACT
        assert exact == (lows[k] >= -1e-9), (lam, mu, lows[k])


def test_cp_tlm_fixtures():
    assert cp_tlm_exact(ScalarPairParams(0, 0)).status is Status.HOLDS_EXACT
    assert cp_tlm_exact(ScalarPairParams(0.5, 0.5)).status is Status.HOLDS_EXACT
    assert cp_tlm_exact(ScalarPairParams(1, 1)).status is Status.FAILS


def test_tlm_choi_spectrum_values():
    vals = tlm_choi_eigenvalues(ScalarPairParams(0.3, 0.1))
    root = np.sqrt(0.07)
    assert np.allclose(np.sort(vals), np.sort([1.4 - 2 * root, 1.4 + 2 * root, 0.6]))
    choi = choi_matrix_tensor(TensorMap.scalar(ScalarPairParams(0.3, 0.1)))
    spectrum = linalg.hermitian_eigenvalues(choi)
    # every analytic value appears (halved by the assembly convention) and
    # the smallest of them is the smallest Choi eigenvalue
    for v in vals:
        assert np.min(np.abs(spectrum - 0.5 * v)) < 1e-9
    assert spectrum[0] == pytest.approx(0.5 * vals.min(), abs=1e-9)
    tri = cp_choi_numeric(choi)
    assert tri.status is Status.HOLDS_EXACT


def test_cp_choi_numeric():
    assert cp_choi_numeric(np.eye(8) / 2.0).status is Status.HOLDS_EXACT
    tri = cp_choi_numeric(choi_matrix_qubit(QubitChannel.diagonal(DiagonalParams(1, -1, 1))))
    assert tri.status is Status.FAILS
    assert tri.witness == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="Hermitian"):
        cp_choi_numeric(np.array([[0, 1], [0, 0]], dtype=complex))


def test_choi_min_eigenvalues_stack_matches_jacobi(rng):
    Ts = rng.uniform(-1.0, 1.0, size=(50, 3, 3))
    chois = choi_matrix_qubit_batch(Ts)
    lows = classify.choi_min_eigenvalues(chois)
    assert lows.shape == (50,)
    assert np.allclose(lows, linalg.min_eigenvalue(chois), atol=1e-12)
    assert classify.choi_min_eigenvalues(chois[3]) == pytest.approx(lows[3], abs=1e-15)
    # one non-Hermitian matrix in the stack is rejected
    chois[7, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        classify.choi_min_eigenvalues(chois)


# --- redundancy claims ------------------------------------------------------


def test_diag_ks_inequalities_imply_ks20():
    axis = np.linspace(-1, 1, 21)
    g = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    l1, l2, l3 = g[:, 0], g[:, 1], g[:, 2]
    p = l1 * l2 * l3
    holds = (
        ((1 + l1**2) * (3 + l2**2 + l3**2 - l1**2) <= 4 * (1 + p) + 1e-12)
        & ((1 + l2**2) * (3 + l1**2 + l3**2 - l2**2) <= 4 * (1 + p) + 1e-12)
        & ((1 + l3**2) * (3 + l1**2 + l2**2 - l3**2) <= 4 * (1 + p) + 1e-12)
    )
    extra = l1**2 + l2**2 + l3**2 <= 1 + 2 * p + 1e-12
    assert np.all(extra[holds])


def test_tensor_diag_ks_inequalities_imply_extra():
    axis = np.linspace(-0.5, 0.5, 21)
    g = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    l1, l2, l3 = g[:, 0], g[:, 1], g[:, 2]
    lhs = 4 * (1 + 8 * l1 * l2 * l3)
    holds = (
        (lhs >= (1 + 4 * l1**2) * (3 + 4 * l2**2 + 4 * l3**2 - 4 * l1**2) - 1e-12)
        & (lhs >= (1 + 4 * l2**2) * (3 + 4 * l1**2 + 4 * l3**2 - 4 * l2**2) - 1e-12)
        & (lhs >= (1 + 4 * l3**2) * (3 + 4 * l1**2 + 4 * l2**2 - 4 * l3**2) - 1e-12)
    )
    extra = 1 + 16 * l1 * l2 * l3 >= 4 * (l1**2 + l2**2 + l3**2) - 1e-12
    assert np.all(extra[holds])


def test_radicand_nonnegative():
    axis = np.linspace(-0.5, 0.5, 21)
    g = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    l1, l2, l3 = g[:, 0], g[:, 1], g[:, 2]
    assert np.all((l1**2 + l2**2) ** 2 + l3**2 - 4 * l1 * l2 * l3 >= 0)


# --- dispatcher -------------------------------------------------------------


def test_classify_full_identity():
    v = classify_full("phi:1,1,1", n_samples=500)
    assert v.positive.status is Status.HOLDS_EXACT
    assert v.kadison_schwarz.status is Status.HOLDS_EXACT
    assert v.completely_positive.status is Status.HOLDS_EXACT


def test_classify_full_transpose():
    v = classify_full("phi:1,-1,1", n_samples=500)
    assert v.positive.status is Status.HOLDS_EXACT
    assert v.kadison_schwarz.status is Status.FAILS
    assert v.completely_positive.status is Status.FAILS


def test_classify_full_tlm_boundary():
    v = classify_full("tlm:0.5,0.5", n_samples=500)
    assert v.kadison_schwarz.status is Status.HOLDS_SUFFICIENT
    assert v.completely_positive.status is Status.HOLDS_EXACT


def test_classify_full_tmat(rng):
    m = 0.15 * rng.normal(size=18)
    v = classify_full("tmat:" + ",".join(format(x, ".17g") for x in m), n_samples=500)
    assert v.positive.status in (Status.HOLDS_SUFFICIENT, Status.HOLDS_EXACT)


def test_classify_full_hierarchy_random(rng):
    for _ in range(25):
        lams = rng.uniform(-1, 1, size=3)
        v = classify_full(("phi", DiagonalParams(*lams)), n_samples=500)
        if v.completely_positive.status is Status.HOLDS_EXACT:
            assert v.kadison_schwarz.status is not Status.FAILS
        if v.kadison_schwarz.status is Status.HOLDS_EXACT:
            assert v.positive.status is not Status.FAILS
