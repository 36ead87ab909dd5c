import numpy as np
import pytest

from conftest import random_unitary
from ksq import linalg
from ksq.channels import (
    DiagonalParams,
    DiagonalTensorParams,
    QubitChannel,
    ScalarPairParams,
    TensorMap,
    conjugate_by_unitaries,
    convex_combination,
)
from ksq.classify import diag_ks_residuals, ks_defect_min_eig
from ksq.oracle import (
    SampleConfig,
    Witness,
    agreement_harness,
    ks_violation_search,
    positivity_violation_search,
    sample_unit_ball,
    sample_unit_sphere,
)
from ksq.pauli import PauliElement, star_square, to_matrix


def test_sample_config_validation():
    with pytest.raises(ValueError, match="n_samples"):
        SampleConfig(n_samples=0)
    with pytest.raises(ValueError, match="tol"):
        SampleConfig(tol=0.0)


def test_sampler_determinism():
    a = sample_unit_sphere(5000, seed=42)
    b = sample_unit_sphere(5000, seed=42)
    assert np.array_equal(a, b)
    assert not np.allclose(a, sample_unit_sphere(5000, seed=43))
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
    ball = sample_unit_ball(5000, seed=42)
    assert np.max(np.linalg.norm(ball, axis=1)) <= 1.0


def test_ks_identity_clean():
    assert ks_violation_search(QubitChannel.identity(), SampleConfig(n_samples=2000)) is None


def test_ks_transpose_witness_from_probes():
    cfg = SampleConfig(n_samples=100, seed=5)
    wit = ks_violation_search(QubitChannel.diagonal(DiagonalParams(1, -1, 1)), cfg)
    assert wit is not None and wit.defect_kind == "KS"
    # the structured probe (0, 1, i)/sqrt(2) realises defect eigenvalue -2
    assert wit.violation == pytest.approx(-2.0, abs=1e-12)
    # independently confirm the witness with a direct matrix evaluation
    assert ks_defect_min_eig(QubitChannel.diagonal(DiagonalParams(1, -1, 1)), wit.x) == (
        pytest.approx(wit.violation, abs=1e-12)
    )


def test_ks_interior_point_clean():
    cfg = SampleConfig(n_samples=20000, seed=5)
    assert ks_violation_search(QubitChannel.diagonal(DiagonalParams(0.6, 0.5, 0.0)), cfg) is None


def test_witness_reproducible():
    cfg = SampleConfig(n_samples=3000, seed=99)
    ch = QubitChannel.diagonal(DiagonalParams(0.99, -0.9, 0.4))
    w1 = ks_violation_search(ch, cfg)
    w2 = ks_violation_search(ch, cfg)
    assert w1 is not None and w2 is not None
    assert w1.violation == w2.violation
    assert np.array_equal(w1.x.w, w2.x.w)


def test_defect_scale_invariance(rng):
    ch = QubitChannel(rng.uniform(-1, 1, size=(3, 3)) * 0.8)
    for _ in range(10):
        z = rng.normal(size=6)
        w = z[:3] + 1j * z[3:]
        c = complex(rng.normal(), rng.normal())
        base = ks_defect_min_eig(ch, PauliElement(0.0, w))
        scaled = ks_defect_min_eig(ch, PauliElement(0.0, c * w))
        assert abs(scaled - abs(c) ** 2 * base) < 1e-10 * max(1.0, abs(base))


def test_defect_shift_invariance(rng):
    ch = QubitChannel(rng.uniform(-1, 1, size=(3, 3)) * 0.8)
    for _ in range(10):
        z = rng.normal(size=6)
        w = z[:3] + 1j * z[3:]
        t = complex(rng.normal(), rng.normal())
        x = PauliElement(0.0, w)
        shifted = PauliElement(t, w)
        d0 = _defect_matrix(ch, x)
        d1 = _defect_matrix(ch, shifted)
        assert np.max(np.abs(d0 - d1)) < 1e-12


def _defect_matrix(ch, x):
    sq = star_square(x)
    m_sq = ch.apply_matrix(sq)
    m_x = ch.apply_matrix(x)
    return m_sq - m_x.conj().T @ m_x


def test_positivity_search_boundary_clean():
    m = TensorMap.diagonal(DiagonalTensorParams(0.5, 0.5, 0.5))
    assert positivity_violation_search(m, SampleConfig(n_samples=3000)) is None


def test_positivity_search_finds_axis_violation():
    m = TensorMap(np.diag([0.8, 0, 0]), np.diag([0.3, 0, 0]))
    wit = positivity_violation_search(m, SampleConfig(n_samples=500))
    assert wit is not None and wit.defect_kind == "Positivity"
    # probe at x = 1 + s1 has spectrum containing 1 - 0.8 - 0.3
    assert wit.violation == pytest.approx(-0.1, abs=1e-9)
    assert wit.x.w0 == 1.0


def test_positivity_identity_clean():
    assert positivity_violation_search(QubitChannel.identity(), SampleConfig(n_samples=2000)) is None


def test_convex_combination_stays_clean(rng):
    # mixtures of maps with clean oracle runs stay clean at the same budget
    cfg = SampleConfig(n_samples=2000, seed=3)
    clean = []
    while len(clean) < 6:
        lams = rng.uniform(-1, 1, size=3)
        if np.all(diag_ks_residuals(*lams) <= 0):
            clean.append(DiagonalParams(*lams))
    for k in range(0, 6, 2):
        a = QubitChannel.diagonal(clean[k])
        b = QubitChannel.diagonal(clean[k + 1])
        mix = convex_combination(a, b, float(rng.uniform(0, 1)))
        assert ks_violation_search(mix, cfg) is None


def test_unitary_conjugation_preserves_verdict(rng):
    cfg = SampleConfig(n_samples=2000, seed=3)
    for base, expect_witness in (
        (QubitChannel.diagonal(DiagonalParams(0.6, 0.5, 0.0)), False),
        (QubitChannel.diagonal(DiagonalParams(1, -1, 1)), True),
    ):
        for _ in range(10):
            wrapped = conjugate_by_unitaries(base, random_unitary(rng), random_unitary(rng))
            wit = ks_violation_search(wrapped, cfg)
            assert (wit is not None) == expect_witness


def test_harness_phi_small():
    report = agreement_harness("phi", 5, SampleConfig(n_samples=400, seed=9))
    assert report.discrepancies == 0, report.details[:5]


def test_harness_tdiag_small():
    report = agreement_harness("tdiag", 5, SampleConfig(n_samples=400, seed=9))
    assert report.discrepancies == 0, report.details[:5]


def test_harness_tlm_small():
    report = agreement_harness("tlm", 7, SampleConfig(n_samples=400, seed=9))
    assert report.discrepancies == 0, report.details[:5]


@pytest.mark.parametrize(
    "family,grid,counts",
    [("phi", 3, (54, 0, 0)), ("tdiag", 3, (38, 16, 0)), ("tlm", 5, (29, 21, 0))],
)
def test_harness_counts(family, grid, counts):
    # (agree, resolved_by_oracle, discrepancies) at 10^4 samples, seed 7
    report = agreement_harness(family, grid, SampleConfig(n_samples=10000, seed=7))
    assert (report.agree, report.resolved_by_oracle, report.discrepancies) == counts


def test_harness_unknown_family():
    with pytest.raises(ValueError, match="family"):
        agreement_harness("nope", 5)
    with pytest.raises(ValueError, match="family"):
        agreement_harness("tmat", 2)  # no harness box


def test_tensor_ks_without_component_ks():
    # a scalar pair whose tensor combination passes the oracle while the
    # split channel components do not: the combination genuinely carries
    # more Kadison-Schwarz room than its factors
    from ksq.channels import split_phi_psi

    cfg = SampleConfig(n_samples=20000, seed=23)
    m = TensorMap.scalar(ScalarPairParams(-0.3, 0.0))
    assert ks_violation_search(m, cfg) is None
    phi, _ = split_phi_psi(m)  # the channel w -> -0.6 w
    wit = ks_violation_search(phi, cfg)
    assert wit is not None and wit.violation < -1e-3
