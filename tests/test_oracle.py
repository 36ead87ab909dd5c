import numpy as np
import pytest

from conftest import random_unitary
from ksq import classify, linalg, oracle
from ksq.channels import (
    FAMILIES,
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
    ks_defects,
    ks_violation_search,
    ks_violation_search_many,
    positivity_violation_search,
    sample_unit_ball,
    sample_unit_sphere,
)
from ksq.pauli import PauliElement, star_square, star_square_coeffs, to_matrix, to_matrix_batch


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


def test_harness_grid_at_least_one():
    with pytest.raises(ValueError, match="grid"):
        agreement_harness("phi", 0)
    with pytest.raises(ValueError, match="grid"):
        agreement_harness("tlm", -1)


# --- batched KS search against the per-map reference -------------------------


def _reference_defect_eigs(map_obj, w0, w):
    """Smallest eigenvalue of map(x*x) - map(x)* map(x), one evaluate_batch per term."""
    c0, cvec = star_square_coeffs(w0, w)
    m_sq = map_obj.evaluate_batch(c0, cvec)
    m_x = map_obj.evaluate_batch(w0, w)
    return linalg.batch_min_eigenvalue(m_sq - np.conj(np.swapaxes(m_x, -1, -2)) @ m_x).real


def _reference_search(map_obj, cfg):
    """The per-map KS search the batched one replaces, evaluating each map directly."""
    g = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    z = g.normal(size=(4, 6))
    w = z[:, :3] + 1j * z[:, 3:]
    w /= np.linalg.norm(w, axis=1)[:, None]
    t = (g.normal(size=4) + 1j * g.normal(size=4)).astype(complex)
    w0_free = isinstance(map_obj, (QubitChannel, TensorMap)) or bool(
        np.max(np.abs(_reference_defect_eigs(map_obj, np.zeros(4, dtype=complex), w)
                      - _reference_defect_eigs(map_obj, t, w))) <= 1e-8
    )
    parts = []
    if cfg.probe_set_enabled:
        probes = classify.ks_probe_vectors()
        parts.append(probes / np.linalg.norm(probes, axis=1)[:, None])
    parts.append(sample_unit_sphere(cfg.n_samples, cfg.seed))
    w = np.concatenate(parts)
    if w0_free:
        w0 = np.zeros(len(w), dtype=complex)
    else:
        g = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
        w0 = g.normal(size=len(w)) + 1j * g.normal(size=len(w))
    eigs = _reference_defect_eigs(map_obj, w0, w)
    worst = int(np.argmin(eigs))
    if eigs[worst] < -cfg.tol:
        return Witness(PauliElement(w0[worst], w[worst]), float(eigs[worst]), "KS")
    return None


def _assert_matches_reference(maps, found, cfg):
    """Same outcome and violation per map; witness inputs differ only on exact ties."""
    for m, wit in zip(maps, found, strict=True):
        ref = _reference_search(m, cfg)
        assert (wit is None) == (ref is None)
        if wit is None:
            continue
        assert abs(wit.violation - ref.violation) <= 1e-14
        if not (wit.x.w0 == ref.x.w0 and np.array_equal(wit.x.w, ref.x.w)):
            # a tie: the reference defect at the batched witness is just as low
            mine = _reference_defect_eigs(m, np.array([wit.x.w0]), wit.x.w[None, :])[0]
            assert abs(mine - ref.violation) <= 1e-14
        # definition-level re-verification of the certificate
        assert abs(ks_defect_min_eig(m, wit.x) - wit.violation) <= 1e-12


def _grid_maps(family, grid):
    fam = FAMILIES[family]
    axis = np.linspace(*fam.box, grid)
    pts = np.stack(np.meshgrid(*[axis] * fam.arity, indexing="ij"), axis=-1).reshape(-1, fam.arity)
    return [fam.map(fam.params(pt)) for pt in pts]


@pytest.mark.parametrize(
    "family,grid,n_samples,seed",
    [
        ("phi", 3, 10000, 7), ("tdiag", 3, 10000, 7), ("tlm", 5, 10000, 7),
        ("phi", 5, 400, 9), ("tdiag", 5, 400, 9), ("tlm", 5, 400, 9),
    ],
)
def test_search_many_matches_reference(family, grid, n_samples, seed):
    cfg = SampleConfig(n_samples=n_samples, seed=seed)
    maps = _grid_maps(family, grid)
    found = ks_violation_search_many(maps, cfg)
    assert len(found) == len(maps)
    _assert_matches_reference(maps, found, cfg)
    # the single-map search is the batched one on a list of one
    k = next((i for i, wit in enumerate(found) if wit is not None), 0)
    single = ks_violation_search(maps[k], cfg)
    assert (single is None) == (found[k] is None)
    if single is not None:
        assert single.violation == found[k].violation


class _NonUnitalChannel:
    """Linear, adjoint-preserving and not unital: map(1) = 1 + 0.1 s3."""

    out_dim = 2

    def __init__(self, T):
        self.T = np.asarray(T, dtype=float)

    def evaluate_batch(self, w0, w):
        w = np.asarray(w, dtype=complex) @ self.T.T
        w[..., 2] += 0.1 * np.asarray(w0, dtype=complex)
        return to_matrix_batch(w0, w)


def test_search_many_mixes_closures_and_dimensions(rng):
    cfg = SampleConfig(n_samples=3000, seed=5)
    transpose = QubitChannel.diagonal(DiagonalParams(1, -1, 1))
    clean = QubitChannel.diagonal(DiagonalParams(0.6, 0.5, 0.0))
    cp_tensor = TensorMap.scalar(ScalarPairParams(0.3, 0.2))
    cp_tdiag = TensorMap.diagonal(DiagonalTensorParams(0.2, -0.1, 0.15))
    maps = [
        transpose,
        conjugate_by_unitaries(clean, random_unitary(rng), random_unitary(rng)),
        cp_tensor,
        convex_combination(cp_tensor, cp_tdiag, 0.4),
        conjugate_by_unitaries(transpose, random_unitary(rng), random_unitary(rng)),
        TensorMap.scalar(ScalarPairParams(0.6, 0.55)),
        _NonUnitalChannel(np.diag([0.9, -0.9, 0.5])),  # fails the shift check: sampled w0
        clean,
    ]
    found = ks_violation_search_many(maps, cfg)
    expected = [True, False, False, False, True, True, True, False]
    assert [wit is not None for wit in found] == expected
    assert found[6].x.w0 != 0  # the sampled-w0 branch
    _assert_matches_reference(maps, found, cfg)


def test_search_many_block_bound(monkeypatch):
    sizes = []
    original = linalg.batch_min_eigenvalue

    def recording(stack):
        sizes.append(int(np.prod(np.shape(stack)[:-2])))
        return original(stack)

    monkeypatch.setattr(linalg, "batch_min_eigenvalue", recording)
    maps = _grid_maps("phi", 3)
    cfg = SampleConfig(n_samples=10000, seed=7)
    ks_violation_search_many(maps, cfg)
    n_inputs = len(classify.ks_probe_vectors()) + cfg.n_samples
    assert max(sizes) <= oracle._CHUNK
    assert sum(sizes) == len(maps) * n_inputs

    # more maps than fit one block: tiles of maps, one input per block
    sizes.clear()
    lams = np.random.default_rng(3).uniform(-1, 1, size=(oracle._CHUNK + 5, 3))
    many = [QubitChannel.diagonal(DiagonalParams(*v)) for v in lams]
    small = SampleConfig(n_samples=3, seed=7)
    found = ks_violation_search_many(many, small)
    assert max(sizes) <= oracle._CHUNK
    assert sum(sizes) == len(many) * (len(classify.ks_probe_vectors()) + 3)
    for k in (0, 1, oracle._CHUNK // 2, len(many) - 1):
        single = ks_violation_search(many[k], small)
        assert (single is None) == (found[k] is None)
        if single is not None:
            assert single.violation == found[k].violation


def test_ks_defects_match_definition(rng):
    maps = [
        QubitChannel(rng.uniform(-1, 1, size=(3, 3)) * 0.8),
        conjugate_by_unitaries(QubitChannel(np.diag([0.5, 0.3, -0.2])), random_unitary(rng),
                               random_unitary(rng)),
        _NonUnitalChannel(np.diag([0.3, 0.2, 0.1])),
    ]
    z = rng.normal(size=(6, 8))
    w0 = z[:, 0] + 1j * z[:, 1]
    w = z[:, 2:5] + 1j * z[:, 5:]
    d = ks_defects(maps, w0, w)
    assert d.shape == (6, 3, 2, 2)
    c0, cvec = star_square_coeffs(w0, w)
    for j, m in enumerate(maps):
        m_x = m.evaluate_batch(w0, w)
        direct = m.evaluate_batch(c0, cvec) - np.conj(np.swapaxes(m_x, -1, -2)) @ m_x
        assert np.max(np.abs(d[:, j] - direct)) < 1e-12
    tensor = [TensorMap.diagonal(DiagonalTensorParams(0.2, -0.1, 0.15))]
    assert ks_defects(tensor, 0.0, w).shape == (6, 1, 4, 4)
    with pytest.raises(ValueError, match="output dimension"):
        ks_defects(maps + tensor, w0, w)


class _AffineChannel:
    """Not linear: a constant 0.2 s1 is added to every output."""

    out_dim = 2

    def evaluate_batch(self, w0, w):
        w = np.asarray(w, dtype=complex) * 0.5
        w[..., 0] += 0.2
        return to_matrix_batch(w0, w)


class _NonHermitianChannel:
    """Linear but not adjoint-preserving: w -> i*w."""

    out_dim = 2

    def evaluate_batch(self, w0, w):
        return to_matrix_batch(w0, 0.5j * np.asarray(w, dtype=complex))


def test_search_guards():
    cfg = SampleConfig(n_samples=100, seed=1)
    with pytest.raises(ValueError, match="not linear"):
        ks_violation_search(_AffineChannel(), cfg)
    with pytest.raises(ValueError, match="not linear"):
        ks_violation_search_many([QubitChannel.identity(), _AffineChannel()], cfg)
    with pytest.raises(np.linalg.LinAlgError, match="Hermiticity"):
        ks_violation_search(_NonHermitianChannel(), cfg)
