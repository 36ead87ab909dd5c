import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import apply, ks_operator, no_certificates, no_choi_certificate, random_unitary
from ksq import channels, classify, linalg, oracle
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
from ksq.tolerances import DEFECT_HERMITICITY


def test_sample_config_validation():
    with pytest.raises(ValueError, match="n_samples"):
        SampleConfig(n_samples=0)
    with pytest.raises(ValueError, match="tol"):
        SampleConfig(tol=0.0)
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tol"):
            SampleConfig(tol=tol)
    with pytest.raises(ValueError, match="seed"):
        SampleConfig(seed=-1)


def test_sampler_determinism():
    a = sample_unit_sphere(5000, seed=42)
    b = sample_unit_sphere(5000, seed=42)
    assert np.array_equal(a, b)
    assert not np.allclose(a, sample_unit_sphere(5000, seed=43))
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
    ball = sample_unit_ball(5000, seed=42)
    assert np.max(np.linalg.norm(ball, axis=1)) <= 1.0


def _reference_generators(n, seed):
    """(generator, rows) per chunk of the samplers: one seed-derived substream per _CHUNK rows."""
    chunk = oracle._CHUNK
    children = np.random.SeedSequence(seed).spawn((n + chunk - 1) // chunk)
    return [(np.random.default_rng(c), min(chunk, n - i * chunk)) for i, c in enumerate(children)]


def _reference_sphere(n, seed):
    """sample_unit_sphere as it was first written: one array per chunk, then concatenated."""
    chunks = []
    for g, take in _reference_generators(n, seed):
        z = g.normal(size=(take, 6))
        w = z[:, :3] + 1j * z[:, 3:]
        w /= np.linalg.norm(w, axis=1)[:, None]
        chunks.append(w)
    return np.concatenate(chunks)


def _reference_ball(n, seed):
    """sample_unit_ball as it was first written: one array per chunk, then concatenated."""
    chunks = []
    for g, take in _reference_generators(n, seed):
        v = g.normal(size=(take, 3))
        r = g.random(take) ** (1.0 / 3.0)
        chunks.append(v / np.linalg.norm(v, axis=1)[:, None] * r[:, None])
    return np.concatenate(chunks)


@pytest.mark.parametrize("seed", [42, 8513])
def test_samplers_match_the_chunked_reference(seed):
    # the draws are pinned bit for bit on the CPU that runs the test, which
    # a stored digest could not do: numpy may round the sphere's norm with
    # fused multiply-adds, depending on the CPU
    for n in (1, 7, 8, oracle._CHUNK - 1, oracle._CHUNK, oracle._CHUNK + 1, 20000):
        sphere, ball = sample_unit_sphere(n, seed), sample_unit_ball(n, seed)
        assert sphere.shape == (n, 3) and sphere.dtype == complex
        assert ball.shape == (n, 3) and ball.dtype == float
        assert sphere.tobytes() == _reference_sphere(n, seed).tobytes()
        assert ball.tobytes() == _reference_ball(n, seed).tobytes()


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
    m_sq = apply(ch, sq)
    m_x = apply(ch, x)
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


# each demo and one line it must print
DEMO_LINES = {
    "choi_spectra": r"smallest eigenvalue -0\.0500 < 0",
    "classify_tour": r"kadison_schwarz\s+fails\s+inequality 1 violated",
    "figure1_regions": r"channel-CP but tensor-not-CP cells:\s+0\s",
    "figure2_regions": r"tensor map oracle:\s+clean",
    "oracle_witness_hunt": r"output eigenvalue -0\.100000",
}


@pytest.mark.parametrize("demo", sorted(DEMO_LINES))
def test_witness_hunt_demo_runs(demo):
    # every demo, run as a user would; the region demos write demos/output/
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    assert sorted(DEMO_LINES) == sorted(
        name[:-3] for name in os.listdir(os.path.join(root, "demos")) if name.endswith(".py")
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, os.path.join(root, "demos", demo + ".py")],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert re.search(DEMO_LINES[demo], done.stdout), done.stdout


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
    [
        ("phi", 3, (54, 0, 0)),
        ("tdiag", 3, (38, 16, 0)),
        ("tlm", 5, (29, 21, 0)),
        ("tdiag", 5, (170, 80, 0)),
    ],
)
def test_harness_counts(family, grid, counts):
    # (agree, resolved_by_oracle, discrepancies) at 10^4 samples, seed 7;
    # the harness calls DECIDERS directly, so the KS operator that
    # classify_full tries before the oracle resolves none of these points
    report = agreement_harness(family, grid, SampleConfig(n_samples=10000, seed=7))
    assert (report.agree, report.resolved_by_oracle, report.discrepancies) == counts
    assert report.details == []


def test_harness_unknown_family():
    with pytest.raises(ValueError, match="family"):
        agreement_harness("nope", 5)
    with pytest.raises(ValueError, match="family"):
        agreement_harness("tmat", 2)  # no harness box


def test_tensor_ks_without_component_ks():
    # a scalar pair whose tensor combination passes the oracle while the
    # split channel components do not: the combination genuinely carries
    # more Kadison-Schwarz room than its factors
    cfg = SampleConfig(n_samples=20000, seed=23)
    m = TensorMap.scalar(ScalarPairParams(-0.3, 0.0))
    assert ks_violation_search(m, cfg) is None
    phi = QubitChannel(2.0 * m.A)  # the channel w -> -0.6 w
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
    probes = classify.ks_probe_vectors()
    probes = probes / np.linalg.norm(probes, axis=1)[:, None]
    w = np.concatenate([probes, sample_unit_sphere(cfg.n_samples, cfg.seed)])
    w0 = np.zeros(len(w), dtype=complex)
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
        clean,
    ]
    found = ks_violation_search_many(maps, cfg)
    expected = [True, False, False, False, True, True, False]
    assert [wit is not None for wit in found] == expected
    assert all(wit.x.w0 == 0 for wit in found if wit is not None)
    _assert_matches_reference(maps, found, cfg)


def test_ks_search_takes_unital_maps_only(rng):
    # w0 = 0 leaves the defect of a unital map unchanged, and no other's
    cfg = SampleConfig(n_samples=100, seed=5)
    non_unital = _NonUnitalChannel(np.diag([0.9, -0.9, 0.5]))
    w = sample_unit_sphere(4, 1)
    with pytest.raises(ValueError, match="not unital"):
        ks_violation_search(non_unital, cfg)
    with pytest.raises(ValueError, match="not unital"):
        ks_violation_search_many([QubitChannel.identity(), non_unital], cfg)
    with pytest.raises(ValueError, match="not unital"):
        ks_defects([non_unital], w)
    # the positivity search does not need a unital map
    assert positivity_violation_search(non_unital, cfg) is None
    # conjugate_by_unitaries accepts U off unitary by up to 1e-10: such a
    # map is searched, and its witness is the exact conjugate's
    transpose = QubitChannel.diagonal(DiagonalParams(1, -1, 1))
    U, V = random_unitary(rng), random_unitary(rng)
    off = U * (1 + 1e-11)
    assert 1e-11 <= np.max(np.abs(off @ off.conj().T - np.eye(2))) <= 1e-10
    near = conjugate_by_unitaries(transpose, off, V)
    assert np.max(np.abs(oracle._basis_rows(near)[0] - np.eye(2))) >= 1e-11
    wit = ks_violation_search(near, cfg)
    exact = ks_violation_search(conjugate_by_unitaries(transpose, U, V), cfg)
    assert wit is not None and exact is not None
    assert wit.violation == pytest.approx(exact.violation, abs=1e-9)


def _recording_eigenvalues(monkeypatch, d):
    """Record the number of matrices of each batch_min_eigenvalue call: (defect
    stacks of d x d matrices, KS operator stacks of 3d x 3d ones, Choi
    stacks of 2d x 2d ones)."""
    defects, operators, chois = [], [], []
    original = linalg.batch_min_eigenvalue

    def recording(stack):
        n = int(np.prod(np.shape(stack)[:-2]))
        {3 * d: operators, 2 * d: chois}.get(np.shape(stack)[-1], defects).append(n)
        return original(stack)

    monkeypatch.setattr(linalg, "batch_min_eigenvalue", recording)
    return defects, operators, chois


def test_search_many_block_bound(monkeypatch):
    sizes, operators, _ = _recording_eigenvalues(monkeypatch, 2)
    maps = _grid_maps("phi", 3)
    cfg = SampleConfig(n_samples=10000, seed=7)
    ks_violation_search_many(maps, cfg)
    n_inputs = len(classify.ks_probe_vectors()) + cfg.n_samples
    # one KS operator per map, in one stack; 11 of the 27 maps are
    # certified by it, and only the other 16 are sampled
    assert operators == [27]
    certified, _ = oracle._certified(np.concatenate([oracle._ks_template(m) for m in maps], axis=1), 2, cfg.tol)
    assert np.count_nonzero(certified) == 11
    assert max(sizes + operators) <= oracle._CHUNK
    assert sum(sizes) == 16 * n_inputs

    # more maps than fit one block: tiles of maps, few inputs per block
    sizes.clear()
    operators.clear()
    many = _many_diagonal_maps()
    small = SampleConfig(n_samples=3, seed=7)
    found = ks_violation_search_many(many, small)
    assert operators == [oracle._TILE] * 8 + [5]
    assert max(sizes + operators) <= oracle._CHUNK
    # 2747 of the 8197 maps are certified
    assert sum(sizes) == (len(many) - 2747) * (len(classify.ks_probe_vectors()) + 3)
    for k in (0, 1, oracle._CHUNK // 2, len(many) - 1):
        single = ks_violation_search(many[k], small)
        assert (single is None) == (found[k] is None)
        if single is not None:
            assert single.violation == found[k].violation
    # wide tiles give every map the witness of its own search, bit for bit
    cfg = SampleConfig(n_samples=200, seed=7)
    found = ks_violation_search_many(many, cfg)
    for k in range(0, len(many), 97):
        assert _same_witness(found[k], ks_violation_search(many[k], cfg))


def _many_diagonal_maps():
    lams = np.random.default_rng(3).uniform(-1, 1, size=(oracle._CHUNK + 5, 3))
    return [QubitChannel.diagonal(DiagonalParams(*v)) for v in lams]


def test_monomials_once_per_chunk_of_inputs(monkeypatch):
    lengths = []
    original = oracle._monomials

    def recording(w):
        lengths.append(len(w))
        return original(w)

    monkeypatch.setattr(oracle, "_monomials", recording)
    grid = _grid_maps("phi", 3)
    # (maps, samples, maps left to sample once the KS operator has certified the rest)
    cases = ((grid[:1], 10000, 1), (grid, 10000, 16), (_many_diagonal_maps(), 200, 5450),
             ([QubitChannel.identity()], 10000, 0))
    for maps, n_samples, sampled in cases:
        lengths.clear()
        ks_violation_search_many(maps, SampleConfig(n_samples=n_samples, seed=7))
        n_inputs = len(classify.ks_probe_vectors()) + n_samples
        tiles = -(-sampled // oracle._TILE)
        assert max(lengths, default=0) <= oracle._CHUNK
        assert sum(lengths) == tiles * n_inputs
        assert len(lengths) == tiles * -(-n_inputs // oracle._CHUNK)


def test_ks_defects_match_definition(rng):
    maps = [
        QubitChannel(rng.uniform(-1, 1, size=(3, 3)) * 0.8),
        conjugate_by_unitaries(QubitChannel(np.diag([0.5, 0.3, -0.2])), random_unitary(rng),
                               random_unitary(rng)),
        convex_combination(QubitChannel(np.diag([0.3, 0.2, 0.1])), QubitChannel.identity(), 0.7),
    ]
    z = rng.normal(size=(6, 8))
    w0 = z[:, 0] + 1j * z[:, 1]
    w = z[:, 2:5] + 1j * z[:, 5:]
    d = ks_defects(maps, w)
    assert d.shape == (6, 3, 2, 2)
    # the defect at w.s is the definition's at w0*1 + w.s: the maps are unital
    c0, cvec = star_square_coeffs(w0, w)
    for j, m in enumerate(maps):
        m_x = m.evaluate_batch(w0, w)
        direct = m.evaluate_batch(c0, cvec) - np.conj(np.swapaxes(m_x, -1, -2)) @ m_x
        assert np.max(np.abs(d[:, j] - direct)) < 1e-12
    tensor = [TensorMap.diagonal(DiagonalTensorParams(0.2, -0.1, 0.15))]
    assert ks_defects(tensor, w).shape == (6, 1, 4, 4)
    with pytest.raises(ValueError, match="output dimension"):
        ks_defects(maps + tensor, w)


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


def _cp_boundary_maps(rng):
    """CP maps whose Choi matrix is singular: the corners of the CP
    tetrahedron of diagonal channels, the identity among them, conjugated
    corners, and TensorMap.diagonal(0.5, 0.5, 0.5)."""
    corners = [QubitChannel.diagonal(DiagonalParams(*c))
               for c in [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]]
    conjugated = [conjugate_by_unitaries(c, random_unitary(rng), random_unitary(rng)) for c in corners]
    return corners + conjugated + [QubitChannel.identity(), TensorMap.diagonal(DiagonalTensorParams(0.5, 0.5, 0.5))]


def test_choi_certificate_is_sound(rng):
    # every output eigenvalue of a certified map, from LAPACK, lies at or
    # above -tol/2, so the unscreened search returns None too
    cfg = SampleConfig(n_samples=3000, seed=11)
    boundary = _cp_boundary_maps(rng)
    assert all(_choi_certified(m, cfg) for m in boundary)
    certified = [m for m in _screen_test_maps(rng) + boundary if _choi_certified(m, cfg)]
    assert len(certified) > len(boundary)
    w = _ball_inputs(cfg)
    for m in certified:
        assert positivity_violation_search(m, cfg) is None
        assert _eigvalsh_positivity_search(m, cfg) is None
        assert np.min(linalg.batch_min_eigenvalue(_basis_outputs(m, w))) >= -cfg.tol / 2


def test_choi_certificate_leaves_non_cp_maps(rng, monkeypatch):
    # positive maps that are not CP, and maps that are not positive: none is
    # certified, and each search finds what it finds with the certificate out
    cfg = SampleConfig(n_samples=2000, seed=5)
    transpose = QubitChannel.diagonal(DiagonalParams(1, -1, 1))
    maps = [TensorMap.scalar(ScalarPairParams(-0.5, 0.3)), transpose,
            conjugate_by_unitaries(transpose, random_unitary(rng), random_unitary(rng)),
            TensorMap(np.diag([0.8, 0.0, 0.0]), np.diag([0.3, 0.0, 0.0])),
            TensorMap.scalar(ScalarPairParams(0.6, 0.55))]
    maps += [TensorMap.scalar(ScalarPairParams(*p)) for p in rng.uniform(-1, 1, size=(20, 2))]
    maps += [TensorMap.diagonal(DiagonalTensorParams(*p)) for p in rng.uniform(-0.5, 0.5, size=(20, 3))]
    lows = [float(classify.choi_min_eigenvalues(channels._unit_blocks(m))) for m in maps]
    non_cp = [m for m, low in zip(maps, lows) if low < 0]
    assert len(non_cp) > 15
    found = [positivity_violation_search(m, cfg) for m in non_cp]
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_choi_certified", no_choi_certificate)
        sampled = [positivity_violation_search(m, cfg) for m in non_cp]
    assert any(wit is None for wit in found) and any(wit is not None for wit in found)
    for m, wit, again in zip(non_cp, found, sampled, strict=True):
        assert not _choi_certified(m, cfg)
        assert _same_witness(wit, again)


def test_choi_matrix_matches_the_unit_blocks(rng, monkeypatch):
    # the Choi matrix that the certificate assembles from the basis rows is
    # channels._unit_blocks within rounding
    chois = []
    original = linalg.batch_min_eigenvalue

    def recording(stack):
        chois.append(np.array(stack))
        return original(stack)

    monkeypatch.setattr(linalg, "batch_min_eigenvalue", recording)
    maps = _screen_test_maps(rng) + _cp_boundary_maps(rng)
    cfg = SampleConfig(n_samples=1, seed=1)
    for m in maps:
        chois.clear()
        _choi_certified(m, cfg)
        (choi,) = chois
        assert choi.shape == (1, 2 * m.out_dim, 2 * m.out_dim)
        blocks = channels._unit_blocks(m)
        assert np.max(np.abs(choi[0] - blocks)) <= 4 * np.finfo(float).eps * max(1.0, np.max(np.abs(blocks)))


def test_search_guards():
    cfg = SampleConfig(n_samples=100, seed=1)
    with pytest.raises(ValueError, match="not linear"):
        ks_violation_search(_AffineChannel(), cfg)
    with pytest.raises(ValueError, match="not linear"):
        ks_violation_search_many([QubitChannel.identity(), _AffineChannel()], cfg)
    with pytest.raises(np.linalg.LinAlgError, match="Hermiticity"):
        ks_violation_search(_NonHermitianChannel(), cfg)
    # the positivity search contracts the same basis rows, under the same guards
    with pytest.raises(ValueError, match="not linear"):
        positivity_violation_search(_AffineChannel(), cfg)
    with pytest.raises(np.linalg.LinAlgError, match="Hermiticity"):
        positivity_violation_search(_NonHermitianChannel(), cfg)


# --- the LDL^H screen against the all-eigvalsh search ----------------------


def _eigvalsh_worst_defects(templates, d, w, tol):
    """The search loop before the screen: every defect's eigenvalue from LAPACK."""
    p = templates.shape[1] // (d * d)
    rows = oracle._CHUNK // p
    cols = np.arange(p)
    best = np.full(p, np.inf)
    arg = np.zeros(p, dtype=int)
    for lo in range(0, len(w), rows):
        mono = oracle._monomials(w[lo : lo + rows])
        eigs = linalg.batch_min_eigenvalue(oracle._defects(templates, d, mono)).real
        k = np.argmin(eigs, axis=0)
        vals = eigs[k, cols]
        better = vals < best
        best[better] = vals[better]
        arg[better] = lo + k[better]
    return best, arg


def _ball_inputs(cfg):
    """The positivity search's inputs w: the six axis points, then the ball draw."""
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    return np.concatenate([axes, sample_unit_ball(cfg.n_samples, cfg.seed)])


def _basis_outputs(map_obj, w):
    """map(1 + w.s) contracted from the basis rows, as the positivity search does."""
    d = map_obj.out_dim
    basis = np.ascontiguousarray(oracle._basis_rows(map_obj), dtype=complex).reshape(4, d * d)
    rows = np.concatenate([np.ones((len(w), 1)), w], axis=1)
    return linalg.thin_matmul(rows, basis.view(float)).view(complex).reshape(-1, d, d)


def _first_lowest(eigs, w, cfg):
    k = int(np.argmin(eigs))
    if eigs[k] < -cfg.tol:
        return Witness(PauliElement(1.0, w[k]), float(eigs[k]), "Positivity")
    return None


def _eigvalsh_positivity_search(map_obj, cfg):
    """positivity_violation_search before the screen: every output's
    eigenvalue from LAPACK, on the outputs the search screens."""
    w = _ball_inputs(cfg)
    return _first_lowest(linalg.batch_min_eigenvalue(_basis_outputs(map_obj, w)).real, w, cfg)


def _choi_certified(map_obj, cfg):
    """oracle._choi_certified on the map's basis rows, as the positivity search calls it."""
    d = map_obj.out_dim
    basis = np.ascontiguousarray(oracle._basis_rows(map_obj), dtype=complex).reshape(4, d * d)
    return oracle._choi_certified(basis, d, cfg.tol)


def _same_witness(a, b):
    if a is None or b is None:
        return a is None and b is None
    return (a.defect_kind == b.defect_kind and a.x.w0 == b.x.w0
            and a.x.w.tobytes() == b.x.w.tobytes() and a.violation == b.violation)


def _screen_test_maps(rng):
    """19 maps: tensor maps, conjugated channels and mixtures, clean and failing."""
    cp_tensor = TensorMap.scalar(ScalarPairParams(0.3, 0.2))
    wide = TensorMap.scalar(ScalarPairParams(0.6, 0.55))
    transpose = QubitChannel.diagonal(DiagonalParams(1, -1, 1))
    cp_tdiag = TensorMap.diagonal(DiagonalTensorParams(0.2, -0.1, 0.15))
    maps = [cp_tensor, wide, TensorMap(np.diag([0.8, 0.0, 0.0]), np.diag([0.3, 0.0, 0.0])),
            conjugate_by_unitaries(transpose, random_unitary(rng), random_unitary(rng)),
            conjugate_by_unitaries(QubitChannel(np.diag([0.5, 0.3, 0.2])), random_unitary(rng),
                                   random_unitary(rng)),
            convex_combination(cp_tensor, wide, 0.5),
            convex_combination(cp_tensor, cp_tdiag, 0.4)]
    return maps + [TensorMap(*rng.uniform(-0.6, 0.6, size=(2, 3, 3))) for _ in range(12)]


def test_screened_searches_match_eigvalsh_searches(rng, monkeypatch):
    maps = _screen_test_maps(rng)
    cfg = SampleConfig(n_samples=3000, seed=11)
    # the KS operator certifies some clean maps, which then skip the screen
    assert any(oracle.ks_certified(m, cfg) is not None for m in maps)
    # and the Choi matrix some CP maps, which then skip the positivity search
    assert any(_choi_certified(m, cfg) for m in maps)
    with monkeypatch.context() as patch:
        # every map sampled: clean maps pass the LDL screen in tiles with failing ones
        patch.setattr(oracle, "_certified", no_certificates)
        patch.setattr(oracle, "_choi_certified", no_choi_certificate)
        screened = [(ks_violation_search(m, cfg), positivity_violation_search(m, cfg)) for m in maps]
        together = ks_violation_search_many(maps, cfg)
    skipping = [(ks_violation_search(m, cfg), positivity_violation_search(m, cfg)) for m in maps]
    skipping_together = ks_violation_search_many(maps, cfg)
    monkeypatch.setattr(oracle, "_worst_defects", _eigvalsh_worst_defects)
    monkeypatch.setattr(oracle, "_certified", no_certificates)
    reference = [(ks_violation_search(m, cfg), _eigvalsh_positivity_search(m, cfg)) for m in maps]
    assert any(ks is not None for ks, _ in reference) and any(ks is None for ks, _ in reference)
    assert any(pos is not None for _, pos in reference) and any(pos is None for _, pos in reference)
    for (ks, pos), (ref_ks, ref_pos), many, (skip, skip_pos), skip_many in zip(
            screened, reference, together, skipping, skipping_together, strict=True):
        assert _same_witness(ks, ref_ks) and _same_witness(many, ref_ks)
        assert _same_witness(skip, ref_ks) and _same_witness(skip_many, ref_ks)
        assert _same_witness(pos, ref_pos) and _same_witness(skip_pos, ref_pos)


def test_basis_contraction_matches_evaluate_batch(rng):
    cfg = SampleConfig(n_samples=3000, seed=11)
    w = _ball_inputs(cfg)
    found = []
    for m in _screen_test_maps(rng):
        direct = m.evaluate_batch(np.ones(len(w), dtype=complex), w.astype(complex))
        scale = float(np.max(np.abs(oracle._basis_rows(m))))
        assert np.max(np.abs(_basis_outputs(m, w) - direct)) <= 1e-14 * scale
        # the unscreened search on the map's own evaluate_batch
        ref = _first_lowest(linalg.batch_min_eigenvalue(direct).real, w, cfg)
        wit = positivity_violation_search(m, cfg)
        assert (wit is None) == (ref is None)
        if wit is not None:
            assert wit.x.w0 == ref.x.w0 and wit.x.w.tobytes() == ref.x.w.tobytes()
            assert abs(wit.violation - ref.violation) <= 1e-14
        found.append(wit)
    assert any(wit is not None for wit in found) and any(wit is None for wit in found)


def test_positivity_last_chunk_starts_early(monkeypatch):
    # 6 probes and 8190 draws: the last chunk of 4 inputs starts early; the
    # worst input, planted last, keeps its index and the bits of its row
    u = np.ones(3) / np.sqrt(3)
    m = TensorMap(0.6 * np.outer(u, u), 0.6 * np.outer(u, u))
    draw = 0.5 * sample_unit_ball(8190, 3)
    draw[-1] = u
    monkeypatch.setattr(oracle, "sample_unit_ball", lambda n, seed: draw)
    cfg = SampleConfig(n_samples=len(draw), seed=3)
    wit = positivity_violation_search(m, cfg)
    assert wit.x.w.tobytes() == u.astype(complex).tobytes()
    w = np.concatenate([np.eye(3), -np.eye(3), draw])
    ref = _first_lowest(linalg.batch_min_eigenvalue(_basis_outputs(m, w)).real, w, cfg)
    assert _same_witness(wit, ref) and wit.violation == pytest.approx(-0.2, abs=1e-12)


def _tlm_oracle_maps():
    """Scalar pairs outside the paper's KS inequality and the component
    rule, all failing KS."""
    pairs = [(-0.75242916117889425, 0.12479031303383681), (-0.52807592134690418, 0.32134619804226694),
             (0.28913307428561641, -0.68495527557030877)]
    return [TensorMap.scalar(ScalarPairParams(lam, mu)) for lam, mu in pairs]


def _reference_searches(maps, cfg, monkeypatch):
    """Per-map KS searches that sample every map, with every defect's
    eigenvalue from LAPACK."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_worst_defects", _eigvalsh_worst_defects)
        patch.setattr(oracle, "_certified", no_certificates)
        return [ks_violation_search(m, cfg) for m in maps]


@pytest.mark.parametrize("case", ["wide-3-chunks", "pos-3-chunks", "tlm-oracle", "mixed-tile"])
def test_descending_floor_keeps_the_witnesses(case, monkeypatch):
    cfg = SampleConfig(n_samples=20000, seed=7)
    wide = TensorMap.scalar(ScalarPairParams(0.6, 0.55))
    clean = [TensorMap.scalar(ScalarPairParams(0.3, 0.2)),
             TensorMap.diagonal(DiagonalTensorParams(0.2, -0.1, 0.15))]
    if case == "pos-3-chunks":
        # the positivity search: later chunks are screened at the worst value so far
        assert 6 + cfg.n_samples > 2 * oracle._CHUNK
        # the first two fail at an axis point, the third at a draw of the second chunk
        u = np.ones(3) / np.sqrt(3)
        maps = [TensorMap(np.diag([0.8, 0.0, 0.0]), np.diag([0.3, 0.0, 0.0])), wide,
                TensorMap(0.6 * np.outer(u, u), 0.6 * np.outer(u, u)), clean[0]]
        # the last map is CP: its Choi matrix certifies it, unless patched out
        assert [_choi_certified(m, cfg) for m in maps] == [False, False, False, True]
        found = [positivity_violation_search(m, cfg) for m in maps]
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_choi_certified", no_choi_certificate)
            sampled = [positivity_violation_search(m, cfg) for m in maps]
        reference = [_eigvalsh_positivity_search(m, cfg) for m in maps]
        assert all(wit is not None for wit in found[:3]) and found[3] is None
        for wit, again, ref in zip(found, sampled, reference, strict=True):
            assert _same_witness(wit, ref) and _same_witness(again, ref)
        return
    if case == "wide-3-chunks":
        # every defect lies in [-0.3225426, -0.3225]: ties test the first-index rule
        maps = [wide]
        assert len(classify.ks_probe_vectors()) + cfg.n_samples > 2 * oracle._CHUNK
    elif case == "tlm-oracle":
        maps = _tlm_oracle_maps()
    else:
        # per-map floors differ within one block: -tol/2 for the clean maps
        maps = [clean[0], wide, *_tlm_oracle_maps(), clean[1], convex_combination(wide, clean[0], 0.5)]
        cfg = SampleConfig(n_samples=6000, seed=11)
    reference = _reference_searches(maps, cfg, monkeypatch)

    def search():
        return ks_violation_search_many(maps, cfg) if len(maps) > 1 else [ks_violation_search(maps[0], cfg)]

    with monkeypatch.context() as patch:
        # every map sampled: the clean maps of the mixed tile keep its floor at -tol/2
        patch.setattr(oracle, "_certified", no_certificates)
        found = search()
        alone = [ks_violation_search(m, cfg) for m in maps]
    skipping = search()
    assert any(ref is not None for ref in reference)
    for wit, skip, ref in zip(found, skipping, reference, strict=True):
        assert _same_witness(wit, ref) and _same_witness(skip, ref)
    if case == "mixed-tile":
        assert reference[0] is None and reference[1] is not None
        # both clean maps are certified: with the skip on, they leave the tile
        assert oracle.ks_certified(clean[0], cfg) is not None and oracle.ks_certified(clean[1], cfg) is not None
        for wit, single in zip(found, alone, strict=True):
            assert _same_witness(wit, single)


def test_lapack_sees_only_unscreened_defects(monkeypatch):
    sizes, operators, chois = _recording_eigenvalues(monkeypatch, 4)
    cfg = SampleConfig(n_samples=10000, seed=7)
    # the KS operator certifies the map: no defect is computed
    assert ks_violation_search(TensorMap.scalar(ScalarPairParams(0.3, 0.2)), cfg) is None
    assert sizes == [] and operators == [1]
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_certified", no_certificates)
        assert ks_violation_search(TensorMap.scalar(ScalarPairParams(0.3, 0.2)), cfg) is None
    assert sizes == []
    # the first block's pilot reaches the minimum; the rest are screened at it
    assert ks_violation_search(TensorMap.scalar(ScalarPairParams(0.6, 0.55)), cfg) is not None
    assert sizes == [oracle._PILOT, 7]
    assert max(sizes) <= oracle._CHUNK
    # failing maps that classify_full hands to the oracle
    sizes.clear()
    for m in _tlm_oracle_maps():
        assert ks_violation_search(m, SampleConfig(n_samples=20000, seed=7)) is not None
    assert sizes == [oracle._PILOT, 6, oracle._PILOT, 5, oracle._PILOT, 6]
    sizes.clear()
    stretched = TensorMap(np.diag([0.8, 0.0, 0.0]), np.diag([0.3, 0.0, 0.0]))
    assert positivity_violation_search(stretched, SampleConfig(n_samples=200000, seed=7)) is not None
    assert sizes == [oracle._PILOT]
    # one Choi matrix, which does not certify the map
    assert chois == [1]
    assert operators == [1] * 5


def test_last_block_of_a_draw_holds_eight_inputs():
    # 8193 inputs: one map takes them in blocks of 8192, three maps in 2730;
    # either way the last input, planted as the worst of map 0, comes in a
    # product of 8 rows and gets the same bits
    rng = np.random.default_rng(0)
    draw = sample_unit_sphere(8193, 5)
    for _ in range(5):
        maps = [QubitChannel.diagonal(DiagonalParams(*v)) for v in rng.uniform(-1, 1, size=(3, 3))]
        worst = np.argmin(linalg.batch_min_eigenvalue(ks_defects(maps[:1], draw))[:, 0])
        w = np.concatenate([np.delete(draw, worst, axis=0), draw[[worst]]])
        templates = [oracle._ks_template(m) for m in maps]
        vals, args = oracle._worst_defects(np.concatenate(templates, axis=1), 2, w, 1e-8)
        assert args[0] == len(w) - 1
        for j, t in enumerate(templates):
            alone = oracle._worst_defects(t, 2, w, 1e-8)
            assert alone[0][0].tobytes() == vals[j].tobytes() and alone[1][0] == args[j]


def test_template_skew_bounds_block_hermiticity(rng):
    maps = [
        TensorMap.scalar(ScalarPairParams(0.6, 0.55)),
        TensorMap(*rng.uniform(-1, 1, size=(2, 3, 3))),
        QubitChannel(rng.uniform(-1, 1, size=(3, 3))),
        conjugate_by_unitaries(QubitChannel(np.diag([0.5, 0.3, -0.2])), random_unitary(rng),
                               random_unitary(rng)),
        convex_combination(TensorMap.scalar(ScalarPairParams(0.3, 0.2)),
                           TensorMap.diagonal(DiagonalTensorParams(0.2, -0.1, 0.15)), 0.4),
        _NonHermitianChannel(),
    ]
    z = rng.normal(size=(2000, 6))
    w = z[:, :3] + 1j * z[:, 3:]
    w /= np.linalg.norm(w, axis=1)[:, None]
    mono = oracle._monomials(w)
    scale = float(np.max(np.sum(np.abs(mono), axis=1)))
    assert scale <= 1 + np.sqrt(2) <= oracle._UNIT_ROWS
    for m in maps:
        t = oracle._ks_template(m)
        defect = linalg.thin_matmul(mono, t.view(float)).view(complex)
        defect = defect.reshape(len(mono), m.out_dim, m.out_dim)
        dev = float(np.max(linalg.hermitian_deviation(defect)))
        bound = oracle._template_skew(t, m.out_dim) * scale
        assert dev <= bound
        if isinstance(m, _NonHermitianChannel):
            assert bound > DEFECT_HERMITICITY
        else:
            # unit inputs: the entry-wise check is skipped
            assert bound <= DEFECT_HERMITICITY


# --- the KS-operator skip against the search that samples every map ---------


def _search_recording_skips(maps, cfg, monkeypatch):
    """ks_violation_search_many, and the maps that _certified skipped, in
    order (the maps must all be w0-free and of one output dimension)."""
    skipped = []
    original = oracle._certified

    def recording(templates, d, tol):
        ok, low = original(templates, d, tol)
        skipped.extend(ok.tolist())
        return ok, low

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_certified", recording)
        found = ks_violation_search_many(maps, cfg)
    return found, skipped


def _near_boundary_tlm(excess):
    # lambda_min of the KS operator of tlm:0.5+e,0.5+e is about -6 e
    return TensorMap.scalar(ScalarPairParams(0.5 + excess, 0.5 + excess))


def test_skip_on_either_side_of_half_tol(monkeypatch):
    cfg = SampleConfig(n_samples=5000, seed=13)
    excess = (6e-10, 8.3e-10, 8.4e-10, 1e-9, 3e-9)
    maps = [_near_boundary_tlm(e) for e in excess]
    lows = [float(linalg.batch_min_eigenvalue(ks_operator(m))) for m in maps]
    assert lows[1] > -cfg.tol / 2 > lows[2]
    found, skipped = _search_recording_skips(maps, cfg, monkeypatch)
    assert skipped == [low >= -cfg.tol / 2 for low in lows] == [True, True, False, False, False]
    # ks_certified gives the certified maps' lambda_min(H), from the same build
    assert [oracle.ks_certified(m, cfg) for m in maps] == [low if skip else None for low, skip in zip(lows, skipped)]
    for wit, ref in zip(found, _reference_searches(maps, cfg, monkeypatch), strict=True):
        assert _same_witness(wit, ref)


def test_skip_honours_cfg_tol(monkeypatch):
    m = _near_boundary_tlm(1e-8)  # lambda_min of the KS operator about -6e-8
    for tol, skip in ((1e-6, True), (1e-8, False)):
        cfg = SampleConfig(n_samples=5000, seed=13, tol=tol)
        found, skipped = _search_recording_skips([m], cfg, monkeypatch)
        assert skipped == [skip] and (oracle.ks_certified(m, cfg) is not None) is skip
        assert _same_witness(found[0], _reference_searches([m], cfg, monkeypatch)[0])


def test_skip_margin_grows_with_the_entries(monkeypatch):
    # -tol/2 lies 3e-12 below lambda_min of the KS operator: within the
    # margin of the map scaled by 2.5 (largest template entry 7.75), not
    # within that of the map itself (largest entry 2.3)
    for scale, skip in ((1.0, True), (2.5, False)):
        m = QubitChannel(scale * np.diag([1.0, 0.5, -0.3]))
        low = float(linalg.batch_min_eigenvalue(ks_operator(m)))
        cfg = SampleConfig(n_samples=2000, seed=3, tol=2 * (3e-12 - low))
        assert low >= -cfg.tol / 2
        found, skipped = _search_recording_skips([m], cfg, monkeypatch)
        assert skipped == [skip]
        assert _same_witness(found[0], _reference_searches([m], cfg, monkeypatch)[0])


def test_no_draw_when_every_map_is_certified(monkeypatch):
    draws = []
    original = oracle.sample_unit_sphere

    def recording(n, seed):
        draws.append(n)
        return original(n, seed)

    monkeypatch.setattr(oracle, "sample_unit_sphere", recording)
    cfg = SampleConfig(n_samples=4000, seed=5)
    clean = [TensorMap.scalar(ScalarPairParams(0.3, 0.2)),
             TensorMap.diagonal(DiagonalTensorParams(0.2, -0.1, 0.15)), QubitChannel.identity()]
    assert ks_violation_search_many(clean, cfg) == [None] * 3
    assert ks_violation_search(clean[0], cfg) is None
    assert draws == []
    found = ks_violation_search_many(clean + [QubitChannel.diagonal(DiagonalParams(1, -1, 1))], cfg)
    assert found[:3] == [None] * 3 and found[3] is not None
    assert draws == [cfg.n_samples]


def test_criterion_7_certified_maps_clean_when_sampled(monkeypatch):
    from ksq.cli import ScanSpec, scan_flags

    spec = ScanSpec.for_figure("fig2", 401)
    _, ks_suff, comps = (f.astype(bool) for f in scan_flags(spec)[:3])
    X, Y = np.meshgrid(spec.xs(), spec.ys(), indexing="xy")
    outside = ks_suff & ~comps
    pick = np.random.default_rng(2016).choice(np.count_nonzero(outside), size=120, replace=False)
    maps = [TensorMap.scalar(ScalarPairParams(float(lam), float(mu)))
            for lam, mu in zip(X[outside][pick], Y[outside][pick])]
    cfg = SampleConfig(n_samples=10000, seed=7, tol=1e-8)
    found, skipped = _search_recording_skips(maps, cfg, monkeypatch)
    certified = [m for m, ok in zip(maps, skipped) if ok][:24]
    assert len(certified) == 24 and not any(found)
    monkeypatch.setattr(oracle, "_worst_defects", _eigvalsh_worst_defects)
    monkeypatch.setattr(oracle, "_certified", no_certificates)
    assert ks_violation_search_many(certified, cfg) == [None] * len(certified)


class _SlightlyNonHermitianChannel:
    """w -> 0.3 (1 + 1e-10 i) w: KS operator far above 0, defects 1e-11 off Hermitian."""

    out_dim = 2

    def evaluate_batch(self, w0, w):
        return to_matrix_batch(w0, 0.3 * (1 + 1e-10j) * np.asarray(w, dtype=complex))


def test_skip_keeps_the_hermiticity_guard():
    # the KS operator alone would certify the map; its template skew,
    # beyond the guard of _defects, keeps it in the search
    m = _SlightlyNonHermitianChannel()
    t = oracle._ks_template(m)
    assert float(linalg.batch_min_eigenvalue(ks_operator(m))) > 0.5
    assert oracle._template_skew(t, 2)[0] * oracle._UNIT_ROWS > DEFECT_HERMITICITY
    assert not oracle._certified(t, 2, 1e-8)[0][0]
    with pytest.raises(np.linalg.LinAlgError, match="Hermiticity"):
        ks_violation_search_many([QubitChannel.identity(), m], SampleConfig(n_samples=100, seed=1))
