import numpy as np
import pytest

from conftest import random_unitary
from ksq import classify, linalg
from ksq.channels import (
    FAMILIES,
    DescriptorError,
    DiagonalParams,
    DiagonalTensorParams,
    MixedMap,
    QubitChannel,
    ScalarPairParams,
    TensorMap,
    choi_matrix_qubit,
    choi_matrix_qubit_batch,
    choi_matrix_tensor,
    choi_matrix_tensor_batch,
    conjugate_by_unitaries,
    convex_combination,
    format_descriptor,
    map_for_descriptor,
    parse_descriptor,
    split_phi_psi,
)
from ksq.pauli import PauliElement, SIGMA, from_matrix, to_matrix


def random_element(rng):
    z = rng.normal(size=8)
    return PauliElement(complex(z[0], z[1]), z[2:5] + 1j * z[5:])


def tlm_choi_printed(lam, mu):
    """The scalar-family Choi matrix written out entry by entry."""
    m1, m2 = lam + mu, lam - mu
    return 0.5 * np.array(
        [
            [1 + m1, 0, 0, 0, 0, 2 * lam, 2 * mu, 0],
            [0, 1 - m2, 0, 0, 0, 0, 0, 2 * mu],
            [0, 0, 1 + m2, 0, 0, 0, 0, 2 * lam],
            [0, 0, 0, 1 - m1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1 - m1, 0, 0, 0],
            [2 * lam, 0, 0, 0, 0, 1 + m2, 0, 0],
            [2 * mu, 0, 0, 0, 0, 0, 1 - m2, 0],
            [0, 2 * mu, 2 * lam, 0, 0, 0, 0, 1 + m1],
        ],
        dtype=complex,
    )


def tdiag_choi_half_printed(l1, l2):
    """The diagonal tensor family's Choi matrix at third parameter 1/2."""
    b1, b2 = l1 + l2, l1 - l2
    return 0.5 * np.array(
        [
            [2, 0, 0, 0, 0, b1, b1, 0],
            [0, 1, 0, 0, b2, 0, 0, b1],
            [0, 0, 1, 0, b2, 0, 0, b1],
            [0, 0, 0, 0, 0, b2, b2, 0],
            [0, b2, b2, 0, 0, 0, 0, 0],
            [b1, 0, 0, b2, 0, 1, 0, 0],
            [b1, 0, 0, b2, 0, 0, 1, 0],
            [0, b1, b1, 0, 0, 0, 0, 2],
        ],
        dtype=complex,
    )


# --- qubit channels ---------------------------------------------------------


def test_identity_channel(rng):
    ch = QubitChannel.identity()
    x = random_element(rng)
    assert ch.apply(x).close_to(x)


def test_transpose_channel_is_matrix_transpose(rng):
    ch = QubitChannel.diagonal(DiagonalParams(1, -1, 1))
    s2 = PauliElement(0.0, [0, 1, 0])
    assert ch.apply(s2).close_to(PauliElement(0.0, [0, -1, 0]))
    for _ in range(20):
        x = random_element(rng)
        assert np.max(np.abs(ch.apply_matrix(x) - to_matrix(x).T)) < 1e-13


def test_trace_preservation(rng):
    ch = QubitChannel(rng.normal(size=(3, 3)))
    for _ in range(50):
        x = random_element(rng)
        assert ch.apply(x).w0 == x.w0


def test_channel_batch_matches_single(rng):
    ch = QubitChannel(rng.normal(size=(3, 3)))
    xs = [random_element(rng) for _ in range(10)]
    batch = ch.evaluate_batch(
        np.array([x.w0 for x in xs]), np.stack([x.w for x in xs])
    )
    for k, x in enumerate(xs):
        assert np.allclose(batch[k], ch.apply_matrix(x))


# --- tensor maps ------------------------------------------------------------


def test_tensor_map_unital(rng):
    m = TensorMap(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
    assert np.allclose(m.apply_matrix(PauliElement(1.0)), np.eye(4))


def test_tensor_map_zero_family(rng):
    m = TensorMap(np.zeros((3, 3)), np.zeros((3, 3)))
    x = random_element(rng)
    assert np.allclose(m.apply_matrix(x), x.w0 * np.eye(4))


def test_tensor_diag_on_e11():
    for l3 in (-0.5, -0.1, 0.3, 0.5):
        m = TensorMap.diagonal(DiagonalTensorParams(0.2, -0.4, l3))
        e11 = from_matrix(np.diag([1.0, 0.0]))
        got = m.apply_matrix(e11)
        want = 0.5 * np.diag([1 + 2 * l3, 1.0, 1.0, 1 - 2 * l3]).astype(complex)
        assert np.max(np.abs(got - want)) < 1e-15


def test_tensor_trace_preservation(rng):
    m = TensorMap(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
    for _ in range(50):
        x = random_element(rng)
        tr_in = np.trace(to_matrix(x)) / 2.0
        tr_out = np.trace(m.apply_matrix(x)) / 4.0
        assert abs(tr_in - tr_out) < 1e-13


def test_split_phi_psi_matrices(rng):
    m = TensorMap.scalar(ScalarPairParams(0.37, -0.21))
    phi, psi = split_phi_psi(m)
    assert np.allclose(phi.T, np.diag([0.74, 0.74, 0.74]))
    assert np.allclose(psi.T, np.diag([-0.42, -0.42, -0.42]))
    zero = TensorMap(np.zeros((3, 3)), np.zeros((3, 3)))
    phi0, psi0 = split_phi_psi(zero)
    x = random_element(rng)
    assert phi0.apply(x).close_to(PauliElement(x.w0))
    assert psi0.apply(x).close_to(PauliElement(x.w0))


def test_split_phi_psi_recombination(rng):
    m = TensorMap(rng.normal(size=(3, 3)) / 3, rng.normal(size=(3, 3)) / 3)
    phi, psi = split_phi_psi(m)
    eye = np.eye(2, dtype=complex)
    for _ in range(200):
        x = random_element(rng)
        direct = m.apply_matrix(x)
        recombined = 0.5 * (
            linalg.kron(eye, phi.apply_matrix(x)) + linalg.kron(psi.apply_matrix(x), eye)
        )
        assert np.max(np.abs(direct - recombined)) < 1e-13


# --- Choi matrices ----------------------------------------------------------


def test_choi_qubit_identity():
    want = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex)
    assert np.array_equal(choi_matrix_qubit(QubitChannel.identity()), want)


def test_choi_qubit_depolarizing():
    got = choi_matrix_qubit(QubitChannel.diagonal(DiagonalParams(0, 0, 0)))
    assert np.allclose(got, np.eye(4) / 2.0)


def test_choi_qubit_transpose_is_swap():
    got = choi_matrix_qubit(QubitChannel.diagonal(DiagonalParams(1, -1, 1)))
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert np.array_equal(got, swap)
    # blocks carry no 1/2 prefactor, so the negative eigenvalue sits at -1
    assert linalg.min_eigenvalue(got) == pytest.approx(-1.0)


def test_choi_tensor_zero_map():
    got = choi_matrix_tensor(TensorMap(np.zeros((3, 3)), np.zeros((3, 3))))
    assert np.allclose(got, np.eye(8) / 2.0)


def test_choi_tensor_scalar_printed(rng):
    for _ in range(25):
        lam, mu = rng.uniform(-1, 1, size=2)
        got = choi_matrix_tensor(TensorMap.scalar(ScalarPairParams(lam, mu)))
        assert np.max(np.abs(got - tlm_choi_printed(lam, mu))) < 1e-14


def test_choi_tensor_diag_half_printed(rng):
    for _ in range(25):
        l1, l2 = rng.uniform(-0.5, 0.5, size=2)
        got = choi_matrix_tensor(TensorMap.diagonal(DiagonalTensorParams(l1, l2, 0.5)))
        assert np.max(np.abs(got - tdiag_choi_half_printed(l1, l2))) < 1e-14


def test_choi_tensor_block_identities(rng):
    for _ in range(20):
        m = TensorMap(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        choi = choi_matrix_tensor(m)
        t11, t12 = choi[:4, :4], choi[:4, 4:]
        t21, t22 = choi[4:, :4], choi[4:, 4:]
        assert np.max(np.abs(t22 - (np.eye(4) - t11))) < 1e-13
        assert np.max(np.abs(t21 - t12.conj().T)) < 1e-13
        assert linalg.hermitian_deviation(choi) < 1e-13


def test_choi_batch_builders(rng):
    Ts = rng.normal(size=(5, 3, 3))
    batch = choi_matrix_qubit_batch(Ts)
    for k in range(5):
        assert np.allclose(batch[k], choi_matrix_qubit(QubitChannel(Ts[k])), atol=1e-14)
    As = rng.normal(size=(5, 3, 3))
    Cs = rng.normal(size=(5, 3, 3))
    batch = choi_matrix_tensor_batch(As, Cs)
    for k in range(5):
        assert np.allclose(batch[k], choi_matrix_tensor(TensorMap(As[k], Cs[k])), atol=1e-14)


# --- combinators ------------------------------------------------------------


def test_conjugation_identity_pair(rng):
    ch = QubitChannel(rng.normal(size=(3, 3)))
    wrapped = conjugate_by_unitaries(ch, np.eye(2), np.eye(2))
    for _ in range(20):
        x = random_element(rng)
        assert np.max(np.abs(wrapped.apply_matrix(x) - ch.apply_matrix(x))) < 1e-13


def test_conjugation_by_sigma1():
    wrapped = conjugate_by_unitaries(QubitChannel.identity(), SIGMA[0], np.eye(2))
    x = PauliElement(0.3, [0.1, -0.2, 0.5])
    want = SIGMA[0] @ to_matrix(x) @ SIGMA[0]
    assert np.max(np.abs(wrapped.apply_matrix(x) - want)) < 1e-14


def test_conjugation_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        conjugate_by_unitaries(QubitChannel.identity(), np.diag([1.0, 2.0]), np.eye(2))


def test_conjugation_preserves_ks_verdict(rng):
    from ksq.oracle import SampleConfig, ks_violation_search

    cfg = SampleConfig(n_samples=2000, seed=11)
    base = QubitChannel.diagonal(DiagonalParams(0.6, 0.5, 0.0))
    assert ks_violation_search(base, cfg) is None
    for _ in range(3):
        wrapped = conjugate_by_unitaries(base, random_unitary(rng), random_unitary(rng))
        assert ks_violation_search(wrapped, cfg) is None
    bad = QubitChannel.diagonal(DiagonalParams(1, -1, 1))
    for _ in range(3):
        wrapped = conjugate_by_unitaries(bad, random_unitary(rng), random_unitary(rng))
        wit = ks_violation_search(wrapped, cfg)
        assert wit is not None and wit.violation < -1e-3


def test_convex_combination_channels():
    a = QubitChannel.diagonal(DiagonalParams(1, 1, 1))
    b = QubitChannel.diagonal(DiagonalParams(0, 0, 0))
    assert np.allclose(convex_combination(a, b, 1.0).T, a.T)
    assert np.allclose(convex_combination(a, b, 0.5).T, np.eye(3) / 2.0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        convex_combination(a, b, 1.5)


def test_convex_combination_generic_maps(rng):
    a = TensorMap.scalar(ScalarPairParams(0.2, 0.1))
    b = TensorMap.scalar(ScalarPairParams(-0.1, 0.3))
    mix = convex_combination(a, b, 0.25)
    assert isinstance(mix, MixedMap)
    x = random_element(rng)
    want = 0.25 * a.apply_matrix(x) + 0.75 * b.apply_matrix(x)
    assert np.allclose(mix.apply_matrix(x), want)
    with pytest.raises(ValueError, match="codomain"):
        convex_combination(a, QubitChannel.identity(), 0.5)


# --- descriptors ------------------------------------------------------------


@pytest.mark.parametrize(
    "text,kind",
    [
        ("phi:0.6,0.5,0.0", "phi"),
        ("tdiag:0.1,-0.2,0.3", "tdiag"),
        ("tlm:0.5,0.5", "tlm"),
        ("tmat:" + ",".join(["0.1"] * 18), "tmat"),
    ],
)
def test_descriptor_roundtrip(text, kind):
    got_kind, params = parse_descriptor(text)
    assert got_kind == kind
    again_kind, again = parse_descriptor(format_descriptor(got_kind, params))
    assert again_kind == kind
    m1 = map_for_descriptor(got_kind, params)
    m2 = map_for_descriptor(again_kind, again)
    x = PauliElement(0.4, [0.1, 0.2, 0.3])
    assert np.allclose(m1.apply_matrix(x), m2.apply_matrix(x))


@pytest.mark.parametrize(
    "text",
    [
        "nope:1,2,3",
        "phi:1,2",
        "phi:2,0,0",
        "tdiag:0.6,0,0",
        "tlm:1",
        "tmat:1,2,3",
        "phi:a,b,c",
        "justtext",
    ],
)
def test_descriptor_errors(text):
    with pytest.raises((DescriptorError, ValueError)):
        parse_descriptor(text)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_family_table_entry(kind):
    fam = FAMILIES[kind]
    values = [float(v) for v in np.linspace(-0.4, 0.3, fam.arity)]
    got_kind, params = parse_descriptor(f"{kind}:" + ",".join(map(repr, values)))
    assert got_kind == kind
    assert [float(v) for v in fam.values(params)] == values
    again_kind, again = parse_descriptor(format_descriptor(kind, params))
    assert again_kind == kind
    assert [float(v) for v in fam.values(again)] == values
    # the Choi-stack builder agrees with the single-map Choi matrix of the map builder
    m = map_for_descriptor(kind, params)
    single = choi_matrix_qubit(m) if m.out_dim == 2 else choi_matrix_tensor(m)
    assert np.allclose(fam.choi(np.array([values]))[0], single, atol=1e-15)
    assert kind in classify.DECIDERS
    with pytest.raises(DescriptorError, match=f"needs {fam.arity} values"):
        parse_descriptor(f"{kind}:" + ",".join(["0.1"] * (fam.arity + 1)))
