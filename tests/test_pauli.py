import numpy as np
import pytest

from conftest import coeffs_close
from ksq import linalg, pauli
from ksq.pauli import PauliElement, from_matrix, star_square, tensor_to_matrix_batch, to_matrix


def random_c3(rng, n=1):
    z = rng.normal(size=(n, 6))
    return (z[:, :3] + 1j * z[:, 3:]) if n > 1 else (z[0, :3] + 1j * z[0, 3:])


def test_to_matrix_basis():
    assert np.array_equal(to_matrix(PauliElement(1.0)), np.eye(2))
    assert np.array_equal(to_matrix(PauliElement(0.0, [0, 0, 1])), np.diag([1.0, -1.0]).astype(complex))
    assert np.array_equal(
        to_matrix(PauliElement(0.0, [0, 1, 0])), np.array([[0, -1j], [1j, 0]])
    )


def test_from_matrix_fixtures():
    x = from_matrix(np.eye(2))
    assert x.w0 == 1.0 and np.allclose(x.w, 0.0)
    x = from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose([x.w0], [0.0]) and np.allclose(x.w, [0.5, 0.5j, 0.0])
    x = from_matrix(pauli.SIGMA[0] + pauli.SIGMA[2])
    assert np.allclose(x.w, [1.0, 0.0, 1.0])


def test_roundtrip(rng):
    for _ in range(200):
        x = PauliElement(complex(*rng.normal(size=2)), random_c3(rng))
        back = from_matrix(to_matrix(x))
        assert abs(back.w0 - x.w0) < 1e-14
        assert np.max(np.abs(back.w - x.w)) < 1e-14


def test_from_matrix_dimension_error():
    with pytest.raises(ValueError, match="2x2"):
        from_matrix(np.eye(3))


def test_bracket_commutator_identity(rng):
    # the bracket [u, v] = np.cross(u, v) that star_square_coeffs uses:
    # (u.s)(v.s) - (v.s)(u.s) = 2i [u, v].s, complex-bilinear
    for _ in range(50):
        u, v = random_c3(rng), random_c3(rng)
        mu = to_matrix(PauliElement(0.0, u))
        mv = to_matrix(PauliElement(0.0, v))
        lhs = mu @ mv - mv @ mu
        rhs = 2j * to_matrix(PauliElement(0.0, np.cross(u, v)))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_star_square_fixtures():
    assert coeffs_close(star_square(PauliElement(1.0)), PauliElement(1.0))
    assert coeffs_close(star_square(PauliElement(0.0, [1, 0, 0])), PauliElement(1.0))
    x = PauliElement(0.0, [0.0, 1.0, 1.0j])
    sq = star_square(x)
    assert sq.w0 == pytest.approx(2.0)
    expected_vec = -1j * np.cross(x.w, np.conj(x.w))
    assert np.allclose(sq.w, expected_vec)
    assert np.linalg.norm(sq.w) == pytest.approx(2.0)


def test_star_square_against_direct_matrices(rng):
    # the coefficient formula must reproduce adjoint(m) @ m exactly
    for _ in range(500):
        x = PauliElement(complex(*rng.normal(size=2)), random_c3(rng))
        direct = from_matrix(linalg.adjoint(to_matrix(x)) @ to_matrix(x))
        sq = star_square(x)
        assert abs(direct.w0 - sq.w0) < 1e-12
        assert np.max(np.abs(direct.w - sq.w)) < 1e-12


def test_tensor_matrix_layout():
    # the assembled 4x4 for self-adjoint coefficients, entry for entry
    w0 = 1.7
    w = np.array([0.3, 0.4, 0.5])
    r = np.array([0.6, 0.7, 0.8])
    w1, w2, w3 = w
    r1, r2, r3 = r
    expected = np.array(
        [
            [w0 + w3 + r3, w1 - 1j * w2, r1 - 1j * r2, 0],
            [w1 + 1j * w2, w0 - w3 + r3, 0, r1 - 1j * r2],
            [r1 + 1j * r2, 0, w0 + w3 - r3, w1 - 1j * w2],
            [0, r1 + 1j * r2, w1 + 1j * w2, w0 - w3 - r3],
        ]
    )
    got = tensor_to_matrix_batch(w0, w, r)
    assert np.max(np.abs(got - expected)) < 1e-15
