import numpy as np
import pytest
from numpy.linalg import LinAlgError

from conftest import random_hermitian, random_unitary
from ksq import linalg
from ksq.pauli import SIGMA

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
S1, S2, S3 = SIGMA


def test_mat_mul_pauli_relation():
    assert np.allclose(S1 @ S2, 1j * S3, atol=1e-15)


def test_mat_mul_adjoint_antihomomorphism(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    left = linalg.adjoint(a @ b)
    right = linalg.adjoint(b) @ linalg.adjoint(a)
    assert np.max(np.abs(left - right)) < 1e-14


def test_adjoint_hermitian_fixed_points():
    assert np.array_equal(linalg.adjoint(S2), S2)
    assert np.array_equal(linalg.adjoint(np.diag([1j, -1j])), np.diag([-1j, 1j]))


def test_adjoint_involution(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(linalg.adjoint(linalg.adjoint(a)), a)


def test_kron_identities():
    assert np.array_equal(linalg.kron(I2, I2), I4)
    assert np.array_equal(linalg.kron(S3, I2), np.diag([1, 1, -1, -1.0]).astype(complex))


def test_kron_mixed_product(rng):
    a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
    lhs = linalg.kron(a, b) @ linalg.kron(c, d)
    rhs = linalg.kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_kron_adjoint(rng):
    a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
    assert np.allclose(linalg.adjoint(linalg.kron(a, b)), linalg.kron(linalg.adjoint(a), linalg.adjoint(b)))


def test_kron_size_limit():
    with pytest.raises(ValueError, match="8x8"):
        linalg.kron(I4, I4)


def test_eigenvalues_identity():
    assert np.allclose(linalg.hermitian_eigenvalues(I4), [1, 1, 1, 1])


def test_eigenvalues_tensor_element_fixture():
    # w0 = 1 with coefficient norms 0.3 and 0.4: spectrum {1 +- 0.3 +- 0.4}
    w = np.array([0.3, 0.0, 0.0])
    r = np.array([0.0, 0.4, 0.0])
    m = I4 + linalg.kron(I2, np.einsum("k,kij->ij", w, SIGMA)) + linalg.kron(
        np.einsum("k,kij->ij", r, SIGMA), I2
    )
    assert np.allclose(linalg.hermitian_eigenvalues(m), [0.3, 0.9, 1.1, 1.7], atol=1e-12)


def test_min_eigenvalue_fixtures():
    assert linalg.min_eigenvalue(I2) == pytest.approx(1.0)
    assert linalg.min_eigenvalue(S3) == pytest.approx(-1.0)
    assert linalg.min_eigenvalue(np.diag([0.5, 0.0, 0.0, -0.2]).astype(complex)) == pytest.approx(-0.2)


def test_non_hermitian_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.hermitian_eigenvalues(bad)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_trace_and_frobenius_sums(rng, n):
    for _ in range(20):
        h = random_hermitian(rng, n)
        eig = linalg.hermitian_eigenvalues(h)
        assert abs(eig.sum() - np.trace(h).real) < 1e-10
        assert abs((eig**2).sum() - np.sum(np.abs(h) ** 2)) < 1e-9


def test_unitary_invariance(rng):
    for _ in range(20):
        h = random_hermitian(rng, 2)
        u = random_unitary(rng)
        before = linalg.hermitian_eigenvalues(h)
        after = linalg.hermitian_eigenvalues(u @ h @ u.conj().T)
        assert np.max(np.abs(before - after)) < 1e-9


@pytest.mark.parametrize("n", [2, 4, 8])
def test_agreement_with_lapack(rng, n):
    for _ in range(25):
        h = random_hermitian(rng, n)
        mine = linalg.hermitian_eigenvalues(h)
        ref = np.linalg.eigvalsh(h)
        assert np.max(np.abs(mine - ref)) < 1e-10 * max(1.0, np.abs(ref).max())


def test_stacked_input(rng):
    stack = np.array([random_hermitian(rng, 4) for _ in range(6)])
    eig = linalg.hermitian_eigenvalues(stack)
    assert eig.shape == (6, 4)
    for k in range(6):
        assert np.allclose(eig[k], linalg.hermitian_eigenvalues(stack[k]))


def test_batch_min_eigenvalue_matches_jacobi(rng):
    for n in (2, 4):
        stack = np.array([random_hermitian(rng, n) for _ in range(8)])
        fast = linalg.batch_min_eigenvalue(stack)
        slow = np.array([linalg.min_eigenvalue(m) for m in stack])
        assert np.max(np.abs(fast - slow)) < 1e-10


def test_zero_matrix():
    assert np.allclose(linalg.hermitian_eigenvalues(np.zeros((3, 3), dtype=complex)), 0.0)


@pytest.mark.parametrize("complex_a", [False, True])
@pytest.mark.parametrize("shape, k, n", [((9000,), 3, 3), ((7, 1300), 3, 3), ((8192,), 20, 32), ((5,), 20, 864)])
def test_thin_matmul_matches_matmul_in_one_thread_slices(rng, monkeypatch, complex_a, shape, k, n):
    a = rng.normal(size=shape + (k,))
    if complex_a:
        a = a + 1j * rng.normal(size=a.shape)
    b = rng.normal(size=(k, n))
    expected = a @ b
    products = []
    matmul = np.matmul

    def recording(x, y, **kw):
        products.append((x.shape[0] * y.size, np.iscomplexobj(x) or np.iscomplexobj(y)))
        return matmul(x, y, **kw)

    monkeypatch.setattr(np, "matmul", recording)
    got = linalg.thin_matmul(a, b)
    monkeypatch.undo()
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.allclose(got, expected, rtol=1e-13, atol=1e-12)
    assert all(mnk * (4 if cplx else 1) <= linalg._ONE_THREAD_MNK for mnk, cplx in products)
