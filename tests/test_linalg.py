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


def test_eigenvalues_identity():
    assert np.allclose(linalg.hermitian_eigenvalues(I4), [1, 1, 1, 1])


def test_eigenvalues_tensor_element_fixture():
    # w0 = 1 with coefficient norms 0.3 and 0.4: spectrum {1 +- 0.3 +- 0.4}
    w = np.array([0.3, 0.0, 0.0])
    r = np.array([0.0, 0.4, 0.0])
    m = I4 + np.kron(I2, np.einsum("k,kij->ij", w, SIGMA)) + np.kron(
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


def test_thin_matmul_entries_do_not_depend_on_the_slicing(rng):
    # the oracle contracts one map alone or as a column block of many maps,
    # on blocks of any height >= 8; every entry must get the same bits
    a = rng.normal(size=(300, 20))
    wide = rng.normal(size=(20, 32 * 1024))
    full = linalg.thin_matmul(a, wide)
    for lo in (0, 32 * 511, 32 * 1023):
        assert np.array_equal(linalg.thin_matmul(a, wide[:, lo : lo + 32]), full[:, lo : lo + 32])
    for rows in (slice(0, 8), slice(100, 109), slice(290, 300)):
        assert np.array_equal(linalg.thin_matmul(a[rows], wide), full[rows])
    # a tall product whose last row slice would hold one row
    tall = rng.normal(size=(409 * 3 + 1, 20))
    narrow = wide[:, :32]
    assert np.array_equal(linalg.thin_matmul(tall, narrow)[-8:], linalg.thin_matmul(tall[-8:], narrow))


def _min_eigenvalue_below(stack, floor):
    """batch_min_eigenvalue where screen_below keeps a matrix as a candidate, +inf elsewhere."""
    candidate = linalg.screen_below(stack, floor)
    out = np.full(candidate.shape, np.inf)
    if candidate.any():
        out[candidate] = linalg.batch_min_eigenvalue(np.asarray(stack, dtype=complex)[candidate])
    return out


def _complex_min_eigenvalue_below(stack, floor):
    """_min_eigenvalue_below as it was with a complex (d, d, N) elimination copy."""
    stack = np.asarray(stack, dtype=complex)
    d = stack.shape[-1]
    flat = stack.reshape(-1, d, d)
    a = np.moveaxis(flat, 0, -1).copy()
    scale = np.abs(np.einsum("iin->in", a.real)).sum(axis=0) + d * abs(floor)
    shift = floor + 16 * np.finfo(float).eps * d * scale
    candidate = np.zeros(len(flat), dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(d):
            pivot = a[k, k].real - shift
            candidate |= ~(pivot > 0)
            col = a[k + 1 :, k]
            for i in range(k + 1, d):
                a[i, k + 1 : i + 1] -= col[i - k - 1] / pivot * np.conj(col[: i - k])
    out = np.full(len(flat), np.inf)
    if candidate.any():
        out[candidate] = linalg.batch_min_eigenvalue(flat[candidate])
    return out.reshape(stack.shape[:-2])


def _planted_stack(rng, d, lows):
    """Hermitian U diag(lam) U* with the smallest eigenvalue of each matrix planted."""
    z = rng.normal(size=(len(lows), d, d)) + 1j * rng.normal(size=(len(lows), d, d))
    u = np.linalg.qr(z)[0]
    lam = np.asarray(lows)[:, None] + np.abs(rng.normal(size=(len(lows), d)))
    lam[:, 0] = lows
    return (u * lam[:, None, :]) @ np.conj(np.swapaxes(u, -1, -2))


@pytest.mark.parametrize("d", [3, 4, 8])
@pytest.mark.parametrize("floor", [-5e-9, -0.25, 0.0, 0.3])
def test_min_eigenvalue_below_is_exact_at_and_below_floor(rng, d, floor):
    n = 400
    lows = np.concatenate([
        floor * (1 + 1e-6) + np.zeros(n), floor * (1 - 1e-6) + np.zeros(n), np.zeros(n),
        floor + rng.normal(size=n) * 10.0 ** rng.uniform(-12, 0, size=n),
    ])
    stack = _planted_stack(rng, d, lows)
    # exact rank deficiency: Z Z* with Z of rank d - 1
    z = rng.normal(size=(n, d, d - 1)) + 1j * rng.normal(size=(n, d, d - 1))
    stack = np.concatenate([stack, z @ np.conj(np.swapaxes(z, -1, -2)), [random_hermitian(rng, d)]])
    exact = linalg.batch_min_eigenvalue(stack)
    got = _min_eigenvalue_below(stack, floor)
    low = exact <= floor
    assert low.any() and (~low).any()
    assert np.array_equal(got[low], exact[low])
    finite = np.isfinite(got)
    assert np.array_equal(got[finite], exact[finite])
    assert np.all(got[~finite] == np.inf)
    assert np.array_equal(got, _complex_min_eigenvalue_below(stack, floor))
    # stacked shapes come back in the same shape
    again = _min_eigenvalue_below(stack[:-1].reshape(-1, 4, d, d), floor)
    assert np.array_equal(again.reshape(-1), got[:-1])


@pytest.mark.parametrize("d", [3, 4, 8])
def test_min_eigenvalue_below_takes_one_floor_per_matrix(rng, d):
    n = 300
    lows = rng.uniform(-1, 1, size=n) * 10.0 ** rng.uniform(-9, 0, size=n)
    stack = _planted_stack(rng, d, lows)
    # exact rank deficiency, with floors at and about its zero eigenvalue
    z = rng.normal(size=(n, d, d - 1)) + 1j * rng.normal(size=(n, d, d - 1))
    stack = np.concatenate([stack, z @ np.conj(np.swapaxes(z, -1, -2))])
    floors = np.concatenate([lows * np.where(np.arange(n) % 2, 1 + 1e-6, 1 - 1e-6),
                             rng.choice([0.0, -5e-9, 1e-12], size=n)])
    got = _min_eigenvalue_below(stack, floors)
    one_by_one = [_min_eigenvalue_below(a[None], f)[0] for a, f in zip(stack, floors)]
    assert np.array_equal(got, one_by_one)
    assert np.isfinite(got).any() and np.isinf(got).any()
    # a floor per map of a (inputs, maps) stack broadcasts over the inputs
    per_map = stack.reshape(-1, 4, d, d)
    got = _min_eigenvalue_below(per_map, floors[:4])
    one_by_one = [_min_eigenvalue_below(per_map[:, j], f) for j, f in enumerate(floors[:4])]
    assert np.array_equal(got, np.stack(one_by_one, axis=1))


def test_min_eigenvalue_below_certifies_positive_definite(rng):
    z = rng.normal(size=(500, 4, 4)) + 1j * rng.normal(size=(500, 4, 4))
    stack = z @ np.conj(np.swapaxes(z, -1, -2)) + 1e-3 * np.eye(4)
    assert np.all(_min_eigenvalue_below(stack, -5e-9) == np.inf)
    assert np.all(np.isfinite(_min_eigenvalue_below(-stack, -5e-9)))


@pytest.mark.parametrize("d", [3, 4, 8])
def test_min_eigenvalue_below_matches_the_complex_screen(rng, monkeypatch, d):
    z = rng.normal(size=(300, d, d)) + 1j * rng.normal(size=(300, d, d))
    definite = z @ np.conj(np.swapaxes(z, -1, -2)) + 1e-3 * np.eye(d)
    # no candidate, then every matrix a candidate
    for stack in (definite, -definite):
        got = _min_eigenvalue_below(stack, -5e-9)
        assert np.array_equal(got, _complex_min_eigenvalue_below(stack, -5e-9))
    assert np.all(np.isfinite(got))
    # NaN pivots, first and last, in a certified block; LAPACK may reject a
    # NaN matrix, so a stand-in marks what reaches it
    nan_pivot = definite.copy()
    nan_pivot[[7, 100], [0, d - 1], [0, d - 1]] = np.nan
    monkeypatch.setattr(linalg, "batch_min_eigenvalue", lambda s: np.arange(len(s), dtype=float))
    got = _min_eigenvalue_below(nan_pivot, -5e-9)
    assert np.array_equal(got, _complex_min_eigenvalue_below(nan_pivot, -5e-9))
    assert np.array_equal(np.flatnonzero(np.isfinite(got)), [7, 100])


def test_min_eigenvalue_below_2x2_is_the_closed_form(rng):
    stack = np.array([random_hermitian(rng, 2) for _ in range(50)]).reshape(5, 10, 2, 2)
    closed_form = linalg.batch_min_eigenvalue(stack)
    assert np.array_equal(_min_eigenvalue_below(stack, -5e-9), closed_form)
