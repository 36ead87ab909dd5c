import numpy as np
import pytest

from ksq import oracle


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Random 2x2 unitary built from Givens rotations and phases."""
    theta = rng.uniform(0, 2 * np.pi)
    phi = rng.uniform(0, 2 * np.pi)
    alpha = rng.uniform(0, 2 * np.pi)
    beta = rng.uniform(0, 2 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    g = np.array([[c, -np.exp(1j * phi) * s], [np.exp(-1j * phi) * s, c]])
    return np.exp(1j * alpha) * g @ np.diag([np.exp(1j * beta), np.exp(-1j * beta)])


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def apply(m, x) -> np.ndarray:
    """The matrix m(x) for one PauliElement x, through m.evaluate_batch."""
    return m.evaluate_batch(np.array([x.w0]), x.w[None, :])[0]


def coeffs_close(x, y, tol: float = 1e-12) -> bool:
    """Pauli coefficients (w0, w) of x and y agree entry by entry within tol."""
    return abs(x.w0 - y.w0) <= tol and bool(np.all(np.abs(x.w - y.w) <= tol))


def no_certificates(templates, d, tol):
    """Stands in for oracle._certified: no map is certified by its KS
    operator, so every map is sampled in full."""
    p = templates.shape[1] // (d * d)
    return np.zeros(p, dtype=bool), np.full(p, np.nan)


def no_choi_certificate(basis, d, tol):
    """Stands in for oracle._choi_certified: no map is certified by its
    Choi matrix, so every positivity search samples."""
    return False


def ks_operator(m) -> np.ndarray:
    """The KS operator H of a unital map m, a (3d, 3d) matrix, as the
    oracle assembles it from its template rows."""
    return oracle._ks_operators(oracle._ks_template(m), m.out_dim)[0]
