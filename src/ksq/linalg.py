"""Dense complex matrix kernel for matrices up to 8x8.

Adjoints, Kronecker products, thin matrix products and Hermitian
eigenvalues.  Two spectral
routines live here.  ``batch_min_eigenvalue`` (closed form for 2x2,
LAPACK otherwise) is the production path: the sampling oracle, the KS
defect of a single input, the numeric Choi test, the agreement harness
and the scan re-checks use it.  ``hermitian_eigenvalues`` is an in-house
cyclic Jacobi iteration on the real-symmetric embedding [[X, -Y], [Y, X]]
of H = X + iY; it accepts stacks of matrices and is only the reference
solver that the spectrum fixtures and the tests compare the fast path
against.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

from .tolerances import DEFAULT

MAX_DIM = 8
_JACOBI_SWEEPS = 50

# OpenBLAS runs a matrix product on the calling thread while m*n*k is small:
# up to 2**16 for complex operands, and past 2**18 for real ones
# (scipy-openblas 0.3.31).  A larger product wakes its thread pool; for the
# thin products here the hand-off costs more than the arithmetic, and it
# waits as long as the other cores are busy, so run times stop repeating.
_ONE_THREAD_MNK = 1 << 18


def thin_matmul(a, b) -> np.ndarray:
    """a @ b for a tall stack a (..., k) and a small matrix b (k, n).

    The rows of a go through BLAS in slices small enough to stay on the
    calling thread (see _ONE_THREAD_MNK).
    """
    a = np.asarray(a)
    dtype = np.result_type(a, b)
    b = np.ascontiguousarray(b, dtype=dtype)
    rows = a.reshape(-1, a.shape[-1])
    out = np.empty((len(rows), b.shape[1]), dtype=dtype)
    weight = 4 if np.iscomplexobj(out) else 1
    step = max(1, _ONE_THREAD_MNK // (weight * b.size))
    for lo in range(0, len(rows), step):
        np.matmul(rows[lo : lo + step], b, out=out[lo : lo + step])
    return out.reshape(a.shape[:-1] + (b.shape[1],))


def _as_square(a, max_dim: int = MAX_DIM) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] > max_dim:
        raise ValueError(f"dimension {a.shape[-1]} exceeds the {max_dim}x{max_dim} kernel limit")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    a = _as_square(a)
    return np.conj(np.swapaxes(a, -1, -2))


def kron(a, b) -> np.ndarray:
    """Kronecker product with row-major blocks.

    Entry ((i*db + k), (j*db + l)) equals a[i, j] * b[k, l].  The result
    dimension must stay within the 8x8 kernel limit.
    """
    a = _as_square(a)
    b = _as_square(b)
    if a.shape[-1] * b.shape[-1] > MAX_DIM:
        raise ValueError("Kronecker product exceeds the 8x8 kernel limit")
    return np.kron(a, b)


def hermitian_deviation(a):
    """Max-entry distance from a to its adjoint; one value per matrix of a stack."""
    a = np.asarray(a, dtype=complex)
    dev = np.max(np.abs(a - np.conj(np.swapaxes(a, -1, -2))), axis=(-2, -1))
    return float(dev) if dev.ndim == 0 else dev


def _jacobi_symmetric(mats: np.ndarray, off_rel: float) -> np.ndarray:
    """Cyclic Jacobi on a stack (B, m, m) of real symmetric matrices.

    Sweeps until the off-diagonal Frobenius mass of every matrix drops
    below off_rel times its Frobenius norm; raises LinAlgError if the
    sweep budget is exhausted.  Returns the eigenvalues, ascending.
    """
    a = np.array(mats, dtype=float)
    batch, m, _ = a.shape
    scale = np.sqrt(np.einsum("bij,bij->b", a, a))
    target = off_rel * scale
    off_mask = 1.0 - np.eye(m)

    for sweep in range(_JACOBI_SWEEPS + 1):
        # summed directly over off-diagonal entries; a total-minus-diagonal
        # difference would cancel catastrophically near convergence
        off2 = np.einsum("bij,bij,ij->b", a, a, off_mask)
        if np.all(np.sqrt(np.clip(off2, 0.0, None)) <= target):
            break
        if sweep == _JACOBI_SWEEPS:
            raise LinAlgError(f"Jacobi sweep budget ({_JACOBI_SWEEPS}) exhausted")
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[:, p, q]
                rotate = np.abs(apq) > 0.0
                if not rotate.any():
                    continue
                app = a[:, p, p]
                aqq = a[:, q, q]
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    tau = np.where(rotate, (aqq - app) / (2.0 * np.where(rotate, apq, 1.0)), 0.0)
                    t = np.where(
                        tau >= 0.0,
                        1.0 / (tau + np.sqrt(1.0 + tau * tau)),
                        -1.0 / (-tau + np.sqrt(1.0 + tau * tau)),
                    )
                t = np.where(rotate, t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = a[:, p, :].copy()
                rq = a[:, q, :].copy()
                a[:, p, :] = c[:, None] * rp - s[:, None] * rq
                a[:, q, :] = s[:, None] * rp + c[:, None] * rq
                cp_ = a[:, :, p].copy()
                cq = a[:, :, q].copy()
                a[:, :, p] = c[:, None] * cp_ - s[:, None] * cq
                a[:, :, q] = s[:, None] * cp_ + c[:, None] * cq
                a[:, p, q] = np.where(rotate, 0.0, a[:, p, q])
                a[:, q, p] = a[:, p, q]
    eig = np.einsum("bii->bi", a).copy()
    eig.sort(axis=1)
    return eig


def hermitian_eigenvalues(a, herm_tol: float = DEFAULT.hermiticity) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix (or stack), ascending.

    H = X + iY is reduced to the real symmetric embedding
    [[X, -Y], [Y, X]], diagonalised by cyclic Jacobi rotations, and the
    doubled spectrum is collapsed by pairing adjacent sorted values.
    Raises ValueError when the input is not Hermitian within herm_tol
    and LinAlgError on non-convergence.
    """
    a = _as_square(a)
    dev = float(np.max(hermitian_deviation(a)))
    if dev > herm_tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} > {herm_tol:.3e}")
    shape = a.shape
    n = shape[-1]
    stack = a.reshape(-1, n, n)
    batch = stack.shape[0]

    emb = np.empty((batch, 2 * n, 2 * n), dtype=float)
    emb[:, :n, :n] = stack.real
    emb[:, n:, n:] = stack.real
    emb[:, :n, n:] = -stack.imag
    emb[:, n:, :n] = stack.imag
    doubled = _jacobi_symmetric(emb, DEFAULT.jacobi_off)

    pairs = doubled.reshape(batch, n, 2)
    gap = np.abs(pairs[:, :, 1] - pairs[:, :, 0])
    scale = np.maximum(1.0, np.sqrt(np.einsum("bij,bij->b", np.abs(stack), np.abs(stack))))
    if np.any(gap > DEFAULT.pair_gap * scale[:, None]):
        raise LinAlgError("doubled spectrum of the embedding failed to pair up")
    eig = pairs.mean(axis=2)
    return eig.reshape(shape[:-2] + (n,))


def min_eigenvalue(a, herm_tol: float = DEFAULT.hermiticity):
    """Smallest Hermitian eigenvalue (first entry of hermitian_eigenvalues)."""
    eig = hermitian_eigenvalues(a, herm_tol=herm_tol)
    out = eig[..., 0]
    return float(out) if out.ndim == 0 else out


def batch_min_eigenvalue(stack: np.ndarray) -> np.ndarray:
    """Fast smallest-eigenvalue path for bulk Hermitian stacks.

    2x2 inputs use the closed form; larger ones fall back to LAPACK
    (np.linalg.eigvalsh).  Used by the sampling oracle where millions of
    small defect matrices are scanned, by the single-input KS defect and
    by the numeric Choi test; agreement with the Jacobi solver is pinned
    by tests.
    """
    stack = np.asarray(stack, dtype=complex)
    n = stack.shape[-1]
    if n == 2:
        a = stack[..., 0, 0].real
        d = stack[..., 1, 1].real
        b = stack[..., 0, 1]
        half_tr = 0.5 * (a + d)
        rad = np.sqrt(0.25 * (a - d) ** 2 + np.abs(b) ** 2)
        return half_tr - rad
    return np.linalg.eigvalsh(stack)[..., 0]
