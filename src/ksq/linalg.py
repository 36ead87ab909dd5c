"""Dense complex matrix kernel for matrices up to 8x8.

Adjoints, thin matrix products and Hermitian eigenvalues.
``batch_min_eigenvalue`` (closed form for 2x2, LAPACK otherwise) is the
production eigen path.  The sampling oracle calls it behind
``screen_below``, a batched LDL^H screen in real arithmetic on the
entries the elimination reads, with one floor per matrix, and sends only
the matrices that may lie below their floor to LAPACK.
``hermitian_eigenvalues`` is an in-house cyclic Jacobi iteration on the
real-symmetric embedding [[X, -Y], [Y, X]] of H = X + iY; it accepts
stacks of matrices and is only the reference solver that the spectrum
fixtures and the tests compare the fast path against.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

from .tolerances import DEFAULT, JACOBI_OFF, PAIR_GAP

MAX_DIM = 8
_JACOBI_SWEEPS = 50

# OpenBLAS runs a matrix product on the calling thread while m*n*k is small:
# up to 2**16 for complex operands, and past 2**18 for real ones
# (scipy-openblas 0.3.31).  A larger product wakes its thread pool; for the
# thin products here the hand-off costs more than the arithmetic, and it
# waits as long as the other cores are busy, so run times stop repeating.
_ONE_THREAD_MNK = 1 << 18
# BLAS sends a product of one row or one column to another kernel (gemv),
# and narrow edges of a product may take other paths too; these round
# differently.  thin_matmul slices no finer than this many rows or columns.
_MIN_SLICE = 8


def slices(n: int, step: int):
    """Slices of step items over range(n); a last slice shorter than
    _MIN_SLICE starts earlier instead, overlapping the one before it."""
    for lo in range(0, n, step):
        lo = max(0, min(lo, n - _MIN_SLICE))
        yield slice(lo, lo + step)


def thin_matmul(a, b) -> np.ndarray:
    """a @ b for a tall stack a (..., k) and a small matrix b (k, n).

    The rows of a go through BLAS in slices small enough to stay on the
    calling thread (see _ONE_THREAD_MNK).  A slice holds at least
    _MIN_SLICE rows when a has that many; for a b too wide for that, the
    columns are sliced too, in multiples of _MIN_SLICE.  With OpenBLAS an
    entry of the product then gets the same bits whether b comes alone or
    as a column block of a wider matrix, as long as a has _MIN_SLICE rows
    (the tests pin this).
    """
    a = np.asarray(a)
    dtype = np.result_type(a, b)
    b = np.ascontiguousarray(b, dtype=dtype)
    rows = a.reshape(-1, a.shape[-1])
    out = np.empty((len(rows), b.shape[1]), dtype=dtype)
    weight = 4 if np.iscomplexobj(out) else 1
    k, n = b.shape
    step, cols = _ONE_THREAD_MNK // (weight * b.size), n
    if step < _MIN_SLICE:
        step = _MIN_SLICE
        cols = max(1, _ONE_THREAD_MNK // (weight * k * step * _MIN_SLICE)) * _MIN_SLICE
    for r in slices(len(rows), step):
        for c in slices(n, cols):
            np.matmul(rows[r], b[:, c], out=out[r, c])
    return out.reshape(a.shape[:-1] + (b.shape[1],))


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[-1]} exceeds the {MAX_DIM}x{MAX_DIM} kernel limit")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    a = _as_square(a)
    return np.conj(np.swapaxes(a, -1, -2))


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


def hermitian_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix (or stack), ascending.

    H = X + iY is reduced to the real symmetric embedding
    [[X, -Y], [Y, X]], diagonalised by cyclic Jacobi rotations, and the
    doubled spectrum is collapsed by pairing adjacent sorted values.
    Raises ValueError when the input is not Hermitian within
    DEFAULT.hermiticity and LinAlgError on non-convergence.
    """
    a = _as_square(a)
    dev = float(np.max(hermitian_deviation(a)))
    if dev > DEFAULT.hermiticity:
        raise ValueError(
            f"matrix is not Hermitian: max deviation {dev:.3e} > {DEFAULT.hermiticity:.3e}"
        )
    shape = a.shape
    n = shape[-1]
    stack = a.reshape(-1, n, n)
    batch = stack.shape[0]

    emb = np.empty((batch, 2 * n, 2 * n), dtype=float)
    emb[:, :n, :n] = stack.real
    emb[:, n:, n:] = stack.real
    emb[:, :n, n:] = -stack.imag
    emb[:, n:, :n] = stack.imag
    doubled = _jacobi_symmetric(emb, JACOBI_OFF)

    pairs = doubled.reshape(batch, n, 2)
    gap = np.abs(pairs[:, :, 1] - pairs[:, :, 0])
    scale = np.maximum(1.0, np.sqrt(np.einsum("bij,bij->b", np.abs(stack), np.abs(stack))))
    if np.any(gap > PAIR_GAP * scale[:, None]):
        raise LinAlgError("doubled spectrum of the embedding failed to pair up")
    eig = pairs.mean(axis=2)
    return eig.reshape(shape[:-2] + (n,))


def min_eigenvalue(a):
    """Smallest Hermitian eigenvalue (first entry of hermitian_eigenvalues)."""
    eig = hermitian_eigenvalues(a)
    out = eig[..., 0]
    return float(out) if out.ndim == 0 else out


def batch_min_eigenvalue(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix of a Hermitian stack.

    2x2 inputs use the closed form; larger ones go to LAPACK
    (np.linalg.eigvalsh), one matrix at a time, so a matrix gets the same
    value whatever stack it comes in.  Agreement with the Jacobi solver is
    pinned by tests.
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


def screen_below(stack: np.ndarray, floor) -> np.ndarray:
    """False for each matrix of a Hermitian stack that an LDL^H screen
    certifies to have its batch_min_eigenvalue above floor, True for the
    rest and for every 2x2 matrix.  floor is a scalar or broadcasts to
    stack.shape[:-2].

    The screen eliminates stack - s*1, s = floor + margin, and a matrix
    meeting a pivot <= 0 stays a candidate.  Pivots all > 0 make it
    positive definite up to backward error (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 10).  The elimination reads only the real
    parts of the lower triangle and the imaginary parts of the strict lower
    triangle.  Those d*d entries are gathered column by column into rows of
    N reals, and the elimination runs on them in real arithmetic.  Its
    products round as real ones where numpy's complex product fuses
    multiply-adds, so its pivots may differ from a complex elimination's in
    the last bits; the margin, taken per matrix, covers either.
    """
    stack = np.asarray(stack, dtype=complex)
    d = stack.shape[-1]
    if d == 2:
        return np.ones(stack.shape[:-2], dtype=bool)
    flat = stack.reshape(-1, d, d)
    n = len(flat)
    jr, ir = np.triu_indices(d)
    ji, ii = np.triu_indices(d, 1)
    at = np.concatenate([2 * (ir * d + jr), 2 * (ii * d + ji) + 1])
    rows = np.ascontiguousarray(flat).view(float).reshape(n, -1).T[at]
    # column k: re[k] holds the real parts of rows k..d-1, im[k] the
    # imaginary parts of rows k+1..d-1
    cols = np.split(rows, np.cumsum([*range(d, 0, -1), *range(d - 1, 0, -1)]))
    re, im = cols[:d], cols[d:]
    # margin: a generous bound on the backward error of the screen plus the
    # eigenvalue error of LAPACK, both O(d u ||A||) with ||A|| <= this scale
    scale = sum(np.abs(r[0]) for r in re).reshape(stack.shape[:-2]) + d * np.abs(floor)
    shift = (floor + 16 * np.finfo(float).eps * d * scale).reshape(-1)
    candidate = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):  # inf or nan only follow a failed pivot
        for k in range(d):
            pivot = re[k][0] - shift
            candidate |= ~(pivot > 0)
            # q = c / pivot as numpy divides a complex c by a real: c * (1 / pivot)
            inv = 1.0 / pivot
            cr, ci = re[k][1:], im[k]
            qr, qi = cr * inv, ci * inv
            for m in range(d - 1 - k):
                # column j = k + 1 + m, rows i >= j: a_ij -= q_i conj(c_j)
                re[k + 1 + m] -= qr[m:] * cr[m] + qi[m:] * ci[m]
                im[k + 1 + m] -= qi[m + 1 :] * cr[m] - qr[m + 1 :] * ci[m]
    return candidate.reshape(stack.shape[:-2])

