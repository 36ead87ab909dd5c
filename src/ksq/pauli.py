"""Pauli coefficient algebra on M2(C) and its tensor square.

A 2x2 complex matrix is held as coefficients (w0, w) over the basis
{1, s1, s2, s3}; an element w0*1(x)1 + w.s(x)1 + 1(x)r.s of the 4x4
tensor square is held as (w0, w, r).  The matrix realisation places the
first tensor slot on the fast (inner) Kronecker index:

    tensor_to_matrix_batch(w0, w, r) = w0*I4 + kron(I2, w.s) + kron(r.s, I2)

which is the unique ordering reproducing the library's 4x4 and 8x8
fixture matrices entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ID2 = np.eye(2, dtype=complex)
SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def _c3(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(3)
    if not (np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag))):
        raise ValueError("coefficients must be finite")
    return v


@dataclass(frozen=True, eq=False)
class PauliElement:
    """Element of M2(C) as coefficients x = w0*1 + w.s."""

    w0: complex
    w: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=complex))

    def __post_init__(self):
        object.__setattr__(self, "w0", complex(self.w0))
        object.__setattr__(self, "w", _c3(self.w))


def to_matrix(x: PauliElement) -> np.ndarray:
    """2x2 matrix w0*1 + w1*s1 + w2*s2 + w3*s3."""
    return x.w0 * ID2 + np.einsum("k,kij->ij", x.w, SIGMA)


def to_matrix_batch(w0, w) -> np.ndarray:
    """Vectorised to_matrix for stacked coefficients w0: (...,), w: (..., 3)."""
    w0 = np.asarray(w0, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return w0[..., None, None] * ID2 + np.einsum("...k,kij->...ij", w, SIGMA)


def from_matrix(m) -> PauliElement:
    """Inverse basis expansion w0 = tr(m)/2, wk = tr(sk m)/2."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    w0 = np.trace(m) / 2.0
    w = np.einsum("kij,ji->k", SIGMA, m) / 2.0
    return PauliElement(w0, w)


def star_square_coeffs(w0, w):
    """Coefficients of x*x for stacked (w0, w).

    x*x = (|w0|^2 + ||w||^2) 1 + (w0 conj(w) + conj(w0) w - i[w, conj(w)]).s

    with the complex-bilinear bracket [u, v] = np.cross(u, v), fixed by
    (u.s)(v.s) - (v.s)(u.s) = 2i [u, v].s; no conjugation happens inside it.
    """
    w0 = np.asarray(w0, dtype=complex)
    w = np.asarray(w, dtype=complex)
    wc = np.conj(w)
    c0 = np.abs(w0) ** 2 + np.sum(np.abs(w) ** 2, axis=-1)
    cvec = w0[..., None] * wc + np.conj(w0)[..., None] * w - 1j * np.cross(w, wc)
    return c0.astype(complex), cvec


def star_square(x: PauliElement) -> PauliElement:
    """Coefficients of x*x (adjoint of x times x)."""
    c0, cvec = star_square_coeffs(x.w0, x.w)
    return PauliElement(complex(c0), cvec)


def tensor_to_matrix_batch(w0, w, r) -> np.ndarray:
    """4x4 matrices w0*I4 + kron(I2, w.s) + kron(r.s, I2) for stacked
    coefficients w0: (...,), w and r: (..., 3); see the module docstring
    for the slot convention."""
    w0 = np.asarray(w0, dtype=complex)
    wmat = to_matrix_batch(np.zeros_like(w0), w)
    rmat = to_matrix_batch(np.zeros_like(w0), r)
    out = np.zeros(w0.shape + (4, 4), dtype=complex)
    out += w0[..., None, None] * np.eye(4)
    # kron(I2, w.s): w.s repeated on the 2x2 diagonal blocks
    out[..., :2, :2] += wmat
    out[..., 2:, 2:] += wmat
    # kron(r.s, I2): entries of r.s spread over 2x2 identity blocks
    eye2 = np.eye(2)
    for i in range(2):
        for j in range(2):
            out[..., 2 * i : 2 * i + 2, 2 * j : 2 * j + 2] += rmat[..., i, j, None, None] * eye2
    return out

