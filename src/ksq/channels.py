"""Map families on M2(C): qubit channels, tensor-square maps, Choi matrices.

A bistochastic qubit channel is a real 3x3 matrix T acting on Pauli
coefficients, (w0, w) -> (w0, T w).  A unital trace-preserving map into
the tensor square is a pair (A, C) of real 3x3 matrices acting as
(w0, w) -> w0*1(x)1 + Aw.s(x)1 + 1(x)Cw.s.  Every map object exposes

    out_dim                          2 or 4
    evaluate_batch(w0, w) -> (N, d, d)

so the sampling oracle can consume channels, tensor maps and the closure
combinators (unitary conjugation, convex mixing) uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import pauli
from .linalg import adjoint, thin_matmul
from .pauli import ID2, PauliElement, from_matrix, to_matrix, to_matrix_batch
from .tolerances import DEFAULT


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalParams:
    """Diagonal qubit-channel family, |lam_k| <= 1."""

    lam1: float
    lam2: float
    lam3: float

    def __post_init__(self):
        for v in (self.lam1, self.lam2, self.lam3):
            if not np.isfinite(v) or abs(v) > 1.0 + DEFAULT.boundary:
                raise ValueError(f"diagonal channel parameters must lie in [-1, 1], got {v}")

    def as_array(self) -> np.ndarray:
        return np.array([self.lam1, self.lam2, self.lam3], dtype=float)


@dataclass(frozen=True)
class DiagonalTensorParams:
    """Diagonal tensor family T_(lam1, lam2, lam3), |lam_k| <= 1/2."""

    lam1: float
    lam2: float
    lam3: float

    def __post_init__(self):
        for v in (self.lam1, self.lam2, self.lam3):
            if not np.isfinite(v) or abs(v) > 0.5 + DEFAULT.boundary:
                raise ValueError(f"diagonal tensor parameters must lie in [-1/2, 1/2], got {v}")

    def as_array(self) -> np.ndarray:
        return np.array([self.lam1, self.lam2, self.lam3], dtype=float)


@dataclass(frozen=True)
class ScalarPairParams:
    """Scalar tensor family T_(lam, mu): A = lam*1, C = mu*1.

    Any reals are admitted; the classifiers decide membership in the
    positive / KS / CP regions.
    """

    lam: float
    mu: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and np.isfinite(self.mu)):
            raise ValueError("scalar pair parameters must be finite")


def _real33(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"{name} must be a real 3x3 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must have finite entries")
    return m


# ---------------------------------------------------------------------------
# map families
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QubitChannel:
    """Bistochastic channel (w0, w) -> (w0, T w) with real T."""

    T: np.ndarray
    out_dim: int = 2

    def __post_init__(self):
        object.__setattr__(self, "T", _real33(self.T, "T"))

    @classmethod
    def identity(cls) -> "QubitChannel":
        return cls(np.eye(3))

    @classmethod
    def diagonal(cls, p: DiagonalParams) -> "QubitChannel":
        return cls(np.diag(p.as_array()))

    def apply(self, x: PauliElement) -> PauliElement:
        return PauliElement(x.w0, self.T @ x.w)

    def apply_matrix(self, x: PauliElement) -> np.ndarray:
        return to_matrix(self.apply(x))

    def evaluate_batch(self, w0, w) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        return to_matrix_batch(w0, thin_matmul(w, self.T.T))


@dataclass(frozen=True, eq=False)
class TensorMap:
    """Map into the tensor square, (w0, w) -> w0*I4 + Aw.s(x)1 + 1(x)Cw.s."""

    A: np.ndarray
    C: np.ndarray
    out_dim: int = 4

    def __post_init__(self):
        object.__setattr__(self, "A", _real33(self.A, "A"))
        object.__setattr__(self, "C", _real33(self.C, "C"))

    @classmethod
    def diagonal(cls, p: DiagonalTensorParams) -> "TensorMap":
        d = np.diag(p.as_array())
        return cls(d, d)

    @classmethod
    def scalar(cls, p: ScalarPairParams) -> "TensorMap":
        return cls(p.lam * np.eye(3), p.mu * np.eye(3))

    def apply_matrix(self, x: PauliElement) -> np.ndarray:
        return pauli.tensor_to_matrix_batch(x.w0, self.A @ x.w, self.C @ x.w)

    def evaluate_batch(self, w0, w) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        return pauli.tensor_to_matrix_batch(w0, thin_matmul(w, self.A.T), thin_matmul(w, self.C.T))


def split_phi_psi(m: TensorMap) -> tuple[QubitChannel, QubitChannel]:
    """The two qubit channels with T-matrices 2A and 2C.

    They recombine as T(x) = (kron(I, Phi(x)) + kron(Psi(x), I)) / 2 under
    the library's tensor-slot convention (Phi on the fast index).
    """
    return QubitChannel(2.0 * m.A), QubitChannel(2.0 * m.C)


# ---------------------------------------------------------------------------
# Choi matrices: blocks of the map applied to matrix units
# ---------------------------------------------------------------------------

_E = [[np.zeros((2, 2), dtype=complex) for _ in range(2)] for _ in range(2)]
for _i in range(2):
    for _j in range(2):
        _E[_i][_j][_i, _j] = 1.0


def choi_matrix_qubit(ch: QubitChannel) -> np.ndarray:
    """4x4 block matrix [[Phi(e11), Phi(e12)], [Phi(e21), Phi(e22)]].

    Blocks carry no extra prefactor; the identity channel gives twice the
    maximally entangled projector.
    """
    blocks = [[ch.apply_matrix(from_matrix(_E[i][j])) for j in range(2)] for i in range(2)]
    return np.block(blocks)


def choi_matrix_tensor(m: TensorMap) -> np.ndarray:
    """8x8 block matrix of the four 4x4 blocks T(e_ij)."""
    blocks = [[m.apply_matrix(from_matrix(_E[i][j])) for j in range(2)] for i in range(2)]
    return np.block(blocks)


def _choi_templates(builder, zero_map, nparams: int):
    base = builder(zero_map(np.zeros(nparams)))
    temps = []
    for k in range(nparams):
        e = np.zeros(nparams)
        e[k] = 1.0
        temps.append(builder(zero_map(e)) - base)
    return base, np.stack(temps)


_QUBIT_BASE, _QUBIT_TEMPS = _choi_templates(
    choi_matrix_qubit, lambda v: QubitChannel(v.reshape(3, 3)), 9
)
_TENSOR_BASE, _TENSOR_TEMPS = _choi_templates(
    choi_matrix_tensor, lambda v: TensorMap(v[:9].reshape(3, 3), v[9:].reshape(3, 3)), 18
)


def choi_matrix_qubit_batch(Ts: np.ndarray) -> np.ndarray:
    """Choi matrices for a stack (B, 3, 3) of channel matrices."""
    Ts = np.asarray(Ts, dtype=float).reshape(-1, 9)
    return _QUBIT_BASE + np.tensordot(Ts, _QUBIT_TEMPS, axes=(1, 0))


def choi_matrix_tensor_batch(As: np.ndarray, Cs: np.ndarray) -> np.ndarray:
    """Choi matrices for stacks (B, 3, 3) of A and C."""
    v = np.concatenate(
        [np.asarray(As, dtype=float).reshape(-1, 9), np.asarray(Cs, dtype=float).reshape(-1, 9)],
        axis=1,
    )
    return _TENSOR_BASE + np.tensordot(v, _TENSOR_TEMPS, axes=(1, 0))


# ---------------------------------------------------------------------------
# structural combinators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConjugatedMap:
    """x -> U base(V x V*) U* for unitary U (codomain side) and V (domain side)."""

    base: object
    U: np.ndarray
    V: np.ndarray

    @property
    def out_dim(self) -> int:
        return self.base.out_dim

    def apply_matrix(self, x: PauliElement) -> np.ndarray:
        return self.evaluate_batch(np.array([x.w0]), x.w[None, :])[0]

    def evaluate_batch(self, w0, w) -> np.ndarray:
        inner = self.V @ to_matrix_batch(w0, w) @ adjoint(self.V)
        w0_in = np.einsum("...ii->...", inner) / 2.0
        w_in = np.einsum("kij,...ji->...k", pauli.SIGMA, inner) / 2.0
        out = self.base.evaluate_batch(w0_in, w_in)
        return self.U @ out @ adjoint(self.U)


def conjugate_by_unitaries(ch, U, V) -> ConjugatedMap:
    """Closure x -> U ch(V x V*) U*; both arguments must be unitary."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    for name, M in (("U", U), ("V", V)):
        if M.shape != (2, 2):
            raise ValueError(f"{name} must be a 2x2 matrix")
        if np.max(np.abs(M @ adjoint(M) - ID2)) > DEFAULT.unitarity:
            raise ValueError(f"{name} is not unitary within tolerance")
    if ch.out_dim != 2:
        raise ValueError("conjugation closure is defined for qubit channels")
    return ConjugatedMap(ch, U, V)


@dataclass(frozen=True, eq=False)
class MixedMap:
    """Pointwise convex combination lam*a + (1-lam)*b of two maps."""

    a: object
    b: object
    lam: float

    @property
    def out_dim(self) -> int:
        return self.a.out_dim

    def apply_matrix(self, x: PauliElement) -> np.ndarray:
        return self.evaluate_batch(np.array([x.w0]), x.w[None, :])[0]

    def evaluate_batch(self, w0, w) -> np.ndarray:
        return self.lam * self.a.evaluate_batch(w0, w) + (1.0 - self.lam) * self.b.evaluate_batch(
            w0, w
        )


def convex_combination(a, b, lam: float):
    """lam*a + (1-lam)*b; two QubitChannels combine into a QubitChannel."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    if a.out_dim != b.out_dim:
        raise ValueError("cannot mix maps with different codomains")
    if isinstance(a, QubitChannel) and isinstance(b, QubitChannel):
        return QubitChannel(lam * a.T + (1.0 - lam) * b.T)
    return MixedMap(a, b, lam)


# ---------------------------------------------------------------------------
# the family table: flat-text descriptors (CLI wire format) and builders
# ---------------------------------------------------------------------------


class DescriptorError(ValueError):
    """Malformed family descriptor."""


@dataclass(frozen=True)
class Family:
    """Wire format and builders of one descriptor kind.

    arity   number of reals after ``kind:``
    params  values -> parameter record (a TensorMap for ``tmat``)
    values  parameter record -> values, the inverse of params
    map     parameter record -> evaluable map
    choi    stack (N, arity) of parameter rows -> stack of Choi matrices
    box     (lo, hi) range of every parameter on the agreement harness
            grid, or None when the family has no harness
    """

    arity: int
    params: Callable
    values: Callable
    map: Callable
    choi: Callable
    box: Optional[tuple]


def _diag_stack(rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    out = np.zeros(rows.shape[:-1] + (3, 3))
    out[..., [0, 1, 2], [0, 1, 2]] = rows
    return out


def _lams(p) -> tuple:
    return p.lam1, p.lam2, p.lam3


# the Choi builders look choi_matrix_*_batch up when called, so replacing
# the module attribute (tracing, tests) reaches every family
FAMILIES = {
    "phi": Family(
        3, lambda v: DiagonalParams(*v), _lams, QubitChannel.diagonal,
        lambda rows: choi_matrix_qubit_batch(_diag_stack(rows)), (-1.0, 1.0),
    ),
    "tdiag": Family(
        3, lambda v: DiagonalTensorParams(*v), _lams, TensorMap.diagonal,
        lambda rows: choi_matrix_tensor_batch(_diag_stack(rows), _diag_stack(rows)), (-0.5, 0.5),
    ),
    "tlm": Family(
        2, lambda v: ScalarPairParams(*v), lambda p: (p.lam, p.mu), TensorMap.scalar,
        lambda rows: choi_matrix_tensor_batch(
            rows[:, 0, None, None] * np.eye(3), rows[:, 1, None, None] * np.eye(3)
        ),
        (-1.0, 1.0),
    ),
    # A row-major, then C
    "tmat": Family(
        18, lambda v: TensorMap(np.reshape(v[:9], (3, 3)), np.reshape(v[9:], (3, 3))),
        lambda m: (*m.A.ravel(), *m.C.ravel()), lambda m: m,
        lambda rows: choi_matrix_tensor_batch(rows[:, :9], rows[:, 9:]), None,
    ),
}


def _family(kind: str) -> Family:
    """The table entry of a descriptor kind; DescriptorError if unknown."""
    try:
        return FAMILIES[kind]
    except KeyError:
        raise DescriptorError(f"unknown descriptor kind {kind!r}") from None


def parse_descriptor(text: str):
    """Parse ``kind:v1,v2,...`` for a kind of FAMILIES.

    Returns (kind, params) where params is the matching parameter record
    (a TensorMap for ``tmat``).
    """
    text = text.strip()
    if ":" not in text:
        raise DescriptorError(f"descriptor {text!r} has no 'kind:' prefix")
    kind, _, payload = text.partition(":")
    kind = kind.strip().lower()
    try:
        values = [float(tok) for tok in payload.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise DescriptorError(f"descriptor {text!r}: {exc}") from None
    fam = _family(kind)
    if len(values) != fam.arity:
        raise DescriptorError(f"{kind} descriptor needs {fam.arity} values")
    try:
        return kind, fam.params(values)
    except ValueError as exc:
        raise DescriptorError(str(exc)) from None


def format_descriptor(kind: str, params) -> str:
    return f"{kind}:" + ",".join(format(float(v), ".17g") for v in _family(kind).values(params))


def map_for_descriptor(kind: str, params):
    """The evaluable map object for a parsed descriptor."""
    return _family(kind).map(params)
