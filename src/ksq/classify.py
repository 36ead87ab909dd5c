"""Closed-form classifiers for positivity, the Kadison-Schwarz property
and complete positivity of the map families.

Verdict statuses record logical strength, not just truth:

* ``HOLDS_EXACT``      an if-and-only-if criterion held;
* ``HOLDS_SUFFICIENT`` a one-directional criterion (or a clean sampling
  run) held -- the map may still enjoy the property non-constructively;
* ``FAILS``            a certificate of failure exists (violated exact
  inequality, or an explicit witness);
* ``INCONCLUSIVE``     a sufficient hypothesis was violated, which proves
  nothing; callers fall back to the sampling oracle.

The KS decision for diagonal qubit channels deserves a note.  Its three
closed-form inequalities are a correct *sufficient* test, but their
converse fails: the channel diag(-1/2, -1/2, -1/2) satisfies the
Kadison-Schwarz inequality for every input (it is the boundary case of
the scalar family) while violating all three inequalities.  When they do
not hold, ``ks_phi_diag_exact`` therefore falls back to an exact
evaluation of the worst-case defect

    sup_w ||T[w, conj w] - [Tw, conj(Tw)]|| - (||w||^2 - ||Tw||^2)

reduced to a deterministic two-dimensional maximisation: for fixed
moduli n_k = |w_k|^2 the supremum over phases has a closed form (the
frustrated three-cosine minimum), leaving a search over the simplex.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, pauli
from .channels import (
    DiagonalParams,
    DiagonalTensorParams,
    QubitChannel,
    ScalarPairParams,
    TensorMap,
    choi_matrix_tensor,
    parse_descriptor,
)
from .pauli import PauliElement
from .tolerances import DEFAULT, Tolerances


class Status(str, enum.Enum):
    HOLDS_EXACT = "holds_exact"
    HOLDS_SUFFICIENT = "holds_sufficient"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TriState:
    """One classification level: status, provenance note, optional witness."""

    status: Status
    note: str
    witness: object = None

    @property
    def holds(self) -> bool:
        return self.status in (Status.HOLDS_EXACT, Status.HOLDS_SUFFICIENT)


@dataclass(frozen=True)
class Verdict:
    positive: TriState
    kadison_schwarz: TriState
    completely_positive: TriState

    def rows(self):
        yield "positive", self.positive
        yield "kadison_schwarz", self.kadison_schwarz
        yield "completely_positive", self.completely_positive


@dataclass(frozen=True)
class DiagKsTerms:
    """Intermediate quantities of the diagonal KS inequalities."""

    alpha: float
    beta: float
    gamma: float
    A: float
    B: float
    C: float

    @classmethod
    def from_params(cls, p: DiagonalParams) -> "DiagKsTerms":
        l1, l2, l3 = p.lam1, p.lam2, p.lam3
        return cls(
            alpha=abs(1.0 - l1 * l1),
            beta=abs(1.0 - l2 * l2),
            gamma=abs(1.0 - l3 * l3),
            A=abs(l1 - l2 * l3) ** 2,
            B=abs(l2 - l1 * l3) ** 2,
            C=abs(l3 - l1 * l2) ** 2,
        )


@dataclass(frozen=True)
class TensorKsTerms:
    """Intermediate quantities of the diagonal tensor KS inequalities."""

    A1: float
    A2: float
    A3: float
    B1: float
    B2: float
    B3: float

    @classmethod
    def from_params(cls, p: DiagonalTensorParams) -> "TensorKsTerms":
        l1, l2, l3 = p.lam1, p.lam2, p.lam3
        return cls(
            A1=abs(l1 - 2.0 * l2 * l3) ** 2,
            A2=abs(l2 - 2.0 * l1 * l3) ** 2,
            A3=abs(l3 - 2.0 * l1 * l2) ** 2,
            B1=1.0 - 4.0 * l1 * l1,
            B2=1.0 - 4.0 * l2 * l2,
            B3=1.0 - 4.0 * l3 * l3,
        )


# ---------------------------------------------------------------------------
# KS property, diagonal qubit channels
# ---------------------------------------------------------------------------


def diag_ks_residuals(l1: float, l2: float, l3: float) -> np.ndarray:
    """LHS - RHS of the three closed-form inequalities (<= 0 means holds)."""
    p = l1 * l2 * l3
    return np.array(
        [
            (1 + l1 * l1) * (3 + l2 * l2 + l3 * l3 - l1 * l1) - 4 * (1 + p),
            (1 + l2 * l2) * (3 + l1 * l1 + l3 * l3 - l2 * l2) - 4 * (1 + p),
            (1 + l3 * l3) * (3 + l1 * l1 + l2 * l2 - l3 * l3) - 4 * (1 + p),
        ]
    )


def _phase_supremum(a1, a2, a3):
    """sup over phases d1, d2 of a1 sin^2 d1 + a2 sin^2 d2 + a3 sin^2(d1+d2).

    Collinear phase patterns realise the sum of the two largest weights;
    an interior stationary configuration exists when the reciprocals of
    the weights satisfy the triangle inequality and then contributes
    (s + (a1^2 a2^2 + a2^2 a3^2 + a3^2 a1^2) / (2 a1 a2 a3)) / 2.
    All arguments broadcast.
    """
    a1, a2, a3 = np.broadcast_arrays(
        np.asarray(a1, dtype=float), np.asarray(a2, dtype=float), np.asarray(a3, dtype=float)
    )
    s = a1 + a2 + a3
    pair = s - np.minimum(a1, np.minimum(a2, a3))
    valid = (
        (a1 * a2 <= a3 * (a1 + a2))
        & (a1 * a3 <= a2 * (a1 + a3))
        & (a2 * a3 <= a1 * (a2 + a3))
        & (a1 > 0)
        & (a2 > 0)
        & (a3 > 0)
    )
    prod = np.where(valid, a1 * a2 * a3, 1.0)
    inner = (a1 * a1 * a2 * a2 + a2 * a2 * a3 * a3 + a3 * a3 * a1 * a1) / (2.0 * prod)
    return np.where(valid, np.maximum(0.5 * (s + inner), pair), pair)


def _diag_defect_value(terms: DiagKsTerms, n: np.ndarray) -> np.ndarray:
    """Worst squared-bracket mass minus squared gain at moduli n (>=0 fails KS)."""
    n1, n2, n3 = n[..., 0], n[..., 1], n[..., 2]
    f = _phase_supremum(
        4.0 * terms.A * n2 * n3, 4.0 * terms.B * n1 * n3, 4.0 * terms.C * n1 * n2
    )
    gain = terms.alpha * n1 + terms.beta * n2 + terms.gamma * n3
    return f - gain * gain


def _simplex_grid(resolution: int) -> np.ndarray:
    i, j = np.meshgrid(np.arange(resolution + 1), np.arange(resolution + 1), indexing="ij")
    keep = (i + j) <= resolution
    n1 = i[keep] / resolution
    n2 = j[keep] / resolution
    return np.stack([n1, n2, 1.0 - n1 - n2], axis=-1)


def _refine_simplex(fun, n0: np.ndarray, width: float, rounds: int = 8, res: int = 20):
    """Shrinking local grid refinement of fun around n0 on the 2-simplex."""
    n = n0.copy()
    best = float(fun(n[None, :])[0])
    for _ in range(rounds):
        t = np.linspace(-width, width, 2 * res + 1)
        d1, d2 = np.meshgrid(t, t, indexing="ij")
        n1 = np.clip(n[0] + d1.ravel(), 0.0, 1.0)
        n2 = np.clip(n[1] + d2.ravel(), 0.0, 1.0)
        keep = n1 + n2 <= 1.0
        cand = np.stack([n1[keep], n2[keep], 1.0 - n1[keep] - n2[keep]], axis=-1)
        vals = fun(cand)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            n = cand[k]
        width /= float(res) / 2.0
    return best, n


def diag_ks_defect_supremum(p: DiagonalParams, resolution: int = 160):
    """Exact worst case of the KS defect for a diagonal channel.

    Returns (sup, n) where sup is the supremum over unit-norm inputs of
    LHS^2 - RHS^2 of the bracket inequality (positive means the channel
    is not Kadison-Schwarz) and n the maximising moduli.
    """
    terms = DiagKsTerms.from_params(p)
    grid = _simplex_grid(resolution)
    vals = _diag_defect_value(terms, grid)
    order = np.argsort(vals)[::-1][:4]
    best, best_n = -np.inf, grid[order[0]]
    for idx in order:
        val, n = _refine_simplex(
            lambda m: _diag_defect_value(terms, m), grid[idx], width=1.5 / resolution
        )
        if val > best:
            best, best_n = val, n
    return best, best_n


def _phases_for_witness(terms: DiagKsTerms, n: np.ndarray) -> np.ndarray:
    """Phase differences realising (numerically) the inner phase supremum."""
    a = np.array(
        [4.0 * terms.A * n[1] * n[2], 4.0 * terms.B * n[0] * n[2], 4.0 * terms.C * n[0] * n[1]]
    )

    def val(d):
        return (
            a[0] * math.sin(d[0]) ** 2
            + a[1] * math.sin(d[1]) ** 2
            + a[2] * math.sin(d[0] + d[1]) ** 2
        )

    t = np.linspace(0.0, np.pi, 48)
    d1, d2 = np.meshgrid(t, t, indexing="ij")
    v = (
        a[0] * np.sin(d1) ** 2
        + a[1] * np.sin(d2) ** 2
        + a[2] * np.sin(d1 + d2) ** 2
    )
    k = np.unravel_index(np.argmax(v), v.shape)
    d = np.array([d1[k], d2[k]])
    step = float(t[1] - t[0])
    for _ in range(60):
        improved = False
        for delta in (np.array([step, 0]), np.array([-step, 0]), np.array([0, step]), np.array([0, -step])):
            cand = d + delta
            if val(cand) > val(d) + 1e-18:
                d, improved = cand, True
        if not improved:
            step *= 0.5
            if step < 1e-10:
                break
    return d


def ks_witness_for_diag(p: DiagonalParams, n: np.ndarray) -> PauliElement:
    """Unit-norm input with the worst KS defect at the given moduli."""
    terms = DiagKsTerms.from_params(p)
    d1, d2 = _phases_for_witness(terms, n)
    # d1 = th2 - th3, d2 = th3 - th1 with th1 = 0
    th1 = 0.0
    th3 = d2
    th2 = d1 + th3
    w = np.sqrt(np.clip(n, 0.0, None)) * np.exp(1j * np.array([th1, th2, th3]))
    return PauliElement(0.0, w)


def ks_defect_min_eig(ch, x: PauliElement) -> float:
    """Smallest eigenvalue of map(x*x) - map(x)* map(x) (definition level)."""
    sq = pauli.star_square(x)
    m_sq = (
        ch.apply_matrix(sq)
        if hasattr(ch, "apply_matrix")
        else ch.evaluate_batch(np.array([sq.w0]), sq.w[None, :])[0]
    )
    m_x = (
        ch.apply_matrix(x)
        if hasattr(ch, "apply_matrix")
        else ch.evaluate_batch(np.array([x.w0]), x.w[None, :])[0]
    )
    defect = m_sq - linalg.adjoint(m_x) @ m_x
    return float(linalg.min_eigenvalue(defect))


def ks_phi_diag_exact(
    p: DiagonalParams, tols: Tolerances = DEFAULT, resolution: int = 160
) -> TriState:
    """Exact KS classification of a diagonal channel.

    Fast path: the three closed-form inequalities (sufficient).  When one
    is violated the exact defect supremum decides; see the module
    docstring for why the inequalities alone over-reject.
    """
    res = diag_ks_residuals(p.lam1, p.lam2, p.lam3)
    if np.all(res <= tols.positivity):
        return TriState(Status.HOLDS_EXACT, "diag KS inequalities hold")
    worst = int(np.argmax(res > tols.positivity)) + 1
    sup, n = diag_ks_defect_supremum(p, resolution)
    if sup <= tols.positivity:
        return TriState(
            Status.HOLDS_EXACT,
            f"inequality {worst} violated but defect supremum {sup:.3e} <= 0 "
            "(the inequalities are sufficient-only)",
        )
    note = f"inequality {worst} violated; defect supremum {sup:.3e}"
    ch = QubitChannel.diagonal(p)
    witness = ks_witness_for_diag(p, n)
    viol = ks_defect_min_eig(ch, witness)
    if viol < -tols.ks_violation:
        return TriState(Status.FAILS, note, witness=(witness, viol))
    # the reconstructed phases can miss a very shallow supremum; a
    # certificate must violate KS, so take the oracle's (at classify_full's
    # default budget) or none at all
    from .oracle import SampleConfig, ks_violation_search

    wit = ks_violation_search(ch, SampleConfig(n_samples=20000, seed=7, tol=tols.ks_violation))
    if wit is None:
        return TriState(Status.FAILS, note + "; no witness re-verifies")
    return TriState(
        Status.FAILS, note + "; witness from the sampling oracle", witness=(wit.x, wit.violation)
    )


_BASE_PROBES = None


def ks_probe_vectors() -> np.ndarray:
    """Deterministic probe inputs: e_j, e_j +- i e_k, and angular sweeps."""
    global _BASE_PROBES
    if _BASE_PROBES is not None:
        return _BASE_PROBES
    probes = list(np.eye(3, dtype=complex))
    for j in range(3):
        for k in range(3):
            if j == k:
                continue
            e = np.zeros(3, dtype=complex)
            e[j] = 1.0
            e[k] = 1j
            probes.append(e.copy())
            e[k] = -1j
            probes.append(e.copy())
    angles = np.linspace(0.0, np.pi / 2.0, 9)[1:-1]
    for j in range(3):
        for k in range(3):
            if j == k:
                continue
            for t in angles:
                e = np.zeros(3, dtype=complex)
                e[j] = np.cos(t)
                e[k] = 1j * np.sin(t)
                probes.append(e)
    thirds = np.exp(2j * np.pi * np.array([0.0, 1.0, 2.0]) / 3.0) / np.sqrt(3.0)
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2)):
        probes.append(thirds[list(perm)])
    _BASE_PROBES = np.array(probes)
    _BASE_PROBES.setflags(write=False)
    return _BASE_PROBES


def _channel_ks_margins(T: np.ndarray, w: np.ndarray):
    """Norm-contraction and bracket margins of a real channel matrix at w.

    Returns (norm_excess, defect) where norm_excess = ||Tw|| - ||w|| and
    defect = ||T[w, cw] - [Tw, cTw]|| - (||w||^2 - ||Tw||^2).
    """
    tw = w @ T.T
    nw2 = np.sum(np.abs(w) ** 2, axis=-1)
    ntw2 = np.sum(np.abs(tw) ** 2, axis=-1)
    br = np.cross(w, np.conj(w))
    lhs = np.linalg.norm(br @ T.T - np.cross(tw, np.conj(tw)), axis=-1)
    return np.sqrt(ntw2) - np.sqrt(nw2), lhs - (nw2 - ntw2)


def ks_phi_general(
    ch: QubitChannel, n_samples: int = 20000, seed: int = 7, tols: Tolerances = DEFAULT
) -> TriState:
    """Sampled KS test for a general real channel matrix.

    Checks the norm contraction ||Tw|| <= ||w|| and the bracket
    inequality over the probe set plus random unit vectors.  Sampling can
    refute but never certify, so a clean run reports HOLDS_SUFFICIENT.
    """
    from .oracle import sample_unit_sphere  # local import to avoid a cycle

    w = np.concatenate([ks_probe_vectors(), sample_unit_sphere(n_samples, seed)])
    norms = np.linalg.norm(w, axis=-1)
    w = w / norms[:, None]
    excess, defect = _channel_ks_margins(ch.T, w)
    k = int(np.argmax(excess))
    if excess[k] > 1e-12:
        return TriState(
            Status.FAILS,
            f"norm contraction violated: ||Tw|| - ||w|| = {excess[k]:.3e}",
            witness=(PauliElement(0.0, w[k]), float(excess[k])),
        )
    k = int(np.argmax(defect))
    if defect[k] > 1e-10:
        return TriState(
            Status.FAILS,
            f"bracket inequality violated by {defect[k]:.3e}",
            witness=(PauliElement(0.0, w[k]), float(defect[k])),
        )
    return TriState(
        Status.HOLDS_SUFFICIENT, f"no violation among {len(w)} probed/sampled inputs"
    )


# ---------------------------------------------------------------------------
# positivity of tensor maps
# ---------------------------------------------------------------------------


def _fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)


def _ascend_sphere(fun, w0: np.ndarray, iters: int = 200) -> tuple[float, np.ndarray]:
    """Coordinate-perturbation hill climb on the real unit sphere."""
    w = w0 / np.linalg.norm(w0)
    best = float(fun(w[None, :])[0])
    step = 0.1
    for _ in range(iters):
        improved = False
        for k in range(3):
            for sign in (1.0, -1.0):
                cand = w.copy()
                cand[k] += sign * step
                cand /= np.linalg.norm(cand)
                val = float(fun(cand[None, :])[0])
                if val > best + 1e-18:
                    best, w, improved = val, cand, True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return best, w


def positive_tensor(m: TensorMap, grid: int = 1024, tols: Tolerances = DEFAULT) -> TriState:
    """Positivity of a tensor map: sup ||Aw|| + ||Cw|| over the real sphere.

    Equality of A and C collapses the criterion to 2||A||_op <= 1, which
    is decided exactly from the spectrum of A^T A; otherwise a Fibonacci
    lattice plus derivative-free ascent bounds the supremum from below,
    so a failure is certified while success is sufficient-only.
    """
    if grid < 64:
        raise ValueError("grid must be at least 64")

    def f(w):
        return np.linalg.norm(w @ m.A.T, axis=-1) + np.linalg.norm(w @ m.C.T, axis=-1)

    def search():
        lattice = _fibonacci_sphere(grid)
        return _ascend_sphere(f, lattice[int(np.argmax(f(lattice)))])

    if np.array_equal(m.A, m.C):
        op = math.sqrt(float(linalg.hermitian_eigenvalues(m.A.T @ m.A)[-1]))
        if 2.0 * op <= 1.0 + tols.positivity:
            return TriState(Status.HOLDS_EXACT, f"A = C and 2||A||_op = {2 * op:.6g} <= 1")
        best, w_best = search()
        return TriState(
            Status.FAILS,
            f"A = C and 2||A||_op = {2 * op:.6g} > 1",
            witness=(PauliElement(1.0, w_best.astype(complex)), best),
        )
    best, w_best = search()
    if best > 1.0 + tols.positivity:
        return TriState(
            Status.FAILS,
            f"found unit w with ||Aw|| + ||Cw|| = {best:.6g} > 1",
            witness=(PauliElement(1.0, w_best.astype(complex)), best),
        )
    return TriState(
        Status.HOLDS_SUFFICIENT,
        f"sup over {grid}-point lattice with local ascent is {best:.6g} <= 1",
    )


# ---------------------------------------------------------------------------
# KS property, tensor maps
# ---------------------------------------------------------------------------


def _tensor_ks_margins(A: np.ndarray, C: np.ndarray, w: np.ndarray):
    """(rhs, lhs) of the tensor KS sufficient inequality at inputs w."""
    aw = w @ A.T
    cw = w @ C.T
    rhs = (
        np.sum(np.abs(w) ** 2, axis=-1)
        - 2.0 * np.sum(np.abs(aw) ** 2, axis=-1)
        - 2.0 * np.sum(np.abs(cw) ** 2, axis=-1)
    )
    br = np.cross(w, np.conj(w))
    lhs = np.linalg.norm(br @ A.T - 2.0 * np.cross(aw, np.conj(aw)), axis=-1) + np.linalg.norm(
        br @ C.T - 2.0 * np.cross(cw, np.conj(cw)), axis=-1
    )
    return rhs, lhs


def ks_tensor_sufficient(
    m: TensorMap, n_samples: int = 20000, seed: int = 7, tols: Tolerances = DEFAULT
) -> TriState:
    """Sufficient KS test for tensor maps over probes plus random inputs.

    A violated hypothesis proves nothing about the map, so it yields
    INCONCLUSIVE; callers fall back to the sampling oracle.
    """
    from .oracle import sample_unit_sphere

    w = np.concatenate([ks_probe_vectors(), sample_unit_sphere(n_samples, seed)])
    w = w / np.linalg.norm(w, axis=-1)[:, None]
    rhs, lhs = _tensor_ks_margins(m.A, m.C, w)
    k = int(np.argmin(rhs))
    if rhs[k] < -1e-10:
        return TriState(
            Status.INCONCLUSIVE,
            f"gain condition violated: ||w||^2 - 2||Aw||^2 - 2||Cw||^2 = {rhs[k]:.3e}",
            witness=PauliElement(0.0, w[k]),
        )
    k = int(np.argmax(lhs - rhs))
    if lhs[k] - rhs[k] > 1e-10:
        return TriState(
            Status.INCONCLUSIVE,
            f"bracket condition violated by {lhs[k] - rhs[k]:.3e}",
            witness=PauliElement(0.0, w[k]),
        )
    return TriState(
        Status.HOLDS_SUFFICIENT,
        f"sufficient inequalities hold on {len(w)} probed/sampled inputs",
    )


def ks_tensor_diag_sufficient(p: DiagonalTensorParams, tols: Tolerances = DEFAULT) -> TriState:
    """Closed-form sufficient KS test for the diagonal tensor family."""
    l1, l2, l3 = p.lam1, p.lam2, p.lam3
    lhs = 4.0 * (1.0 + 8.0 * l1 * l2 * l3)
    rhs = np.array(
        [
            (1 + 4 * l1 * l1) * (3 + 4 * l2 * l2 + 4 * l3 * l3 - 4 * l1 * l1),
            (1 + 4 * l2 * l2) * (3 + 4 * l1 * l1 + 4 * l3 * l3 - 4 * l2 * l2),
            (1 + 4 * l3 * l3) * (3 + 4 * l1 * l1 + 4 * l2 * l2 - 4 * l3 * l3),
        ]
    )
    res = rhs - lhs
    if np.all(res <= tols.positivity):
        return TriState(Status.HOLDS_SUFFICIENT, "diagonal tensor KS inequalities hold")
    worst = int(np.argmax(res > tols.positivity)) + 1
    return TriState(
        Status.INCONCLUSIVE,
        f"diagonal tensor KS inequality {worst} violated by {res[worst - 1]:.3e} "
        "(sufficient-only)",
    )


def ks_tlm_sufficient(p: ScalarPairParams, tols: Tolerances = DEFAULT) -> TriState:
    """Sufficient KS test for the scalar family."""
    lam, mu = p.lam, p.mu
    lhs = abs(lam) * abs(1.0 - 2.0 * lam) + abs(mu) * abs(1.0 - 2.0 * mu)
    rhs = 1.0 - 2.0 * lam * lam - 2.0 * mu * mu
    if lhs <= rhs + tols.positivity:
        return TriState(
            Status.HOLDS_SUFFICIENT, f"scalar KS inequality holds ({lhs:.6g} <= {rhs:.6g})"
        )
    return TriState(
        Status.INCONCLUSIVE,
        f"scalar KS inequality violated ({lhs:.6g} > {rhs:.6g}); sufficient-only",
    )


def ks_phi_scalar_interval(lam: float, tols: Tolerances = DEFAULT) -> TriState:
    """Exact KS interval for the scalar channel x -> w0 + 2*lam*w.s.

    The channel is Kadison-Schwarz exactly for lam in [-1/4, 1/2] (closed
    endpoints).
    """
    if -0.25 - tols.positivity <= lam <= 0.5 + tols.positivity:
        return TriState(Status.HOLDS_EXACT, f"lam = {lam:.6g} lies in [-1/4, 1/2]")
    return TriState(Status.FAILS, f"lam = {lam:.6g} outside [-1/4, 1/2]")


# ---------------------------------------------------------------------------
# complete positivity
# ---------------------------------------------------------------------------


def cp_phi_exact(p: DiagonalParams, tols: Tolerances = DEFAULT) -> TriState:
    """Exact CP test for diagonal channels (three closed-form inequalities)."""
    l1, l2, l3 = p.lam1, p.lam2, p.lam3
    res = np.array(
        [
            (l1 + l2) ** 2 - (1 + l3) ** 2,
            (l1 - l2) ** 2 - (1 - l3) ** 2,
            4 * (l1 * l1 * l2 * l2 + l2 * l2 * l3 * l3 + l1 * l1 * l3 * l3 - 2 * l1 * l2 * l3)
            - (1 - (l1 * l1 + l2 * l2 + l3 * l3)) ** 2,
        ]
    )
    if np.all(res <= tols.positivity):
        return TriState(Status.HOLDS_EXACT, "diagonal channel CP inequalities hold")
    worst = int(np.argmax(res > tols.positivity)) + 1
    return TriState(
        Status.FAILS, f"diagonal channel CP inequality {worst} violated by {res[worst - 1]:.3e}"
    )


def cp_tensor_diag_residuals(l1, l2, l3):
    """LHS - RHS of the three exact CP inequalities (broadcasting)."""
    l1, l2, l3 = np.broadcast_arrays(
        np.asarray(l1, dtype=float), np.asarray(l2, dtype=float), np.asarray(l3, dtype=float)
    )
    return np.stack(
        [
            2.0 * (l1 + l2) ** 2 - (1.0 + 2.0 * l3),
            2.0 * (l1 - l2) ** 2 - (1.0 - 2.0 * l3),
            4.0 * (l1 * l1 + l2 * l2 + l3 * l3) - (1.0 + 16.0 * l1 * l2 * l3),
        ]
    )


def cp_tensor_diag_exact(p: DiagonalTensorParams, tols: Tolerances = DEFAULT) -> TriState:
    """Exact CP test for the diagonal tensor family.

    The 8x8 Choi matrix reduces (twice, plus two unit eigenvalues) to the
    3x3 block

        [[1 + 2*l3,  c1,        0      ]
         [c1,        1,         c2     ]
         [0,         c2,        1 - 2*l3]],   c1 = sqrt(2)(l1 + l2),
                                              c2 = sqrt(2)(l1 - l2),

    whose positive semidefiniteness is its three non-trivial principal
    minors:

        2(l1 + l2)^2 <= 1 + 2*l3
        2(l1 - l2)^2 <= 1 - 2*l3
        4(l1^2 + l2^2 + l3^2) <= 1 + 16 l1 l2 l3.

    At l3 = +-1/2 these force l1 = l2 (resp. l1 = -l2), the closure of
    the open-interval criterion.
    """
    res = cp_tensor_diag_residuals(p.lam1, p.lam2, p.lam3).reshape(3)
    if np.all(res <= tols.positivity):
        return TriState(Status.HOLDS_EXACT, "tensor CP minors hold")
    worst = int(np.argmax(res > tols.positivity)) + 1
    return TriState(Status.FAILS, f"tensor CP minor {worst} violated by {res[worst - 1]:.3e}")


def tlm_choi_eigenvalues(p: ScalarPairParams) -> np.ndarray:
    """Distinct analytic eigenvalues of the scalar-family Choi matrix.

    Values are for the un-halved block matrix; the assembled Choi matrix
    carries an extra factor 1/2.
    """
    root = math.sqrt(p.lam**2 - p.lam * p.mu + p.mu**2)
    s = p.lam + p.mu
    return np.array([s + 1.0 - 2.0 * root, s + 1.0 + 2.0 * root, 1.0 - s])


def cp_tlm_exact(p: ScalarPairParams, tols: Tolerances = DEFAULT) -> TriState:
    """Exact CP test for the scalar family."""
    root = math.sqrt(p.lam**2 - p.lam * p.mu + p.mu**2)
    first = p.lam + p.mu + 1.0 - 2.0 * root
    second = p.lam + p.mu
    if first >= -tols.positivity and second <= 1.0 + tols.positivity:
        return TriState(Status.HOLDS_EXACT, "scalar CP inequalities hold")
    if first < -tols.positivity:
        return TriState(Status.FAILS, f"lam+mu+1-2*sqrt(lam^2-lam*mu+mu^2) = {first:.6g} < 0")
    return TriState(Status.FAILS, f"lam+mu = {second:.6g} > 1")


def choi_min_eigenvalues(choi):
    """Smallest eigenvalue of a Choi matrix, or of each in a stack (LAPACK).

    Raises ValueError on non-finite entries, and when a matrix deviates
    from its adjoint by more than the Hermiticity tolerance relative to
    its largest entry (or 1).
    """
    choi = np.asarray(choi, dtype=complex)
    if not np.all(np.isfinite(choi)):
        raise ValueError("Choi matrix entries must be finite")
    dev = linalg.hermitian_deviation(choi)
    scale = np.maximum(1.0, np.max(np.abs(choi), axis=(-2, -1)))
    if np.any(dev > DEFAULT.hermiticity * scale):
        raise ValueError(f"Choi matrix is not Hermitian (deviation {float(np.max(dev)):.3e})")
    return linalg.batch_min_eigenvalue(choi)


def cp_choi_numeric(choi: np.ndarray, tol: float = DEFAULT.positivity) -> TriState:
    """CP via the sign of the smallest Choi eigenvalue."""
    low = float(choi_min_eigenvalues(choi))
    if low >= -tol:
        return TriState(Status.HOLDS_EXACT, f"min Choi eigenvalue {low:.6g} >= -{tol:.1g}")
    return TriState(Status.FAILS, f"min Choi eigenvalue {low:.6g} < 0", witness=low)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def _positive_qubit_exact(ch: QubitChannel, tols: Tolerances) -> TriState:
    """Positivity of a real qubit channel: operator norm of T at most 1."""
    op = math.sqrt(float(linalg.hermitian_eigenvalues(ch.T.T @ ch.T)[-1]))
    if op <= 1.0 + tols.positivity:
        return TriState(Status.HOLDS_EXACT, f"||T||_op = {op:.6g} <= 1")
    return TriState(Status.FAILS, f"||T||_op = {op:.6g} > 1")


def classify_full(
    descriptor, n_samples: int = 20000, seed: int = 7, tols: Tolerances = DEFAULT
) -> Verdict:
    """Classify a family descriptor at all three levels.

    Accepts the flat text form (``phi:...``) or a pre-parsed
    (kind, params) pair.  Each level uses the strongest test available
    for the family, with the sampling oracle as fallback where only
    sufficient conditions exist.
    """
    from . import oracle

    kind, params = parse_descriptor(descriptor) if isinstance(descriptor, str) else descriptor
    cfg = oracle.SampleConfig(n_samples=n_samples, seed=seed, tol=tols.ks_violation)

    def oracle_ks(map_obj) -> TriState:
        wit = oracle.ks_violation_search(map_obj, cfg)
        if wit is None:
            return TriState(
                Status.HOLDS_SUFFICIENT, f"oracle found no violation in {n_samples} samples"
            )
        return TriState(
            Status.FAILS, f"oracle witness with violation {wit.violation:.3e}", witness=wit
        )

    if kind == "phi":
        ch = QubitChannel.diagonal(params)
        pos = _positive_qubit_exact(ch, tols)
        ks = ks_phi_diag_exact(params, tols)
        cp = cp_phi_exact(params, tols)
    elif kind == "tdiag":
        m = TensorMap.diagonal(params)
        pos = positive_tensor(m, tols=tols)
        ks = ks_tensor_diag_sufficient(params, tols)
        if ks.status is Status.INCONCLUSIVE:
            ks = oracle_ks(m)
        cp = cp_tensor_diag_exact(params, tols)
    elif kind == "tlm":
        m = TensorMap.scalar(params)
        pos = positive_tensor(m, tols=tols)
        ks = ks_tlm_sufficient(params, tols)
        if ks.status is Status.INCONCLUSIVE:
            comp = ks_phi_scalar_interval(params.lam, tols), ks_phi_scalar_interval(
                params.mu, tols
            )
            if comp[0].status is Status.HOLDS_EXACT and comp[1].status is Status.HOLDS_EXACT:
                ks = TriState(
                    Status.HOLDS_SUFFICIENT,
                    "both scalar components are KS, so their tensor combination is",
                )
            else:
                ks = oracle_ks(m)
        cp = cp_tlm_exact(params, tols)
    elif kind == "tmat":
        m = params
        pos = positive_tensor(m, tols=tols)
        ks = ks_tensor_sufficient(m, n_samples=n_samples, seed=seed, tols=tols)
        if ks.status is Status.INCONCLUSIVE:
            ks = oracle_ks(m)
        cp = cp_choi_numeric(choi_matrix_tensor(m), tols.positivity)
    else:
        raise ValueError(f"unknown descriptor kind {kind!r}")

    verdict = Verdict(positive=pos, kadison_schwarz=ks, completely_positive=cp)
    _check_hierarchy(verdict)
    return verdict


def _check_hierarchy(v: Verdict) -> None:
    """CP implies KS implies positive; a contradiction is an internal error."""
    if v.completely_positive.status is Status.HOLDS_EXACT and v.kadison_schwarz.status is Status.FAILS:
        raise RuntimeError(f"hierarchy violation: CP holds but KS fails ({v})")
    if v.kadison_schwarz.status is Status.HOLDS_EXACT and v.positive.status is Status.FAILS:
        raise RuntimeError(f"hierarchy violation: KS holds but positivity fails ({v})")
