"""Closed-form classifiers for positivity, the Kadison-Schwarz property
and complete positivity of the map families.

Verdict statuses record logical strength, not just truth:

* ``HOLDS_EXACT``      an if-and-only-if criterion held;
* ``HOLDS_SUFFICIENT`` a one-directional criterion (or a clean sampling
  run) held -- the map may still enjoy the property non-constructively;
* ``FAILS``            a certificate of failure exists (violated exact
  inequality, or an explicit witness);
* ``INCONCLUSIVE``     a sufficient hypothesis was violated, which proves
  nothing; classify_full then takes the kind's ks_settle step: the exact
  closed form for tlm, else the oracle, which tries the map's KS
  operator before it samples.

Positivity is always decided exactly (``HOLDS_EXACT`` or ``FAILS``), on
the parameters: a phi channel by ||T||_op = max |lam_k| <= 1, a tensor
map by s = sup ||Aw|| + ||Cw|| <= 1 over the unit sphere, where s is
2 max |l_k| for tdiag (A = C = diag(l)) and |lam| + |mu| for tlm.  For
tmat, ``positive_tensor`` runs the minimax of ``tensor_positivity_steps``
until an upper or a lower bound decides.  No decider builds a map;
``classify_full`` builds one only for the oracle.

The KS decision for diagonal qubit channels deserves a note.  Its three
closed-form inequalities are a correct *sufficient* test, but their
converse fails: the channel diag(-1/2, -1/2, -1/2) satisfies the
Kadison-Schwarz inequality for every input (it is the boundary case of
the scalar family) while violating all three inequalities.  When they do
not hold, ``ks_phi_diag_exact`` therefore falls back to an exact
evaluation of the worst-case defect

    sup_w ||T[w, conj w] - [Tw, conj(Tw)]|| - (||w||^2 - ||Tw||^2).

For fixed moduli n_k = |w_k|^2 the supremum over phases has a closed
form, and ``diag_ks_defect_supremum`` maximises the result over the
moduli exactly, per row in Python floats: it is the largest of four
quadratic forms, each maximised over a triangle by enumerating its KKT points.

The scalar tensor family tlm (A = lam 1, C = mu 1) has an exact KS test,
``ks_tlm_exact``: its smallest defect eigenvalue over all inputs is a
closed form in (lam, mu), attained at w = (1, i, 0)/sqrt 2.  The other
tensor maps have none.  One certified sufficient test is the
KS operator H, which only the oracle assembles: the defect at x = w.s is
a quadratic form in w with operator-valued entries, and where the 12x12
operator H that carries it is positive semidefinite, so is every defect
(the converse fails: KS only needs H >= 0 on product vectors).  It is
the oracle's test, and the oracle's one decision: a map whose
lambda_min(H), less a rounding margin, is >= -tol/2 is clean without
sampling (``oracle.ks_certified``).  ``classify_full`` asks it first for
any tdiag or tmat map whose decider said INCONCLUSIVE, so the note gives
lambda_min(H); ``oracle.ks_search`` builds the map's template once for
the KS operator and the search.
The ``tmat`` decider has no test of its own and always says INCONCLUSIVE.
The ``tdiag`` and ``tlm`` KS deciders leave H and ``ks_tlm_exact`` out,
so the agreement harness, which calls them directly, still tests the
paper's inequalities and counts exactly the points where they fail as
resolved by the oracle.

The KS and CP deciders of the boxed families (phi, tdiag, tlm) take one
parameter record or an (N, arity) stack of rows.  A record is the
one-row call of the same code, and per row only the TriStates are built.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg, pauli
from .channels import (
    DiagonalTensorParams,
    QubitChannel,
    ScalarPairParams,
    TensorMap,
    choi_matrix_tensor,
    map_for_descriptor,
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


def all_hold(residuals, tol: float = DEFAULT.positivity):
    """True where every residual is at most tol, broadcasting.

    residuals is a sequence of arrays (or a stack, by its first axis); they
    are compared one at a time, so no broadcast stack is built.
    """
    ok = residuals[0] <= tol
    for r in residuals[1:]:
        ok = ok & (r <= tol)
    return ok


# ---------------------------------------------------------------------------
# KS property, diagonal qubit channels
# ---------------------------------------------------------------------------


def diag_ks_residuals(l1, l2, l3) -> np.ndarray:
    """LHS - RHS of the three closed-form inequalities (<= 0 means holds).

    The arguments are floats or arrays of one shape; the inequalities are
    stacked on a new first axis, (3, ...).
    """
    p = l1 * l2 * l3
    return np.array(
        [
            (1 + l1 * l1) * (3 + l2 * l2 + l3 * l3 - l1 * l1) - 4 * (1 + p),
            (1 + l2 * l2) * (3 + l1 * l1 + l3 * l3 - l2 * l2) - 4 * (1 + p),
            (1 + l3 * l3) * (3 + l1 * l1 + l2 * l2 - l3 * l3) - 4 * (1 + p),
        ]
    )


def _phases(a1: float, a2: float, a3: float):
    """Phases (d1, d2) attaining sup a1 sin^2 d1 + a2 sin^2 d2 + a3 sin^2(d1 +
    d2) for one row of weights: sin^2 = 1 on the two largest weights, or 2 d_k
    = pi - Theta_k, Theta_k the angle opposite side 1/a_k of the triangle with
    sides 1/a_k if they form one and (s + a1 a2/a3 + a2 a3/a1 + a3 a1/a2) / 2
    is larger.  A subnormal weight counts as 0, lest its bits reach the ratios."""
    a1, a2, a3 = (0.0 if abs(a) < sys.float_info.min else a for a in (a1, a2, a3))
    if a1 > 0 and a2 > 0 and a3 > 0 and (
        a1 * a2 <= a3 * (a1 + a2) and a1 * a3 <= a2 * (a1 + a3) and a2 * a3 <= a1 * (a2 + a3)
    ):
        s = a1 + a2 + a3
        if 0.5 * (s + 0.5 * (a1 * a2 / a3 + a2 * a3 / a1 + a3 * a1 / a2)) > s - min(a1, a2, a3):
            cos1 = min(max(0.5 * (a3 / a2 + a2 / a3 - (a2 / a1) * (a3 / a1)), -1.0), 1.0)
            cos2 = min(max(0.5 * (a3 / a1 + a1 / a3 - (a1 / a2) * (a3 / a2)), -1.0), 1.0)
            # np.arccos, not math.acos: they differ in the last bit on some
            # inputs, and np.arccos of a float has the bits of its array loop
            return 0.5 * (math.pi - float(np.arccos(cos1))), 0.5 * (math.pi - float(np.arccos(cos2)))
    # collinear: dropping a1 is (0, pi/2), a2 is (pi/2, 0), a3 is (pi/2, pi/2)
    d1 = 0.0 if a1 <= a2 and a1 <= a3 else 0.5 * math.pi
    return d1, 0.0 if a2 < a1 and a2 <= a3 else 0.5 * math.pi


def _argmax(values, args):
    """np.max, np.argmax of a short axis: first max, else first NaN (+NaN if first, as numpy's SIMD)."""
    best, arg = values[0], args[0]
    if best != best:
        return math.nan, arg
    for v, a in zip(values, args):
        if v != v:
            return v, a
        if v > best:
            best, arg = v, a
    return best, arg


def _mm(x, y) -> list:
    """x @ y for x of 1 or 3 rows and a 3x3 y, floats by rows, summed from 0."""
    y0, y1, y2, y3, y4, y5, y6, y7, y8 = y
    out = []
    for a, b, c in zip(x[0::3], x[1::3], x[2::3]):
        out += (0.0 + a * y0 + b * y3 + c * y6, 0.0 + a * y1 + b * y4 + c * y7, 0.0 + a * y2 + b * y5 + c * y8)
    return out


def _form(q, b) -> float:
    """b^T Q b for Q held as 9 floats by rows, as b @ Q then its dot with b."""
    (b0, b1, b2), (q00, q01, q02, q10, q11, q12, q20, q21, q22) = b, q
    return (b0 * (0.0 + b0 * q00 + b1 * q10 + b2 * q20) + b1 * (0.0 + b0 * q01 + b1 * q11 + b2 * q21)
            + b2 * (0.0 + b0 * q02 + b1 * q12 + b2 * q22))


def _max_on_simplex(q):
    """(max, argmax) of b^T Q b on the simplex b >= 0, b1 + b2 + b3 = 1, Q held as 9 floats by
    rows, over the KKT points of its faces: vertices, clipped edge stationary points and adj(Q) 1
    / (1^T adj(Q) 1) if inside (a face whose stationary points form a line has its value on a
    smaller face).  While sum |Q_ij| < 2^1022 a vertex is worth Q_ii and an edge drops its zero
    coordinate's products: they add +-0 to sums that are never -0."""
    q00, q01, q02, q10, q11, q12, q20, q21, q22 = q
    # entry k of adj(Q) 1 sums the cross product of rows k + 1 and k + 2 of Q
    u0 = 0.0 + (q11 * q22 - q12 * q21) + (q12 * q20 - q10 * q22) + (q10 * q21 - q11 * q20)
    u1 = 0.0 + (q21 * q02 - q22 * q01) + (q22 * q00 - q20 * q02) + (q20 * q01 - q21 * q00)
    u2 = 0.0 + (q01 * q12 - q02 * q11) + (q02 * q10 - q00 * q12) + (q00 * q11 - q01 * q10)
    total = u0 + u1 + u2
    b = (u0 / total, u1 / total, u2 / total) if total != 0 else (-1.0, -1.0, -1.0)
    top = _form(q, b) if b[0] >= 0.0 and b[1] >= 0.0 and b[2] >= 0.0 else -math.inf
    edges = []  # (t, 1 - t, c^T Q c) at edge (i, j)'s stationary point c = t e_i + (1 - t) e_j
    for qii, qij, qji, qjj in ((q00, q01, q10, q11), (q00, q02, q20, q22), (q11, q12, q21, q22)):
        den = qii + qjj - 2.0 * qij
        t = (qjj - qij) / den if den < 0 else 0.0
        t = 1.0 if t > 1.0 else 0.0 if t < 0.0 else t  # as np.clip: NaN and -0.0 pass
        r = 1.0 - t
        edges.append((t, r, t * (t * qii + r * qji) + r * (t * qij + r * qjj)))
    (t01, r01, v01), (t02, r02, v02), (t12, r12, v12) = edges
    cands = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    cands += ((t01, r01, 0.0), (t02, 0.0, r02), (0.0, t12, r12), b)
    if sum(map(abs, q)) < 2.0**1022:
        return _argmax((q00, q11, q22, v01, v02, v12, top), cands)
    return _argmax([_form(q, c) for c in cands[:6]] + [top], cands)


def _diag_ks_terms(l1: float, l2: float, l3: float):
    """((A, B, C), (alpha, beta, gamma)) of a row: A = (lam1 - lam2 lam3)^2, alpha = |1 - lam1^2|, ..."""
    d = (l1 - l2 * l3, l2 - l1 * l3, l3 - l1 * l2)
    return tuple(x * x for x in d), (abs(1.0 - l1 * l1), abs(1.0 - l2 * l2), abs(1.0 - l3 * l3))


def _defect_supremum_row(l1: float, l2: float, l3: float):
    """(sup, n) of diag_ks_defect_supremum for one parameter row."""
    (A, B, C), (c0, c1, c2) = _diag_ks_terms(l1, l2, l3)
    g00, g01, g02, g11, g12, g22 = c0 * c0, c0 * c1, c0 * c2, c1 * c1, c1 * c2, c2 * c2
    # n^T s n = a1 + a2 + a3: s_12 = 2A, s_02 = 2B, s_01 = 2C; z = 0 s (NaN where s overflows)
    sA, sB, sC = 2.0 * A, 2.0 * B, 2.0 * C
    zA, zB, zC = sA * 0.0, sB * 0.0, sC * 0.0
    d0, d1, d2 = zA - g00, zB - g11, zC - g22
    p01, p02, p12, m01, m02, m12 = sC - g01, sB - g02, sA - g12, zC - g01, zB - g02, zA - g12
    # the pair sums s - a_k - gain^2, k = 1, 2, 3, then the interior form
    pairs = ((p01, p02, m12), (p01, m02, p12), (m01, p02, p12))
    forms = [(d0, x01, x02, x01, d1, x12, x02, x12, d2) for x01, x02, x12 in pairs]
    if A > 0 and B > 0 and C > 0:
        # column j of V is the vertex with n_j = 0; DV = diag(BC/A, CA/B, AB/C) V, divisions cancelled
        e0, e1, e2, bc, ac, ab = B + C, A + C, A + B, B * C, A * C, A * B
        V = (A * 0.0 / e0, A / e1, A / e2, B / e0, B * 0.0 / e1, B / e2, C / e0, C / e1, C * 0.0 / e2)
        DV = (bc * 0.0 / e0, bc / e1, bc / e2, ac / e0, ac * 0.0 / e1, ac / e2, ab / e0, ab / e1, ab * 0.0 / e2)
        h01, h02, h12 = 0.5 * sC - g01, 0.5 * sB - g02, 0.5 * sA - g12
        M = (0.5 * zA - g00, h01, h02, h01, 0.5 * zB - g11, h12, h02, h12, 0.5 * zC - g22)
        Vt = V[0::3] + V[1::3] + V[2::3]
        forms.append([x + y for x, y in zip(_mm(Vt, _mm(M, V)), _mm(Vt, DV))])
    best = [_max_on_simplex(q) for q in forms]
    sup, k = _argmax([v for v, _ in best], range(len(best)))
    return sup, _mm(best[k][1], Vt) if k == 3 else best[k][1]


def diag_ks_defect_supremum(p):
    """Exact worst case of the KS defect of diagonal channels, for an (..., 3)
    array p of (lam1, lam2, lam3), each row worked out alone in Python floats:
    (sup, n), sup (...) the supremum over unit-norm inputs of LHS^2 - RHS^2 of
    the bracket inequality (positive: not KS), n (..., 3) its moduli.  At n the
    worst phases leave the largest of the pair sums s - a_k (a1 = 4A n2 n3, a2 =
    4B n1 n3, a3 = 4C n1 n2) and, on the triangle (0, B, C)/(B + C), (A, 0, C)/(A +
    C), (A, B, 0)/(A + B), of s/2 + BC n1^2/A + CA n2^2/B + AB n3^2/C, less gain^2."""
    p = np.asarray(p, dtype=float)
    rows = [_defect_supremum_row(*row) for row in p.reshape(-1, 3).tolist()]
    n = np.array([n for _, n in rows]).reshape(p.shape)
    return np.array([s for s, _ in rows]).reshape(p.shape[:-1])[()], n


def ks_witness_for_diag(p, n):
    """Unit-norm inputs w (..., 3) of x = w.s with the worst KS defect of the
    rows p (..., 3) at moduli n (..., 3), their phases worked out per row."""
    phases = []
    for row, (n1, n2, n3) in zip(np.reshape(p, (-1, 3)).tolist(), np.reshape(n, (-1, 3)).tolist()):
        (A, B, C), _ = _diag_ks_terms(*row)
        d1, d2 = _phases(4.0 * A * n2 * n3, 4.0 * B * n1 * n3, 4.0 * C * n1 * n2)
        phases.append((0.0, d1 + d2, d2))  # d1 = th2 - th3, d2 = th3 - th1 with th1 = 0
    return np.sqrt(np.clip(n, 0.0, None)) * np.exp(1j * np.array(phases).reshape(np.shape(n)))


def _defect_min_eigs(m_sq, m_x, tols: Tolerances) -> np.ndarray:
    """Smallest eigenvalues of the KS defects m_sq - m_x* m_x, one per
    matrix of the stacks; ValueError when one is farther than
    tols.hermiticity from Hermitian."""
    defect = m_sq - linalg.adjoint(m_x) @ m_x
    dev = linalg.hermitian_deviation(defect)
    if np.any(dev > tols.hermiticity):
        raise ValueError(f"KS defect is not Hermitian: max deviation {np.max(dev):.3e}")
    return linalg.batch_min_eigenvalue(defect)


def ks_defect_min_eig(ch, x: PauliElement, tols: Tolerances = DEFAULT) -> float:
    """Smallest eigenvalue of map(x*x) - map(x)* map(x) (definition level);
    a defect farther than tols.hermiticity from Hermitian raises ValueError."""
    c0, c = pauli.star_square_coeffs(x.w0, x.w)
    m_sq, m_x = ch.evaluate_batch(np.array([c0, x.w0]), np.stack([c, x.w]))
    return float(_defect_min_eigs(m_sq, m_x, tols))


def _diag_defect_min_eigs(lams: np.ndarray, w: np.ndarray, tols: Tolerances) -> np.ndarray:
    """ks_defect_min_eig of each diagonal channel of a stack (..., 3) of
    parameter rows at its own input x = w.s, w (..., 3), in one pass:
    T = diag(lam) scales the Pauli coefficients of x*x and x entry by
    entry."""
    w0 = np.zeros(w.shape[:-1], dtype=complex)
    c0, c = pauli.star_square_coeffs(w0, w)
    m_sq, m_x = pauli.to_matrix_batch(c0, lams * c), pauli.to_matrix_batch(w0, lams * w)
    return _defect_min_eigs(m_sq, m_x, tols)


def _columns(p):
    """(columns, one): the parameter columns of an (N, arity) stack of
    rows, as (N,) arrays, or the field values of one parameter record, as
    floats, with one = True.  The residual formulas broadcast over
    either, and floats spare a lone row numpy's per-call overhead."""
    if isinstance(p, np.ndarray):
        return p.T, False
    return tuple(vars(p).values()), True


def _each(one: bool, build: Callable, *values):
    """build(*row) for one row, given as the values themselves, or the
    list of it over the rows of the values, (N,) arrays or lists."""
    if one:
        return build(*values)
    lists = (v.tolist() if isinstance(v, np.ndarray) else v for v in values)
    return [build(*row) for row in zip(*lists)]


def _decide(res, tol: float, one: bool, holds: TriState, fails: Callable):
    """The TriStates of a residual stack (m, ...), one column per row:
    holds where all m residuals are at most tol, else fails(k, r, j) for
    row j's first residual above tol (1-based k) and its value r.  One
    TriState when one is set, else a list."""
    held = all_hold(res, tol)
    if one and held:
        return holds
    res = res.reshape(len(res), -1)
    k = (res > tol).argmax(axis=0)
    r = res[k, np.arange(res.shape[1])]
    out = [
        holds if h else fails(i + 1, v, j)
        for j, (h, i, v) in enumerate(zip(held.reshape(-1).tolist(), k.tolist(), r.tolist()))
    ]
    return out[0] if one else out


def ks_phi_diag_exact(p, tols: Tolerances = DEFAULT, cfg=None):
    """Exact KS classification of a diagonal channel.

    p is a DiagonalParams, giving a TriState, or an (N, 3) stack of
    parameter rows, giving a list of N TriStates, each the one its row
    gets alone (as every KS and CP decider of the boxed families).

    Fast path: the three closed-form inequalities (sufficient); when all
    rows satisfy them, nothing else runs.  Where one is violated the exact
    defect supremum decides (_ks_phi_fallback); see the module docstring
    for why the inequalities alone over-reject.  cfg is the oracle's
    SampleConfig for a witness that the supremum's phases miss; None
    means classify_full's default budget.
    """
    cols, one = _columns(p)
    res = diag_ks_residuals(*cols)
    held = all_hold(res, tols.positivity)
    holds = TriState(Status.HOLDS_EXACT, "diag KS inequalities hold")
    if one:
        # a lone row stays a (3,) array for the numpy re-verification
        return holds if held else _ks_phi_fallback(np.array(cols), res, tols, cfg)[0]
    out = [holds] * len(held)
    bad = np.flatnonzero(~held)
    if not bad.size:
        return out
    for i, tri in zip(bad.tolist(), _ks_phi_fallback(p[bad], res[:, bad], tols, cfg)):
        out[i] = tri
    return out


def _ks_phi_fallback(rows: np.ndarray, res: np.ndarray, tols: Tolerances, cfg) -> list:
    """The TriStates of ks_phi_diag_exact for rows (..., 3) that violate
    an inequality, res (3, ...) their residuals.  When the supremum fails
    any of them, every row gets its witness and its re-verified value in
    one stacked pass; only the failing rows use theirs."""
    worst = (res > tols.positivity).argmax(axis=0) + 1
    sup, n = diag_ks_defect_supremum(rows)
    fails = ~(sup <= tols.positivity)
    w, viol = np.zeros(n.shape), np.zeros(sup.shape)
    if fails.any():
        w = ks_witness_for_diag(rows, n)
        viol = _diag_defect_min_eigs(rows, w, tols)

    def verdict(row, k, s, failed, v, x) -> TriState:
        if not failed:
            return TriState(
                Status.HOLDS_EXACT,
                f"inequality {k} violated but defect supremum {s:.3e} <= 0 "
                "(the inequalities are sufficient-only)",
            )
        note = f"inequality {k} violated; defect supremum {s:.3e}"
        if v < -tols.ks_violation:
            return TriState(Status.FAILS, note, witness=(PauliElement(0.0, x), v))
        # the reconstructed phases can miss a very shallow supremum; a
        # certificate must violate KS, so take the oracle's or none at all
        from .oracle import SampleConfig, ks_violation_search

        budget = cfg or SampleConfig(n_samples=20000, seed=7, tol=tols.ks_violation)
        wit = ks_violation_search(QubitChannel(np.diag(row)), budget)
        if wit is None:
            return TriState(Status.FAILS, note + "; no witness re-verifies")
        return TriState(
            Status.FAILS, note + "; witness from the sampling oracle", witness=(wit.x, wit.violation)
        )

    per_row = (a.reshape(-1).tolist() for a in (worst, sup, fails, viol))
    return [verdict(r, *a, x) for r, *a, x in zip(rows.reshape(-1, 3), *per_row, w.reshape(-1, 3))]


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


# ---------------------------------------------------------------------------
# positivity of tensor maps
# ---------------------------------------------------------------------------


# evaluation points per step of the minimax; convexity keeps the minimiser
# between the neighbours of the best point, so a step shrinks the
# t-bracket by (_MINIMAX_POINTS + 1) / 2
_MINIMAX_POINTS = 15
# the t-bracket falls below float resolution after about 18 steps
_MINIMAX_STEPS = 40


def _balanced_top_vector(A, C, P, Q, t, vecs):
    """(||Aw|| + ||Cw||, w) for the best unit w built from the eigenvectors
    vecs (ascending) of P/t + Q/(1 - t).

    In the span of the top k = 1, 2, 3 eigenvectors, w mixes the extreme
    eigenvectors of the derivative form Q/(1 - t)^2 - P/t^2 so that w^T
    (Q/(1 - t)^2 - P/t^2) w = 0 (clipped when they do not straddle 0).
    Then t is optimal for w alone, and in a (possibly degenerate) top
    eigenspace ||Aw|| + ||Cw|| is the top eigenvalue's square root.
    """
    D = vecs.T @ (Q / (1.0 - t) ** 2 - P / t**2) @ vecs
    cands = [vecs[:, -1]]
    for k in (2, 3):
        d, e = np.linalg.eigh(D[-k:, -k:])
        c2 = min(max(d[-1] / (d[-1] - d[0]), 0.0), 1.0) if d[-1] > d[0] else 1.0
        cands.append(vecs[:, -k:] @ (math.sqrt(c2) * e[:, 0] + math.sqrt(1.0 - c2) * e[:, -1]))
    W = np.array(cands)
    W /= np.linalg.norm(W, axis=-1)[:, None]
    g = np.linalg.norm(W @ A.T, axis=-1) + np.linalg.norm(W @ C.T, axis=-1)
    k = int(np.argmax(g))
    return float(g[k]), W[k]


# step lengths of the ascent's line search, down to float resolution
_ASCENT_STEPS = 2.0 ** -np.arange(53.0)


def _ascent_step(A, C, P, Q, g, w):
    """(g, w) after one projected-gradient step of ||Aw|| + ||Cw|| from the
    unit w, where it is worth g: the best of the unit vectors along the
    projected gradient at the lengths _ASCENT_STEPS, or (g, w) itself when
    none is better.  Near an avoided crossing of P/t + Q/(1 - t) the
    eigenvector mix of _balanced_top_vector falls short of the supremum by
    more than 1e-12; these steps close that gap."""
    a, c = np.linalg.norm(A @ w), np.linalg.norm(C @ w)
    if not a + c > 0.0:
        return g, w
    grad = (P @ w / a if a > 0.0 else 0.0) + (Q @ w / c if c > 0.0 else 0.0)
    d = grad - (grad @ w) * w
    size = np.linalg.norm(d)
    if not size > 0.0:
        return g, w
    W = w + _ASCENT_STEPS[:, None] * (d / size)
    W /= np.linalg.norm(W, axis=-1)[:, None]
    vals = np.linalg.norm(W @ A.T, axis=-1) + np.linalg.norm(W @ C.T, axis=-1)
    k = int(np.argmax(vals))
    return (float(vals[k]), W[k]) if vals[k] > g else (g, w)


def tensor_positivity_steps(A, C):
    """Bounds on s = sup ||Aw|| + ||Cw|| over real unit w in R^3, tightened
    step by step.

    Since (a + b)^2 = min_{t in (0, 1)} a^2/t + b^2/(1 - t),

        s^2 = min_t lambda_max(P/t + Q/(1 - t)),   P = A^T A,  Q = C^T C,

    "<=" by weak duality, and "=" because the joint range of two real
    quadratic forms on the sphere of R^3 is convex (L. Brickman, Proc. AMS
    12 (1961) 61-66).  The right-hand side is convex in t; each step
    evaluates it on a grid of the t-bracket with one stacked 3x3 eigh and
    keeps the neighbours of the best point.  Each step yields the best
    bounds so far, (upper, t, lower, w): upper = lambda_max(P/t +
    Q/(1 - t))^(1/2) >= s, and lower = ||Aw|| + ||Cw|| <= s at the best
    unit w from _balanced_top_vector, raised by one _ascent_step per step.
    The caller stops once they decide.
    """
    P, Q = A.T @ A, C.T @ C
    lo, hi = 0.0, 1.0
    upper, t_best, lower, w_best = math.inf, 0.5, -1.0, None
    for _ in range(_MINIMAX_STEPS):
        grid = np.linspace(lo, hi, _MINIMAX_POINTS + 2)
        t = grid[1:-1, None, None]
        vals, vecs = np.linalg.eigh(P / t + Q / (1.0 - t))
        i = int(np.argmin(vals[:, -1]))
        if vals[i, -1] < upper**2:
            upper, t_best = math.sqrt(max(vals[i, -1], 0.0)), float(grid[i + 1])
        g, w = _balanced_top_vector(A, C, P, Q, grid[i + 1], vecs[i])
        if g > lower:
            lower, w_best = g, w
        lower, w_best = _ascent_step(A, C, P, Q, lower, w_best)
        yield upper, t_best, lower, w_best
        lo, hi = grid[i], grid[i + 2]


def positive_tensor(m: TensorMap, tols: Tolerances = DEFAULT) -> TriState:
    """Exact positivity of a tensor map: sup ||Aw|| + ||Cw|| <= 1 + tol.

    The image of the positive input 1 + w.s (real w, |w| <= 1) has
    smallest eigenvalue 1 - ||Aw|| - ||Cw||.  A = C reduces the supremum
    to 2||A||_op.  Otherwise tensor_positivity_steps runs until it decides:
    HOLDS_EXACT when lambda_max(A^T A/t + C^T C/(1 - t)) <= (1 + tol)^2 at
    the t* the note gives, FAILS with the witness (1 + w.s, ||Aw|| + ||Cw||)
    when that exceeds 1 + tol (w the top right singular vector when
    A = C).  A bracket narrower than tol that straddles 1 + tol counts as
    inside, as boundary maps do.
    """
    tol = tols.positivity
    if np.array_equal(m.A, m.C):
        op = float(np.linalg.norm(m.A, 2))
        note = f"A = C and 2||A||_op = {2 * op:.6g}"
        if 2.0 * op <= 1.0 + tol:
            return TriState(Status.HOLDS_EXACT, note + " <= 1")
        note, w = note + " > 1", np.linalg.svd(m.A)[2][0]
    else:
        for upper, t, lower, w in tensor_positivity_steps(m.A, m.C):
            if upper <= 1.0 + tol or lower > 1.0 + tol or upper - lower < tol:
                break
        if lower <= 1.0 + tol:
            return TriState(
                Status.HOLDS_EXACT,
                f"lambda_max(A^T A/t + C^T C/(1-t))^(1/2) = {upper:.10g} at t* = {t!r}",
            )
        note = f"unit w with ||Aw|| + ||Cw|| = {lower:.10g} > 1"
    value = float(np.linalg.norm(m.A @ w) + np.linalg.norm(m.C @ w))
    return TriState(Status.FAILS, note, witness=(PauliElement(1.0, w.astype(complex)), value))


# ---------------------------------------------------------------------------
# KS property, tensor maps
# ---------------------------------------------------------------------------


def _tensor_ks_margins(A: np.ndarray, C: np.ndarray, w: np.ndarray):
    """(rhs, lhs) of the tensor KS sufficient inequality at inputs w.

    Real arithmetic: w = u + iv gives [w, conj w] = -2i (u x v).
    """
    u, v = w.real, w.imag
    AC = np.concatenate([A, C]).T
    au, cu = np.split(linalg.thin_matmul(u, AC), 2, axis=-1)
    av, cv = np.split(linalg.thin_matmul(v, AC), 2, axis=-1)
    rhs = np.sum(u * u + v * v - 2.0 * (au * au + av * av + cu * cu + cv * cv), axis=-1)
    uv = np.cross(u, v)
    lhs = 2.0 * (
        np.linalg.norm(linalg.thin_matmul(uv, A.T) - 2.0 * np.cross(au, av), axis=-1)
        + np.linalg.norm(linalg.thin_matmul(uv, C.T) - 2.0 * np.cross(cu, cv), axis=-1)
    )
    return rhs, lhs


def ks_tensor_sufficient(
    m: TensorMap, n_samples: int = 20000, seed: int = 7, tols: Tolerances = DEFAULT
) -> TriState:
    """Sufficient KS test for tensor maps over probes plus random inputs.

    No decider calls it: classify_full decides tensor maps by the KS
    operator, then the oracle.  A violated hypothesis proves nothing about
    the map, so it yields INCONCLUSIVE.  Either condition counts as
    violated when it misses by more than tols.tensor_ks_slack.
    """
    from .oracle import sample_unit_sphere

    w = np.concatenate([ks_probe_vectors(), sample_unit_sphere(n_samples, seed)])
    w = w / np.linalg.norm(w, axis=-1)[:, None]
    rhs, lhs = _tensor_ks_margins(m.A, m.C, w)
    k = int(np.argmin(rhs))
    if rhs[k] < -tols.tensor_ks_slack:
        return TriState(
            Status.INCONCLUSIVE,
            f"gain condition violated: ||w||^2 - 2||Aw||^2 - 2||Cw||^2 = {rhs[k]:.3e}",
            witness=PauliElement(0.0, w[k]),
        )
    k = int(np.argmax(lhs - rhs))
    if lhs[k] - rhs[k] > tols.tensor_ks_slack:
        return TriState(
            Status.INCONCLUSIVE,
            f"bracket condition violated by {lhs[k] - rhs[k]:.3e}",
            witness=PauliElement(0.0, w[k]),
        )
    return TriState(
        Status.HOLDS_SUFFICIENT,
        f"sufficient inequalities hold on {len(w)} probed/sampled inputs",
    )


def ks_tensor_diag_sufficient(p, tols: Tolerances = DEFAULT):
    """Closed-form sufficient KS test for the diagonal tensor family; a
    DiagonalTensorParams or an (N, 3) stack of rows (see ks_phi_diag_exact)."""
    (l1, l2, l3), one = _columns(p)
    # the channel inequalities at 2*lam; doubling is exact
    return _decide(
        diag_ks_residuals(2.0 * l1, 2.0 * l2, 2.0 * l3), tols.positivity, one,
        TriState(Status.HOLDS_SUFFICIENT, "diagonal tensor KS inequalities hold"),
        lambda k, r, j: TriState(
            Status.INCONCLUSIVE,
            f"diagonal tensor KS inequality {k} violated by {r:.3e} (sufficient-only)",
        ),
    )


def ks_tlm_inequality(lam, mu, tol: float = DEFAULT.positivity):
    """The scalar-family KS sufficient inequality, broadcasting.

        |lam||1 - 2 lam| + |mu||1 - 2 mu| <= 1 - 2 lam^2 - 2 mu^2

    Returns (holds, lhs, rhs).  Floats in give floats out, which a lone
    row computes faster than 0-d arrays, with the same bits.
    """
    lhs = abs(lam) * abs(1.0 - 2.0 * lam) + abs(mu) * abs(1.0 - 2.0 * mu)
    rhs = 1.0 - 2.0 * lam * lam - 2.0 * mu * mu
    return lhs <= rhs + tol, lhs, rhs


def ks_scalar_interval_holds(lam, tol: float = DEFAULT.positivity):
    """lam in [-1/4, 1/2] (closed endpoints), broadcasting.

    Exactly where the scalar channel x -> w0 + 2*lam*w.s is Kadison-Schwarz.
    """
    lam = np.asarray(lam, dtype=float)
    return (lam >= -0.25 - tol) & (lam <= 0.5 + tol)


def ks_tlm(p, tols: Tolerances = DEFAULT):
    """The paper's scalar-family KS decision, which the agreement harness
    tests; a ScalarPairParams or an (N, 2) stack of rows (see
    ks_phi_diag_exact).

    The sufficient inequality first; when it is violated, the component
    rule: the tensor combination of two KS scalar channels is KS.
    Otherwise INCONCLUSIVE, and classify_full decides with ks_tlm_exact.
    The square [-1/4, 1/2]^2 of the rule lies inside the inequality's
    region, with equality at the corners (-1/4, -1/4), (1/2, -1/4) and
    (-1/4, 1/2), so the rule decides only slivers about tols.positivity
    (1e-9) wide outside those corners.
    """
    (lam, mu), one = _columns(p)
    components = ks_scalar_interval_holds(np.array([lam, mu]), tols.positivity).all(axis=0)
    both = TriState(
        Status.HOLDS_SUFFICIENT, "both scalar components are KS, so their tensor combination is"
    )

    def verdict(holds, lhs, rhs, comps) -> TriState:
        if holds:
            return TriState(
                Status.HOLDS_SUFFICIENT, f"scalar KS inequality holds ({lhs:.6g} <= {rhs:.6g})"
            )
        if comps:
            return both
        return TriState(
            Status.INCONCLUSIVE,
            f"scalar KS inequality violated ({lhs:.6g} > {rhs:.6g}); sufficient-only",
        )

    return _each(one, verdict, *ks_tlm_inequality(lam, mu, tols.positivity), components)


# the unit input x = w.s at which every scalar pair attains its smallest
# KS defect eigenvalue
_TLM_WITNESS = np.array([1.0, 1j, 0.0]) / math.sqrt(2.0)
_TLM_WITNESS.setflags(write=False)


def ks_tlm_exact(p, tols: Tolerances = DEFAULT):
    """Exact KS classification of the scalar family; a ScalarPairParams or
    an (N, 2) stack of rows (see ks_phi_diag_exact).

    The smallest KS-defect eigenvalue over all inputs is

        v = a - max(|alpha + beta|, sqrt((alpha - beta)^2 + 4 lam^2 mu^2)),

    a = 1 - lam^2 - mu^2, alpha = lam - lam^2, beta = mu - mu^2.  The
    defect ignores w0 and the phase and scale of w, and the map commutes
    with U (x) U for every unitary U, so rotations in SO(3) move w freely;
    every unit input thus reduces to w = (cos t, i sin t, 0), t in
    [0, pi/4].  There the defect D(t) commutes with s3 (x) s3, and its
    blocks on the two eigenspaces are

        a 1 - sin 2t (alpha +- beta) Z - 2 lam mu {cos 2t, 1} X.

    Their squared radii are linear in sin^2 2t, and at sin 2t = 1 the
    second block's radius is at least 2|lam mu|, their common value at
    t = 0; so the minimum is at t = pi/4, with the witness x = w.s,
    w = (1, i, 0)/sqrt 2.

    HOLDS_EXACT when v >= -tols.positivity, else FAILS with the witness
    (x, v).  A positivity failure by delta > tols.positivity (|lam| + |mu|
    = 1 + delta) is the defect -(2 delta + delta^2) at an axis input, so
    v is below that and the verdict FAILS, as _check_hierarchy requires.
    Squares are products and the root a hypot, so every parameter up to
    channels.MAX_PARAM gives a finite v, with no overflow.
    """
    (lam, mu), one = _columns(p)
    alpha, beta = lam - lam * lam, mu - mu * mu
    v = (1.0 - lam * lam - mu * mu) - np.maximum(
        abs(alpha + beta), np.hypot(alpha - beta, 2.0 * lam * mu)
    )
    tol = tols.positivity

    def verdict(v) -> TriState:
        note = f"smallest KS defect eigenvalue over all inputs = {v:.6g}"
        if v >= -tol:
            return TriState(Status.HOLDS_EXACT, f"{note} >= -{tol:.1g}")
        return TriState(
            Status.FAILS,
            f"{note} < -{tol:.1g}, at w = (1, i, 0)/sqrt2",
            witness=(PauliElement(0.0, _TLM_WITNESS), v),
        )

    return _each(one, verdict, float(v) if one else v)


# ---------------------------------------------------------------------------
# complete positivity
# ---------------------------------------------------------------------------


def cp_phi_residuals(l1, l2, l3):
    """LHS - RHS of the three exact CP inequalities of a diagonal channel.

    The Ruskai-Szarek-Werner tetrahedron (Linear Algebra Appl. 347 (2002)),
    broadcasting over floats or arrays; one value per inequality, not
    broadcast against the others (see all_hold); <= 0 means holds.
    Squares are products, which round as an array's square does, also on
    floats.
    """
    s, d, p, m = l1 + l2, l1 - l2, 1 + l3, 1 - l3
    first, second = s * s - p * p, d * d - m * m
    third = 4 * (l1 * l1 * l2 * l2 + l2 * l2 * l3 * l3 + l1 * l1 * l3 * l3 - 2 * l1 * l2 * l3)
    q = 1 - (l1 * l1 + l2 * l2 + l3 * l3)
    q *= q  # in place: on a scan grid, one full-size array fewer at the peak
    return first, second, third - q


def cp_phi_exact(p, tols: Tolerances = DEFAULT):
    """Exact CP test for diagonal channels (three closed-form inequalities);
    a DiagonalParams or an (N, 3) stack of rows (see ks_phi_diag_exact)."""
    cols, one = _columns(p)
    return _decide(
        np.array(cp_phi_residuals(*cols)), tols.positivity, one,
        TriState(Status.HOLDS_EXACT, "diagonal channel CP inequalities hold"),
        lambda k, r, j: TriState(
            Status.FAILS, f"diagonal channel CP inequality {k} violated by {r:.3e}"
        ),
    )


def cp_tensor_diag_residuals(l1, l2, l3):
    """LHS - RHS of the three exact CP inequalities, one value per
    inequality (broadcasting, as cp_phi_residuals)."""
    s, d = l1 + l2, l1 - l2
    return (
        2.0 * (s * s) - (1.0 + 2.0 * l3),
        2.0 * (d * d) - (1.0 - 2.0 * l3),
        4.0 * (l1 * l1 + l2 * l2 + l3 * l3) - (1.0 + 16.0 * l1 * l2 * l3),
    )


def cp_tensor_diag_exact(p, tols: Tolerances = DEFAULT):
    """Exact CP test for the diagonal tensor family; a DiagonalTensorParams
    or an (N, 3) stack of rows (see ks_phi_diag_exact).

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
    cols, one = _columns(p)
    return _decide(
        np.array(cp_tensor_diag_residuals(*cols)), tols.positivity, one,
        TriState(Status.HOLDS_EXACT, "tensor CP minors hold"),
        lambda k, r, j: TriState(Status.FAILS, f"tensor CP minor {k} violated by {r:.3e}"),
    )


def tlm_choi_eigenvalues(p: ScalarPairParams) -> np.ndarray:
    """Distinct analytic eigenvalues of the scalar-family Choi matrix.

    Values are for the un-halved block matrix; the assembled Choi matrix
    carries an extra factor 1/2.
    """
    root = math.sqrt(p.lam**2 - p.lam * p.mu + p.mu**2)
    s = p.lam + p.mu
    return np.array([s + 1.0 - 2.0 * root, s + 1.0 + 2.0 * root, 1.0 - s])


def cp_tlm_residuals(lam, mu):
    """LHS - RHS of the two exact CP inequalities of the scalar family.

        2 sqrt(lam^2 - lam mu + mu^2) <= lam + mu + 1,    lam + mu <= 1

    one value per inequality (broadcasting, as cp_phi_residuals); <= 0
    means holds.
    """
    root = np.sqrt(lam * lam - lam * mu + mu * mu)
    return -(lam + mu + 1.0 - 2.0 * root), lam + mu - 1.0


def cp_tlm_exact(p, tols: Tolerances = DEFAULT):
    """Exact CP test for the scalar family; a ScalarPairParams or an (N, 2)
    stack of rows (see ks_phi_diag_exact)."""
    (lam, mu), one = _columns(p)
    return _decide(
        np.array(cp_tlm_residuals(lam, mu)), tols.positivity, one,
        TriState(Status.HOLDS_EXACT, "scalar CP inequalities hold"),
        lambda k, r, j: TriState(
            Status.FAILS,
            f"lam+mu+1-2*sqrt(lam^2-lam*mu+mu^2) = {-r:.6g} < 0" if k == 1
            else f"lam+mu = {lam + mu if one else lam[j] + mu[j]:.6g} > 1",
        ),
    )


def choi_min_eigenvalues(choi, tols: Tolerances = DEFAULT):
    """Smallest eigenvalue of a Choi matrix, or of each in a stack (LAPACK).

    Raises ValueError on non-finite entries, and when a matrix deviates
    from its adjoint by more than tols.hermiticity relative to its largest
    entry (or 1).
    """
    choi = np.asarray(choi, dtype=complex)
    if not np.all(np.isfinite(choi)):
        raise ValueError("Choi matrix entries must be finite")
    dev = linalg.hermitian_deviation(choi)
    scale = np.maximum(1.0, np.max(np.abs(choi), axis=(-2, -1)))
    if np.any(dev > tols.hermiticity * scale):
        raise ValueError(f"Choi matrix is not Hermitian (deviation {float(np.max(dev)):.3e})")
    return linalg.batch_min_eigenvalue(choi)


def cp_choi_numeric(choi: np.ndarray, tols: Tolerances = DEFAULT) -> TriState:
    """CP via the sign of the smallest Choi eigenvalue."""
    low = float(choi_min_eigenvalues(choi, tols))
    if low >= -tols.positivity:
        note = f"min Choi eigenvalue {low:.6g} >= -{tols.positivity:.1g}"
        return TriState(Status.HOLDS_EXACT, note)
    return TriState(Status.FAILS, f"min Choi eigenvalue {low:.6g} < 0", witness=low)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def _positive_closed_form(value: float, label: str, tol: float, axis=None) -> TriState:
    """HOLDS_EXACT when a map's positivity value (its ||T||_op, or its
    sup ||Aw|| + ||Cw||) is at most 1 + tol, else FAILS; a tensor family's
    FAILS carries the witness 1 + e_axis.s, whose image has smallest
    eigenvalue 1 - value."""
    note = f"{label} = {value:.6g}"
    if value <= 1.0 + tol:
        return TriState(Status.HOLDS_EXACT, note + " <= 1")
    if axis is None:
        return TriState(Status.FAILS, note + " > 1")
    w = np.eye(3, dtype=complex)[axis]
    return TriState(Status.FAILS, note + " > 1", witness=(PauliElement(1.0, w), value))


def _positive_tdiag(p: DiagonalTensorParams, tols: Tolerances) -> TriState:
    """A = C = diag(l): sup ||Aw|| + ||Cw|| = 2 max |l_k|, attained at e_k
    for the first largest |l_k|."""
    mods = [abs(p.lam1), abs(p.lam2), abs(p.lam3)]
    op = max(mods)
    return _positive_closed_form(2.0 * op, "A = C and 2||A||_op", tols.positivity, mods.index(op))


def ks_by_oracle(kind: str, params, tols: Tolerances, cfg) -> TriState:
    """The KS verdict of the oracle, for a map that its KS decider leaves
    INCONCLUSIVE: FAILS with the sampled witness, or HOLDS_SUFFICIENT,
    either because the map's KS operator certifies every defect (the note
    gives lambda_min(H)) or because no sample violates.  It builds the
    map, and its template once (oracle.ks_search)."""
    from . import oracle

    low, wit = oracle.ks_search(map_for_descriptor(kind, params), cfg)
    if wit is not None:
        return TriState(Status.FAILS, f"oracle witness with violation {wit.violation:.3e}", witness=wit)
    if low is not None:
        note = oracle.CERTIFIED_NOTE.format(low)
        return TriState(Status.HOLDS_SUFFICIENT, f"oracle found no violation: {note}")
    return TriState(Status.HOLDS_SUFFICIENT, f"oracle found no violation in {cfg.n_samples} samples")


@dataclass(frozen=True)
class Deciders:
    """The positive, KS and CP deciders of one descriptor kind.

    Each is called as decider(params, tols, cfg), params the parameter
    record of the descriptor (the TensorMap itself for tmat), and returns
    a TriState; cfg is the oracle's SampleConfig.  No decider builds a
    map.  The KS and CP deciders of the boxed families (phi, tdiag, tlm)
    also take params as an (N, arity) stack of parameter rows and return
    a list of N TriStates, each the one its row gets alone: the agreement
    harness decides a whole grid with one call of each.  classify_full
    calls them with one record.

    A KS verdict of INCONCLUSIVE sends the agreement harness to the
    oracle, and classify_full to ks_settle, called as ks_settle(kind,
    params, tols, cfg): the oracle by default (ks_by_oracle), which
    builds the map; for tlm the exact closed form ks_tlm_exact, so the
    harness still tests the paper's inequality while classify_full
    settles the remaining tlm points exactly.
    """

    positive: Callable
    ks: Callable
    cp: Callable
    ks_settle: Callable = ks_by_oracle


# keyed like channels.FAMILIES; the entries look the deciders up when
# called, so replacing a module attribute (tracing, tests) reaches them
DECIDERS = {
    "phi": Deciders(
        positive=lambda p, tols, cfg: _positive_closed_form(
            max(abs(p.lam1), abs(p.lam2), abs(p.lam3)), "||T||_op", tols.positivity
        ),
        ks=lambda p, tols, cfg: ks_phi_diag_exact(p, tols, cfg),
        cp=lambda p, tols, cfg: cp_phi_exact(p, tols),
    ),
    "tdiag": Deciders(
        positive=lambda p, tols, cfg: _positive_tdiag(p, tols),
        ks=lambda p, tols, cfg: ks_tensor_diag_sufficient(p, tols),
        cp=lambda p, tols, cfg: cp_tensor_diag_exact(p, tols),
    ),
    "tlm": Deciders(
        # A = lam 1, C = mu 1: ||Aw|| + ||Cw|| = |lam| + |mu| at every unit w
        positive=lambda p, tols, cfg: _positive_closed_form(
            abs(p.lam) + abs(p.mu), "|lam| + |mu|", tols.positivity, 0
        ),
        ks=lambda p, tols, cfg: ks_tlm(p, tols),
        cp=lambda p, tols, cfg: cp_tlm_exact(p, tols),
        ks_settle=lambda kind, p, tols, cfg: ks_tlm_exact(p, tols),
    ),
    "tmat": Deciders(
        positive=lambda m, tols, cfg: positive_tensor(m, tols),
        ks=lambda m, tols, cfg: TriState(
            Status.INCONCLUSIVE, "no closed-form KS test for a general tensor map"
        ),
        cp=lambda m, tols, cfg: cp_choi_numeric(choi_matrix_tensor(m), tols),
    ),
}


def classify_full(
    descriptor, n_samples: int = 20000, seed: int = 7, tols: Tolerances = DEFAULT
) -> Verdict:
    """Classify a family descriptor at all three levels.

    Accepts the flat text form (``phi:...``) or a pre-parsed
    (kind, params) pair.  Each level uses the strongest test available
    for the family (see DECIDERS).  Where a KS decider is INCONCLUSIVE,
    its ks_settle step decides: for tlm the exact closed form, for the
    other kinds the oracle, through the map's KS operator when that
    certifies every defect and the sampled search otherwise.  Only the
    oracle builds a map.
    """
    from . import oracle

    kind, params = parse_descriptor(descriptor) if isinstance(descriptor, str) else descriptor
    deciders = DECIDERS[kind]
    cfg = oracle.SampleConfig(n_samples=n_samples, seed=seed, tol=tols.ks_violation)
    pos = deciders.positive(params, tols, cfg)
    ks = deciders.ks(params, tols, cfg)
    if ks.status is Status.INCONCLUSIVE:
        ks = deciders.ks_settle(kind, params, tols, cfg)
    cp = deciders.cp(params, tols, cfg)
    verdict = Verdict(positive=pos, kadison_schwarz=ks, completely_positive=cp)
    _check_hierarchy(verdict, tols)
    return verdict


def _check_hierarchy(v: Verdict, tols: Tolerances = DEFAULT) -> None:
    """CP implies KS implies positive; a contradiction is an internal error.

    A verdict that holds does so within its slack, so it may meet a
    failure one level down no deeper than that slack allows.  A failure
    without a witness value counts as deeper than any.

    CP and KS.  Read a CP verdict that holds as Choi eigenvalues >= -eps,
    eps = tols.positivity (the test of cp_choi_numeric).  Psi(x) = tr(x) 1
    has the identity as its Choi matrix, so map + eps Psi is CP, sends 1
    to c 1 with c = 1 + 2 eps and, by Stinespring, satisfies
    (map + eps Psi)(x)* (map + eps Psi)(x) <= c (map + eps Psi)(x*x).  At
    x = w.s with |w| = 1 (a unital map's defect ignores w0), tr x = 0,
    tr x*x = 2 and map(x*x) <= (map + eps Psi)(x*x) <= c ||x*x|| <= 2c, so

        D(x) >= -(c - 1) map(x*x) - 2 eps c >= -6 eps c.

    A KS witness no deeper than 6 eps (1 + 2 eps) is thus consistent with CP.

    KS and positivity.  A sufficient KS test holds within its tolerances,
    so it may meet a positivity failure by at most tols.ks_violation: a
    positivity witness 1 + w.s whose image has smallest eigenvalue -delta
    is a KS witness too, the defect at w.s having eigenvalue
    -(2 delta + delta^2).
    """
    ks = v.kadison_schwarz.status
    if v.completely_positive.status is Status.HOLDS_EXACT and ks is Status.FAILS:
        wit = v.kadison_schwarz.witness
        viol = wit[1] if isinstance(wit, tuple) else getattr(wit, "violation", -np.inf)
        eps = tols.positivity
        if viol < -6.0 * eps * (1.0 + 2.0 * eps):
            raise RuntimeError(f"hierarchy violation: CP holds but KS fails ({v})")
    if not v.kadison_schwarz.holds or v.positive.status is not Status.FAILS:
        return
    wit = v.positive.witness
    delta = wit[1] - 1.0 if isinstance(wit, tuple) else np.inf
    if ks is Status.HOLDS_EXACT or delta > tols.ks_violation:
        raise RuntimeError(f"hierarchy violation: KS holds but positivity fails ({v})")
