"""Definition-level brute-force verification.

Everything here works on matrices produced by the map under test and
knows nothing about the closed-form criteria: the Kadison-Schwarz
inequality map(x)* map(x) <= map(x*x) is sampled directly, and
positivity is sampled on positive inputs.  Verdicts therefore
cross-validate the closed-form classifiers.

Sampling is split into seed-derived chunks (np.random.SeedSequence
spawning), so the merged worst witness is deterministic for a fixed seed
regardless of how chunks are scheduled.  Each sampler writes every
chunk's draw into one preallocated output and scales it there, in one
pass.

The KS search takes unital maps only, as every map in scope is.  For a
linear, adjoint-preserving, unital map the defect does not change under
x -> x + t*1, so it samples x = w.s alone.  With B_k = map(s_k) on the
Pauli basis (1, s1, s2, s3), the defect there is

    map(x*x) - map(x)* map(x) = sum_kl conj(w_k) w_l H_kl,
    H_kl = delta_kl B_0 + i eps_klm B_m - B_k* B_l,

the blocks of the map's KS operator H (M.-D. Choi, Illinois J. Math. 18
(1974) 565-574).  Each map's template is H's nine Hermitian rows, built
once per search from its basis rows B_k, which are checked against its
evaluate_batch on a few seeded inputs (ValueError if the map is not
linear, or not unital).  A block of inputs is then contracted against
all maps of one output dimension with one real matrix product of nine
monomials per input; a block holds at most _CHUNK matrices, maps times
inputs, and must be Hermitian (LinAlgError otherwise; a bound from the
templates spares the entry-wise check).  The monomials of the inputs are
built once per chunk of at most _CHUNK inputs, a whole number of blocks.
A search contracts at most _TILE maps at a time, and the draw's last
block starts early rather than run short, so a block holds at least 8
inputs and every defect gets the bits it gets in a search of its map
alone.

The positivity search contracts the basis rows alone: its inputs are
x = 1 + w.s with real w, so map(x) = B_0 + sum_k w_k B_k.  It runs the KS
search's loop (_worst_defects) on one map, with the four basis rows as
its templates and the rows (1, w) in place of the monomials.  Both
searches take B_k from _basis_rows, so they share the linearity check
and the Hermiticity guard; the positivity search does not need a unital
map.

Both searches screen each map's matrices at a floor (linalg.screen_below)
and send only the rest to LAPACK.  The floor is -tol/2 until the map has a
LAPACK value below it, then that worst value so far; a block with many
candidates first takes a pilot of them to lower it.  A matrix screened out
has a LAPACK value above its floor, which is -tol/2 or the value of an
earlier input of the same map, so it is neither the first input attaining
the map's minimum below -tol nor tied with it: the witnesses are those of
an unscreened search.

Before any sampling, the KS search screens each map with its KS operator
H, unpacked from the same rows (_ks_operators, one eigvalsh per tile of
maps): lambda_min(D(w)) >= lambda_min(H) for unit w.  A map whose
computed lambda_min(H), less a rounding margin scaled by its largest
template entry (see _certified), is >= -tol/2, and whose template skew
is within the Hermiticity guard, gets None and joins no tile; when no
map is left, the sphere is not drawn.  Every defect eigenvalue the search
would compute for it lies at or above -tol/2, so an unscreened search
returns None too, and the other maps' witnesses do not depend on their
tile.  ks_search gives classify_full and `ksq oracle` both the
certificate and the search from one template build.

The positivity search skips a map in the same way, by its Choi matrix
J, assembled from the four basis rows it holds (_choi_certified): every
input 1 + w.s is positive with trace 2, so its output is >= 2
lambda_min(J).  A map whose computed lambda_min(J), less a rounding
margin, is >= -tol/4, and whose basis skew is within the Hermiticity
guard, gets None without drawing the ball.  It is CP up to that slack,
and CP => positive (M.-D. Choi, Linear Algebra Appl. 10 (1975) 285-290).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import channels, classify, linalg
from .pauli import PauliElement
from .tolerances import DEFAULT, DEFECT_HERMITICITY, LINEARITY, UNITALITY

_CHUNK = 8192
# maps per tile: a block then holds at least 8 inputs, and linalg.thin_matmul
# never narrows its product to fewer rows (see linalg._MIN_SLICE)
_TILE = _CHUNK // 8
# LAPACK values taken from a block's first candidates before the rest are
# screened again at the lowered floors (see _lowest_eigenvalues)
_PILOT = 32
# a KS verdict that fails needs an oracle witness below -_WITNESS_FLOOR
# to count as agreeing in agreement_harness
_WITNESS_FLOOR = 1e-6


@dataclass(frozen=True)
class SampleConfig:
    """Budget and threshold of a brute-force search.

    n_samples random inputs drawn from seed (a non-negative integer),
    after the deterministic probe set; a defect eigenvalue below -tol, a
    positive finite float, is a witness.
    """

    n_samples: int = 10000
    seed: int = 7
    tol: float = DEFAULT.ks_violation

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        if not (self.tol > 0 and np.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class Witness:
    """A violating input together with the worst defect eigenvalue."""

    x: PauliElement
    violation: float
    defect_kind: str  # "KS" or "Positivity"


def _substreams(n: int, seed: int):
    """(generator, rows) pairs covering range(n), one seed-derived substream per _CHUNK rows."""
    for i, child in enumerate(np.random.SeedSequence(seed).spawn((n + _CHUNK - 1) // _CHUNK)):
        yield np.random.default_rng(child), slice(i * _CHUNK, min(n, (i + 1) * _CHUNK))


def sample_unit_sphere(n: int, seed: int) -> np.ndarray:
    """n deterministic points on the unit sphere of C^3 (chunked substreams).

    Each chunk's six normals per row, real parts then imaginary ones, are
    written into the output and scaled there.  The norm is that of the
    complex rows, whose products numpy may round with fused multiply-adds;
    the scaling multiplies by its reciprocal in real arithmetic, as numpy
    divides a complex number by a real one.
    """
    out = np.empty((n, 3), dtype=complex)
    for g, rows in _substreams(n, seed):
        w = out[rows]
        z = g.normal(size=(len(w), 6))
        w.real, w.imag = z[:, :3], z[:, 3:]
        out.view(float)[rows] *= 1.0 / np.linalg.norm(w, axis=1)[:, None]
    return out


def sample_unit_ball(n: int, seed: int) -> np.ndarray:
    """n deterministic real vectors uniform in the closed unit ball
    (chunked substreams), each chunk drawn and scaled in the output."""
    out = np.empty((n, 3))
    for g, rows in _substreams(n, seed):
        v = out[rows]
        g.standard_normal(out=v)  # the draws of g.normal(size=v.shape)
        r = g.random(len(v)) ** (1.0 / 3.0)
        v /= np.linalg.norm(v, axis=1)[:, None]
        v *= r[:, None]
    return out


# seed of the inputs on which each map's template is checked against evaluate_batch
_LINEARITY_SEED = 20161
# the pairs k < l of the w coordinates
_PAIRS = np.triu_indices(3, 1)
# Levi-Civita symbol: s_k s_l = delta_kl 1 + i eps_klm s_m
_EPS = np.zeros((3, 3, 3))
_EPS[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_EPS[[0, 2, 1], [2, 1, 0], [1, 0, 2]] = -1.0
# max_n sum_j |r_nj| is 1 + sqrt(2) over _monomials rows at |w| = 1, and
# 1 + sqrt(3) over _ball_rows at |w| <= 1
_UNIT_ROWS = 6.0


def _basis_rows(map_obj) -> np.ndarray:
    """(4, d, d) basis rows B_k = map(s_k) on the Pauli basis (1, s1, s2, s3).

    Both searches contract them, so they need the map to be linear in
    (w0, w); it is checked against evaluate_batch on four seeded inputs,
    ValueError otherwise.
    """
    z = np.random.default_rng(_LINEARITY_SEED).normal(size=(4, 8))
    # (w0, w) rows: the basis, then the four seeded inputs
    x = np.concatenate([np.eye(4), z[:, :4] + 1j * z[:, 4:]])
    out = map_obj.evaluate_batch(x[:, 0], x[:, 1:])
    basis, direct = out[:4], out[4:]
    dev = float(np.max(np.abs(direct - np.einsum("nk,kij->nij", x[4:], basis))))
    if dev > LINEARITY * max(1.0, float(np.max(np.abs(direct)))):
        raise ValueError(f"map is not linear in (w0, w): template deviation {dev:.3e}")
    return basis


def _ks_template(map_obj) -> np.ndarray:
    """(9, d*d) rows of one map's KS operator: H_kk, then H_kl + H_lk and
    i(H_kl - H_lk) for k < l, where

        H_kl = delta_kl B_0 + i eps_klm B_m - B_k* B_l

    and B_k are the basis rows (_basis_rows).  All are Hermitian when the
    map preserves adjoints (H_kl* = H_lk), so _monomials can pair them with
    real coefficients.  ValueError when max |B_0 - 1| exceeds UNITALITY:
    the KS search fixes w0 = 0, which leaves the defect of a unital map
    unchanged and that of any other map not.
    """
    basis = _basis_rows(map_obj)
    dev = float(np.max(np.abs(basis[0] - np.eye(len(basis[0])))))
    if dev > UNITALITY:
        raise ValueError(f"map is not unital: max |map(1) - 1| = {dev:.3e}")
    b = basis[1:]
    ops = np.eye(3)[:, :, None, None] * basis[0] + 1j * np.einsum("klm,mij->klij", _EPS, b)
    ops -= np.conj(np.swapaxes(b, -1, -2))[:, None] @ b[None, :]
    k, l = _PAIRS
    upper, lower = ops[k, l], ops[l, k]
    rows = [ops[range(3), range(3)], upper + lower, 1j * (upper - lower)]
    return np.concatenate([r.reshape(len(r), -1) for r in rows])


def _monomials(w) -> np.ndarray:
    """(N, 9) real rows matching the template rows at x = w.s: |w_k|^2,
    then Re q_kl and Im q_kl for k < l, with q_kl = conj(w_k) w_l, so that
    the product is D(w) = sum_kl conj(w_k) w_l H_kl."""
    q = np.conj(w[:, _PAIRS[0]]) * w[:, _PAIRS[1]]
    return np.concatenate([np.abs(w) ** 2, q.real, q.imag], axis=1)


def _ball_rows(w) -> np.ndarray:
    """(N, 4) real rows (1, w) matching the basis rows at x = 1 + w.s for
    real w, so that the product is map(x) = B_0 + sum_k w_k B_k."""
    return np.concatenate([np.ones((len(w), 1)), w], axis=1)


def _template_skew(templates: np.ndarray, d: int) -> np.ndarray:
    """One bound per map: |D - D*| <= skew * max_n sum_j |r_nj| entry by
    entry for the computed D = sum_j r_j T_j: max |T_j - T_j*| plus the
    product's rounding, 80 eps >= 2 sqrt(2) gamma_9 per unit of max |T_j|
    for the at most 9 rows of either search."""
    t = templates.reshape(len(templates), -1, d, d)
    rounding = 80 * np.finfo(float).eps * np.max(np.abs(t), axis=(0, 2, 3))
    return np.max(linalg.hermitian_deviation(t), axis=0) + rounding


def _ks_operators(templates: np.ndarray, d: int) -> np.ndarray:
    """KS operators (P, 3d, 3d) of the P maps whose template rows are
    concatenated in templates (9, P*d*d), as in a tile of _worst_defects.

    H = sum_kl |k><l| (x) H_kl, unpacked from the rows: H_kk as they are,
    H_kl and H_lk as half the sum and difference of H_kl + H_lk and
    -i * i(H_kl - H_lk).  Its blocks are the ones the search contracts,
    D(w) = sum_kl conj(w_k) w_l H_kl, so <xi, D(w) xi> = <w (x) xi, H w (x) xi>.
    This is the one place H is assembled.
    """
    rows = templates.reshape(len(templates), -1, d, d)
    sym, skew = rows[3:6], rows[6:]
    ops = np.zeros((3, 3) + rows.shape[1:], dtype=complex)
    ops[range(3), range(3)] = rows[:3]
    k, l = _PAIRS
    ops[k, l] = 0.5 * (sym - 1j * skew)
    ops[l, k] = 0.5 * (sym + 1j * skew)
    return ops.transpose(2, 0, 3, 1, 4).reshape(-1, 3 * d, 3 * d)


def _certified(templates: np.ndarray, d: int, tol: float):
    """(flags, lambda_min(H)) per map of a tile: a flag says that its KS
    operator puts every defect the search would compute at unit w at or
    above -tol/2.

    lambda_min(D(w)) >= lambda_min(H) for unit w, as D(w) is H's
    quadratic form on w (x) xi.  A map is certified when lambda_min(H), as
    LAPACK computes it, less a margin, is >= -tol/2, and its template skew
    is within the guard of _defects.  With s the map's largest template
    entry, every entry of H is at most s and ||H|| <= 3d s.  The margin
    64 (3d)^2 eps s covers the assembly of H (a few eps s per entry),
    LAPACK's error on H (O(3d eps ||H||)), the product's rounding (80 eps s
    per entry and unit of sum_j |r_j| <= 1 + sqrt(2) < _UNIT_ROWS, as in
    _template_skew: under 480 d eps s in norm) and the error of the defect's
    own eigenvalue (O(d eps ||D||), ||D|| <= (1 + sqrt(2)) d s).  8 d skew
    more covers the non-Hermitian parts of H and of the defects, which the
    eigensolvers read from one triangle.  The margin grows with s, so a
    map with huge entries is not certified on rounding noise.
    """
    skew = _template_skew(templates, d)
    scale = np.max(np.abs(templates.reshape(len(templates), -1, d * d)), axis=(0, 2))
    margin = 64 * (3 * d) ** 2 * np.finfo(float).eps * scale + 8 * d * skew
    low = linalg.batch_min_eigenvalue(_ks_operators(templates, d))
    return (low - margin >= -tol / 2) & (skew * _UNIT_ROWS <= DEFECT_HERMITICITY), low


def _choi_certified(basis: np.ndarray, d: int, tol: float) -> bool:
    """True when the map's Choi matrix J puts every output eigenvalue the
    positivity search would compute at or above -tol/2.

    J = [[map(e11), map(e12)], [map(e21), map(e22)]], laid out as
    channels._unit_blocks, has the blocks (B_0 + B_3)/2, (B_1 + i B_2)/2,
    (B_1 - i B_2)/2 and (B_0 - B_3)/2 of the basis rows (4, d*d).  For an
    input x >= 0, <xi, map(x) xi> = tr J (x^T (x) xi xi*) >= lambda_min(J)
    tr x for unit xi, and every input 1 + w.s with |w| <= 1 is positive
    with trace 2, so its output is >= 2 lambda_min(J).  A map is certified
    when 2 (lambda_min(J) - margin) >= -tol/2, with lambda_min(J) as LAPACK
    computes it, and its basis skew is within the guard of _defects.  With
    s the map's largest basis entry, every entry of J is at most s and
    ||J|| <= 2d s.  The margin 64 (2d)^2 eps s covers the assembly of J
    (eps s per entry), LAPACK's error on J (O(2d eps ||J||)) and half the
    error of an output's eigenvalue: the product's rounding (80 eps s per
    entry and unit of sum_j |r_j| <= 1 + sqrt(3) < _UNIT_ROWS, as in
    _template_skew: under 480 d eps s in norm) and the eigensolver's
    (O(d eps ||map(x)||), ||map(x)|| <= (1 + sqrt(3)) d s).  8 d skew more
    covers the non-Hermitian parts of J and of the outputs, which the
    eigensolvers read from one triangle.  As in _certified, the margin
    grows with s.
    """
    skew = float(_template_skew(basis, d)[0])
    margin = 64 * (2 * d) ** 2 * np.finfo(float).eps * float(np.max(np.abs(basis))) + 8 * d * skew
    b0, b1, b2, b3 = basis.reshape(4, d, d)
    choi = 0.5 * np.block([[b0 + b3, b1 + 1j * b2], [b1 - 1j * b2, b0 - b3]])
    low = linalg.batch_min_eigenvalue(choi[None])[0]
    return bool(2 * (low - margin) >= -tol / 2 and skew * _UNIT_ROWS <= DEFECT_HERMITICITY)


def _defects(templates: np.ndarray, d: int, mono: np.ndarray, skew=None) -> np.ndarray:
    """KS defects (N, P, d, d) of the templated maps at the monomial rows.

    One real product: sum_kl conj(w_k) w_l H_kl is map(x*x) - map(x)* map(x)
    at x = w.s (_ks_template).  The positivity search contracts the basis
    rows alone, with rows (1, w), to get map(1 + w.s).  LinAlgError when
    the block is not Hermitian, as for a map that does not preserve
    adjoints.
    """
    defect = linalg.thin_matmul(mono, templates.view(float)).view(complex)
    defect = defect.reshape(len(mono), -1, d, d)
    skew = np.max(_template_skew(templates, d)) if skew is None else skew
    # the guard's threshold is at least DEFECT_HERMITICITY
    if skew * float(np.max(np.sum(np.abs(mono), axis=1))) <= DEFECT_HERMITICITY:
        return defect
    # |D - D*| entry by entry: twice the imaginary diagonal, then each pair
    # i < j once, which is cheaper than transposing the whole block
    dev = 2.0 * np.max(np.abs(np.diagonal(defect, axis1=-2, axis2=-1).imag))
    for i, j in zip(*np.triu_indices(d, 1)):
        dev = max(dev, np.max(np.abs(defect[..., i, j] - np.conj(defect[..., j, i]))))
    if dev > DEFECT_HERMITICITY * max(1.0, float(np.max(np.abs(defect)))):
        raise np.linalg.LinAlgError(f"contracted block lost Hermiticity ({dev:.3e})")
    return defect


def ks_defects(maps, w) -> np.ndarray:
    """KS defects map(x*x) - map(x)* map(x) at x = w[n].s, the same at
    x = w0*1 + w[n].s for any w0.

    maps are unital (ValueError otherwise) and share one output dimension
    d; w is (N, 3).  Returns the whole (N, len(maps), d, d) stack, so
    callers pick N and the number of maps to fit memory.
    """
    dims = {m.out_dim for m in maps}
    if len(dims) != 1:
        raise ValueError(f"maps must share one output dimension, got {sorted(dims)}")
    templates = np.concatenate([_ks_template(m) for m in maps], axis=1)
    return _defects(templates, dims.pop(), _monomials(np.asarray(w, dtype=complex)))


def _lowest_eigenvalues(stack: np.ndarray, floor) -> np.ndarray:
    """Smallest eigenvalues of a stack (N, ..., d, d) of N inputs to the
    maps on the middle axes, +inf where linalg.screen_below certifies them
    above floor, a scalar or one per map.  Past 2*_PILOT candidates, the
    first _PILOT go to LAPACK, each map's floor drops to the smallest value
    it got there, and the stack is screened again; only candidates of both
    screens go on to LAPACK.  A matrix left at +inf thus has a LAPACK value
    above its floor or above an earlier input's of its map, so it is never
    the first input attaining its map's minimum below floor.
    """
    d = stack.shape[-1]
    if d == 2:
        return linalg.batch_min_eigenvalue(stack)
    candidate = linalg.screen_below(stack, floor)
    pilot, vals = [], []
    if np.count_nonzero(candidate) > 2 * _PILOT:
        pilot = np.flatnonzero(candidate)[:_PILOT]
        vals = linalg.batch_min_eigenvalue(stack.reshape(-1, d, d)[pilot])
        maps = candidate[0].size
        lowest = np.full(maps, np.inf)
        np.minimum.at(lowest, pilot % maps, vals)
        candidate.flat[pilot] = False
        candidate &= linalg.screen_below(stack, np.minimum(floor, lowest.reshape(candidate.shape[1:])))
    out = np.full(candidate.shape, np.inf)
    out.flat[pilot] = vals
    if candidate.any():
        out[candidate] = linalg.batch_min_eigenvalue(stack[candidate])
    return out


def _worst_defects(templates: np.ndarray, d: int, w: np.ndarray, tol: float, monomials=None):
    """Smallest defect eigenvalue of each templated map over all inputs.

    Returns (values, first input index attaining each); +inf for a map
    whose defects all screen above -tol/2.  The templates are contracted
    with the real rows that monomials builds from the inputs: _monomials
    when None (the KS search), _ball_rows for the positivity search, which
    passes one map's basis rows as its templates.  Each block holds at
    most _CHUNK matrices, maps times inputs; its rows come from one
    monomials call per chunk of at most _CHUNK inputs.  No block or chunk
    holds fewer than linalg._MIN_SLICE inputs when the draw has that many:
    the last one starts earlier, and its inputs seen before go no further
    than the product.  The caller passes at most _TILE maps.

    Each map's defects are screened at min(-tol/2, its worst value so far),
    a LAPACK value of an earlier input; while no map has a value below
    -tol/2, at the scalar -tol/2.  A screened-out defect lies above its
    floor, so it can neither be a map's minimum nor tie with it.
    """
    monomials = monomials or _monomials
    p = templates.shape[1] // (d * d)
    rows = _CHUNK // p
    chunk = rows * (_CHUNK // rows)  # a whole number of blocks
    cols = np.arange(p)
    skew = np.max(_template_skew(templates, d))
    best = np.full(p, np.inf)
    arg = np.zeros(p, dtype=int)
    done = 0  # inputs searched so far
    for c in linalg.slices(len(w), chunk):
        mono = monomials(w[c])
        for b in linalg.slices(len(mono), rows):
            block = mono[b]
            seen = done - c.start - b.start  # a last block that starts early
            low = best < -tol / 2
            floor = np.where(low, best, -tol / 2) if low.any() else -tol / 2
            eigs = _lowest_eigenvalues(_defects(templates, d, block, skew)[seen:], floor)
            k = np.argmin(eigs, axis=0)
            vals = eigs[k, cols]
            better = vals < best
            best[better] = vals[better]
            arg[better] = done + k[better]
            done += len(block) - seen
    return best, arg


# how a caller reports a map that its KS operator certifies, formatted with lambda_min(H)
CERTIFIED_NOTE = (
    "the KS operator certifies every defect (lambda_min(H) = {:.6g} >= -tol/2), no sample drawn"
)


def ks_certified(map_obj, cfg: SampleConfig = SampleConfig()) -> Optional[float]:
    """lambda_min of the map's KS operator H when ks_violation_search
    returns None for map_obj without sampling, None otherwise: H puts
    every defect the search would compute at or above -cfg.tol/2 (see
    _certified).  The value may be 0, so test it with `is not None`."""
    ok, low = _certified(_ks_template(map_obj), map_obj.out_dim, cfg.tol)
    return float(low[0]) if ok[0] else None


def _ks_search_many(maps, cfg: SampleConfig):
    """(lows, witnesses) of a list of maps, one template build each: lows
    holds ks_certified's value per map, witnesses ks_violation_search's."""
    maps = list(maps)
    templates = [_ks_template(m) for m in maps]

    def stack(idx):
        return np.concatenate([templates[i] for i in idx], axis=1)

    # tiles of at most _TILE maps with one output dimension; a map that
    # its KS operator certifies joins none
    groups = {}
    for i, m in enumerate(maps):
        groups.setdefault(m.out_dim, []).append(i)
    lows = [None] * len(maps)
    tiles = []
    for d, idx in groups.items():
        left = []
        for part in (idx[lo : lo + _TILE] for lo in range(0, len(idx), _TILE)):
            for i, ok, low in zip(part, *_certified(stack(part), d, cfg.tol)):
                if ok:
                    lows[i] = float(low)
                else:
                    left.append(i)
        tiles += [(d, left[lo : lo + _TILE]) for lo in range(0, len(left), _TILE)]
    found = [None] * len(maps)
    if not tiles:
        return lows, found

    probes = classify.ks_probe_vectors()
    probes = probes / np.linalg.norm(probes, axis=1)[:, None]
    w = np.concatenate([probes, sample_unit_sphere(cfg.n_samples, cfg.seed)])
    for d, tile in tiles:
        vals, args = _worst_defects(stack(tile), d, w, cfg.tol)
        for i, v, a in zip(tile, vals, args):
            if v < -cfg.tol:
                # a copy: a view of w would keep the whole draw alive
                found[i] = Witness(PauliElement(0j, w[a].copy()), float(v), "KS")
    return lows, found


def ks_violation_search_many(maps, cfg: SampleConfig = SampleConfig()) -> list:
    """ks_violation_search for every map of a list, on one shared draw.

    Returns one Optional[Witness] per map, in order.  Maps with the same
    output dimension share each template contraction, so a block of
    inputs costs one matrix product for all of them.  A map that its KS
    operator certifies (_certified) is None without sampling; when every
    map is, nothing is drawn.
    """
    return _ks_search_many(maps, cfg)[1]


def ks_violation_search(map_obj, cfg: SampleConfig = SampleConfig()) -> Optional[Witness]:
    """Search for an input violating map(x)* map(x) <= map(x*x).

    The map must be unital (ValueError otherwise), so the defect is
    evaluated at w0 = 0 only: on the deterministic probe set and
    cfg.n_samples random unit vectors.  Returns the worst witness (the
    first input attaining the smallest defect eigenvalue) when it drops
    below -cfg.tol; None without sampling when the map's KS operator puts
    every such defect at or above -cfg.tol/2.
    """
    return ks_violation_search_many([map_obj], cfg)[0]


def ks_search(
    map_obj, cfg: SampleConfig = SampleConfig()
) -> tuple[Optional[float], Optional[Witness]]:
    """(ks_certified, ks_violation_search) of one map from one template
    build: (lambda_min(H), None) when its KS operator certifies it, else
    (None, the search's witness or None)."""
    (low,), (wit,) = _ks_search_many([map_obj], cfg)
    return low, wit


def positivity_violation_search(map_obj, cfg: SampleConfig = SampleConfig()) -> Optional[Witness]:
    """Search for a positive input mapped to a non-positive output.

    Inputs are x = 1 + w.s with real w in the closed unit ball (positive
    by construction), after the six axis boundary points.  The outputs
    map(x) = B_0 + sum_k w_k B_k come from the basis rows (_basis_rows),
    contracted with the rows (1, w) (_ball_rows) in the KS search's loop,
    _worst_defects, as a tile of one map.  The guards are those of the KS
    search: ValueError for a map that is not linear, LinAlgError for
    outputs that are not Hermitian.  Returns the first input attaining
    the smallest output eigenvalue when it drops below -cfg.tol; None
    without sampling when the map's Choi matrix puts every such output
    eigenvalue at or above -cfg.tol/2 (_choi_certified).
    """
    d = map_obj.out_dim
    basis = np.ascontiguousarray(_basis_rows(map_obj), dtype=complex).reshape(4, d * d)
    if _choi_certified(basis, d, cfg.tol):
        return None
    w = np.concatenate([np.eye(3), -np.eye(3), sample_unit_ball(cfg.n_samples, cfg.seed)])
    vals, args = _worst_defects(basis, d, w, cfg.tol, _ball_rows)
    if vals[0] < -cfg.tol:
        return Witness(PauliElement(1.0, w[args[0]]), float(vals[0]), "Positivity")
    return None


# ---------------------------------------------------------------------------
# agreement harness: exact/sufficient classifiers vs the oracle
# ---------------------------------------------------------------------------


@dataclass
class HarnessReport:
    family: str
    grid: int
    agree: int = 0
    resolved_by_oracle: int = 0
    discrepancies: int = 0
    details: list = field(default_factory=list)

    def note(self, kind: str, where, info: str) -> None:
        self.details.append((kind, where, info))


def agreement_harness(family: str, grid: int, cfg: SampleConfig = SampleConfig()) -> HarnessReport:
    """Cross-validate the family classifiers against the oracle on a grid.

    The grid spans the family's harness box in every parameter (grid >= 1
    points per axis).  The CP verdict of each point must match the sign of
    its Choi spectrum.  The KS verdict is checked against the oracle
    unless it is INCONCLUSIVE, which counts as resolved by the oracle: a
    verdict that holds must leave the oracle clean, and one that fails
    needs an oracle witness below -_WITNESS_FLOOR (1e-6).  The family's KS
    and CP deciders each take the whole grid as one (N, arity) stack of
    parameter rows; map objects are built only for the points sent to the
    oracle, all in one ks_violation_search_many call, so they share one
    draw.
    """
    fam = channels.FAMILIES.get(family)
    if fam is None or fam.box is None:
        boxed = ", ".join(k for k, f in channels.FAMILIES.items() if f.box is not None)
        raise ValueError(f"unknown family {family!r} (expected one of {boxed})")
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    deciders = classify.DECIDERS[family]
    report = HarnessReport(family=family, grid=grid)
    axis = np.linspace(*fam.box, grid)
    pts = np.stack(np.meshgrid(*[axis] * fam.arity, indexing="ij"), axis=-1).reshape(-1, fam.arity)
    min_eigs = classify.choi_min_eigenvalues(fam.choi(pts))
    cps = deciders.cp(pts, DEFAULT, cfg)
    kss = deciders.ks(pts, DEFAULT, cfg)
    asked = [
        fam.map(fam.params(pt))
        for pt, ks in zip(pts, kss)
        if ks.status is not classify.Status.INCONCLUSIVE
    ]
    witnesses = iter(ks_violation_search_many(asked, cfg))
    for pt, min_eig, cp, ks in zip(pts, min_eigs, cps, kss):
        where = tuple(pt)
        if (cp.status is classify.Status.HOLDS_EXACT) != (min_eig >= -DEFAULT.positivity):
            report.discrepancies += 1
            report.note("cp", where, f"exact={cp.status.value} min_eig={min_eig:.3e}")
        else:
            report.agree += 1
        if ks.status is classify.Status.INCONCLUSIVE:
            report.resolved_by_oracle += 1
            continue
        wit = next(witnesses)
        if ks.holds:
            if wit is None:
                report.agree += 1
            else:
                report.discrepancies += 1
                report.note("ks", where, f"{ks.status.value}, oracle {wit.violation:.3e}")
        elif wit is not None and wit.violation < -_WITNESS_FLOOR:
            report.agree += 1
        else:
            report.discrepancies += 1
            report.note("ks", where, "closed form fails, oracle found no witness")
    return report
