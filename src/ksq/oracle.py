"""Definition-level brute-force verification.

Everything here works on matrices produced by the map under test and
knows nothing about the closed-form criteria: the Kadison-Schwarz
inequality map(x)* map(x) <= map(x*x) is sampled directly, and
positivity is sampled on positive inputs.  Verdicts therefore
cross-validate the closed-form classifiers.

Sampling is split into seed-derived chunks (np.random.SeedSequence
spawning), so the merged worst witness is deterministic for a fixed seed
regardless of how chunks are scheduled.

The KS defect is a template contraction.  Every map in scope is linear in
(w0, w), so with B_k = map(s_k) on the Pauli basis (1, s1, s2, s3) and
G_kl = B_k* B_l,

    map(x*x) - map(x)* map(x) = sum_k c_k B_k - sum_kl conj(x_k) x_l G_kl

where c are the coefficients of x*x.  Each map's templates are built
once per search, and checked against its evaluate_batch on a few seeded
inputs (ValueError if the map is not linear).  A block of inputs is then
contracted against all maps of one output dimension with one real matrix
product; a block holds at most _CHUNK matrices, maps times inputs, and
must be Hermitian (LinAlgError otherwise; a bound from the templates
spares the entry-wise check).  The monomials of the inputs are built once
per chunk of at most _CHUNK inputs, a whole number of blocks.  A search
contracts at most _TILE maps at a time, and the draw's last block starts
early rather than run short, so a block holds at least 8 inputs and every
defect gets the bits it gets in a search of its map alone.

Both searches screen each map's matrices at a floor (linalg.screen_below)
and send only the rest to LAPACK.  The floor is -tol/2 until the map has a
LAPACK value below it, then that worst value so far; a block with many
candidates first takes a pilot of them to lower it.  A matrix screened out
has a LAPACK value above its floor, which is -tol/2 or the value of an
earlier input of the same map, so it is neither the first input attaining
the map's minimum below -tol nor tied with it: the witnesses are those of
an unscreened search.

Before any sampling, the KS search screens each w0-free map with its KS
operator H (_ks_operators, one eigvalsh per tile of maps), which bounds
every defect it would compute at once: lambda_min(D(w)) >= lambda_min(H)
for unit w, with no unitality needed at w0 = 0.  A map whose computed
lambda_min(H), less a rounding margin scaled by its largest template
entry (see _certified), is >= -tol/2, and whose template skew is within
the Hermiticity guard, gets None and joins no tile; when no map is left,
the sphere is not drawn.  Every defect eigenvalue the search would
compute for it lies at or above -tol/2, so an unscreened search returns
None too, and the other maps' witnesses do not depend on their tile.
Maps with sampled w0 and the positivity search are not screened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import channels, classify, linalg
from .channels import QubitChannel, TensorMap
from .pauli import PauliElement, star_square_coeffs
from .tolerances import DEFAULT, DEFECT_HERMITICITY, LINEARITY, SHIFT_REDUCTION

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

    n_samples random inputs drawn from seed, after the deterministic
    probe set; a defect eigenvalue below -tol is a witness.
    """

    n_samples: int = 10000
    seed: int = 7
    tol: float = DEFAULT.ks_violation

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class Witness:
    """A violating input together with the worst defect eigenvalue."""

    x: PauliElement
    violation: float
    defect_kind: str  # "KS" or "Positivity"


def _substreams(n: int, seed: int):
    """(generator, rows) pairs covering n rows, one seed-derived substream per _CHUNK rows."""
    for i, child in enumerate(np.random.SeedSequence(seed).spawn((n + _CHUNK - 1) // _CHUNK)):
        yield np.random.default_rng(child), min(_CHUNK, n - i * _CHUNK)


def sample_unit_sphere(n: int, seed: int) -> np.ndarray:
    """n deterministic points on the unit sphere of C^3 (chunked substreams)."""
    chunks = []
    for g, take in _substreams(n, seed):
        z = g.normal(size=(take, 6))
        w = z[:, :3] + 1j * z[:, 3:]
        w /= np.linalg.norm(w, axis=1)[:, None]
        chunks.append(w)
    return np.concatenate(chunks)


def sample_unit_ball(n: int, seed: int) -> np.ndarray:
    """n deterministic real vectors uniform in the closed unit ball."""
    chunks = []
    for g, take in _substreams(n, seed):
        v = g.normal(size=(take, 3))
        r = g.random(take) ** (1.0 / 3.0)
        chunks.append(v / np.linalg.norm(v, axis=1)[:, None] * r[:, None])
    return np.concatenate(chunks)


# seed of the inputs on which each map's template is checked against evaluate_batch
_LINEARITY_SEED = 20161
_PAIRS = np.triu_indices(4, 1)


def _ks_template(map_obj) -> np.ndarray:
    """(20, d*d) template rows of one map: B_k = map(s_k) on the Pauli
    basis s_k, then G_kk, then G_kl + G_lk and i(G_kl - G_lk) for k < l,
    where G_kl = B_k* B_l.  All are Hermitian when the map preserves
    adjoints, so _monomials can pair them with real coefficients.

    The template path needs the map to be linear in (w0, w); it is checked
    against evaluate_batch on four seeded inputs, ValueError otherwise.
    """
    z = np.random.default_rng(_LINEARITY_SEED).normal(size=(4, 8))
    # (w0, w) rows: the basis, then the four seeded inputs
    x = np.concatenate([np.eye(4), z[:, :4] + 1j * z[:, 4:]])
    out = map_obj.evaluate_batch(x[:, 0], x[:, 1:])
    basis, direct = out[:4], out[4:]
    dev = float(np.max(np.abs(direct - np.einsum("nk,kij->nij", x[4:], basis))))
    if dev > LINEARITY * max(1.0, float(np.max(np.abs(direct)))):
        raise ValueError(f"map is not linear in (w0, w): template deviation {dev:.3e}")
    gram = np.conj(np.swapaxes(basis, -1, -2))[:, None] @ basis[None, :]
    k, l = _PAIRS
    upper, lower = gram[k, l], gram[l, k]
    rows = [basis, gram[range(4), range(4)], upper + lower, 1j * (upper - lower)]
    return np.concatenate([r.reshape(len(r), -1) for r in rows])


def _monomials(w0, w) -> np.ndarray:
    """(N, 20) real rows matching the template rows, for x = w0*1 + w.s.

    x*x = c.(1, s) has real c since x*x is self-adjoint; with
    q_kl = conj(x_k) x_l the rows are c_k, -q_kk, then -Re q_kl and
    -Im q_kl for k < l.
    """
    c0, cvec = star_square_coeffs(w0, w)
    x = np.concatenate([np.asarray(w0, dtype=complex)[:, None], w], axis=1)
    q = np.conj(x[:, _PAIRS[0]]) * x[:, _PAIRS[1]]
    cols = [c0.real[:, None], cvec.real, -np.abs(x) ** 2, -q.real, -q.imag]
    return np.concatenate(cols, axis=1)


def _template_skew(templates: np.ndarray, d: int) -> np.ndarray:
    """One bound per map: |D - D*| <= skew * max_n sum_j |r_nj| entry by
    entry for the computed D = sum_j r_j T_j: max |T_j - T_j*| plus the
    product's rounding, 80 eps >= 2 sqrt(2) gamma_20 per unit of max |T_j|."""
    t = templates.reshape(len(templates), -1, d, d)
    rounding = 80 * np.finfo(float).eps * np.max(np.abs(t), axis=(0, 2, 3))
    return np.max(linalg.hermitian_deviation(t), axis=0) + rounding


# Levi-Civita symbol: s_k s_l = delta_kl 1 + i eps_klm s_m
_EPS = np.zeros((3, 3, 3))
_EPS[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_EPS[[0, 2, 1], [2, 1, 0], [1, 0, 2]] = -1.0
# max_n sum_j |r_nj| over _monomials rows at w0 = 0, |w| = 1: 4 + sqrt(2)
_UNIT_ROWS = 6.0


def _ks_operators(templates: np.ndarray, d: int) -> np.ndarray:
    """KS operators (P, 3d, 3d) of the P maps whose template rows are
    concatenated in templates (20, P*d*d), as in a tile of _worst_defects.

    H = sum_kl |k><l| (x) H_kl with H_kl = delta_kl B_0 + i eps_klm B_m - G_kl,
    G_kl read off the template rows, so that the defect contraction at
    x = w.s is exactly D(w) = sum_kl conj(w_k) w_l H_kl (see
    classify.ks_operator).
    """
    rows = templates.reshape(len(templates), -1, d, d)
    basis, sym, skew = rows[:4], rows[8:14], rows[14:]
    # rows 8.. hold G_kl + G_lk, then i(G_kl - G_lk), for the pairs k < l
    gram = np.zeros((4, 4) + rows.shape[1:], dtype=complex)
    gram[range(4), range(4)] = rows[4:8]
    k, l = _PAIRS
    gram[k, l] = 0.5 * (sym - 1j * skew)
    gram[l, k] = 0.5 * (sym + 1j * skew)
    eye = np.eye(3)[:, :, None, None, None]
    blocks = eye * basis[0] + 1j * np.einsum("klm,mpij->klpij", _EPS, basis[1:])
    blocks -= gram[1:, 1:]
    return blocks.transpose(2, 0, 3, 1, 4).reshape(-1, 3 * d, 3 * d)


def _certified(templates: np.ndarray, d: int, tol: float) -> np.ndarray:
    """One flag per map of a tile: its KS operator puts every defect the
    search would compute at w0 = 0 and unit w at or above -tol/2.

    lambda_min(D(w)) >= lambda_min(H) for unit w, with no unitality needed
    at w0 = 0.  A map is certified when lambda_min(H), as LAPACK computes
    it, less a margin, is >= -tol/2, and its template skew is within the
    guard of _defects.  With s the map's largest template entry, the
    margin is 64 (3d)^2 eps s: it covers the assembly of H (a few eps s per
    entry), LAPACK's error on H (O(3d eps ||H||), ||H|| <= 6 d s), the
    product's rounding (80 eps s per unit of sum_j |r_j| <= _UNIT_ROWS, as
    in _template_skew) and the error of the defect's own eigenvalue
    (O(d eps ||D||), ||D|| <= 6 d s).  8 d skew more covers the
    non-Hermitian parts of H and of the defects, which the eigensolvers
    read from one triangle.  The margin grows with s, so a map with huge
    entries is not certified on rounding noise.
    """
    skew = _template_skew(templates, d)
    scale = np.max(np.abs(templates.reshape(len(templates), -1, d * d)), axis=(0, 2))
    margin = 64 * (3 * d) ** 2 * np.finfo(float).eps * scale + 8 * d * skew
    low = linalg.batch_min_eigenvalue(_ks_operators(templates, d))
    return (low - margin >= -tol / 2) & (skew * _UNIT_ROWS <= DEFECT_HERMITICITY)


def _defects(templates: np.ndarray, d: int, mono: np.ndarray, skew=None) -> np.ndarray:
    """KS defects (N, P, d, d) of the templated maps at the monomial rows.

    One real product: sum_k c_k B_k - sum_kl conj(x_k) x_l G_kl is
    map(x*x) - map(x)* map(x).  LinAlgError when the block is not
    Hermitian, as for a map that does not preserve adjoints.
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
        raise np.linalg.LinAlgError(f"KS defect lost Hermiticity ({dev:.3e})")
    return defect


def ks_defects(maps, w0, w) -> np.ndarray:
    """KS defects map(x*x) - map(x)* map(x) at x = w0[n]*1 + w[n].s.

    maps share one output dimension d; w0 is (N,) or a scalar, w is
    (N, 3).  Returns the whole (N, len(maps), d, d) stack, so callers
    pick N and the number of maps to fit memory.
    """
    dims = {m.out_dim for m in maps}
    if len(dims) != 1:
        raise ValueError(f"maps must share one output dimension, got {sorted(dims)}")
    templates = np.concatenate([_ks_template(m) for m in maps], axis=1)
    w = np.asarray(w, dtype=complex)
    w0 = np.broadcast_to(np.asarray(w0, dtype=complex), w.shape[:1])
    return _defects(templates, dims.pop(), _monomials(w0, w))


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


def _worst_defects(templates: np.ndarray, d: int, w0: np.ndarray, w: np.ndarray, tol: float):
    """Smallest defect eigenvalue of each templated map over all inputs.

    Returns (values, first input index attaining each); +inf for a map
    whose defects all screen above -tol/2.  Each block holds at most
    _CHUNK matrices, maps times inputs; its monomials come from one
    _monomials call per chunk of at most _CHUNK inputs.  No block or chunk
    holds fewer than linalg._MIN_SLICE inputs when the draw has that many:
    the last one starts earlier, and its inputs seen before go no further
    than the product.  The caller passes at most _TILE maps.

    Each map's defects are screened at min(-tol/2, its worst value so far),
    a LAPACK value of an earlier input; while no map has a value below
    -tol/2, at the scalar -tol/2.  A screened-out defect lies above its
    floor, so it can neither be a map's minimum nor tie with it.
    """
    p = templates.shape[1] // (d * d)
    rows = _CHUNK // p
    chunk = rows * (_CHUNK // rows)  # a whole number of blocks
    cols = np.arange(p)
    skew = np.max(_template_skew(templates, d))
    best = np.full(p, np.inf)
    arg = np.zeros(p, dtype=int)
    done = 0  # inputs searched so far
    for c in linalg.slices(len(w), chunk):
        mono = _monomials(w0[c], w[c])
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


def _shift_reduction_holds(templates: np.ndarray, d: int, seed: int) -> bool:
    """Check D(x + t*1) == D(x) on a few random inputs.

    The w0 = 0 restriction of the sampler is exact for the families in
    scope; generic closures are re-verified here before it is relied on.
    """
    g = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    z = g.normal(size=(4, 6))
    w = z[:, :3] + 1j * z[:, 3:]
    w /= np.linalg.norm(w, axis=1)[:, None]
    t = (g.normal(size=4) + 1j * g.normal(size=4)).astype(complex)
    base, shifted = (
        linalg.batch_min_eigenvalue(_defects(templates, d, _monomials(w0, w))).real
        for w0 in (np.zeros(4, dtype=complex), t)
    )
    return bool(np.max(np.abs(base - shifted)) <= SHIFT_REDUCTION)


def _w0_free(map_obj, template: np.ndarray, seed: int) -> bool:
    """The KS search may fix w0 = 0 for this map."""
    return isinstance(map_obj, (QubitChannel, TensorMap)) or _shift_reduction_holds(
        template, map_obj.out_dim, seed
    )


def ks_certified(map_obj, cfg: SampleConfig = SampleConfig()) -> bool:
    """True when ks_violation_search returns None for map_obj without
    sampling: the map is w0-free and its KS operator puts every defect the
    search would compute at or above -cfg.tol/2 (see _certified)."""
    t = _ks_template(map_obj)
    return _w0_free(map_obj, t, cfg.seed) and bool(_certified(t, map_obj.out_dim, cfg.tol)[0])


def ks_violation_search_many(maps, cfg: SampleConfig = SampleConfig()) -> list:
    """ks_violation_search for every map of a list, on one shared draw.

    Returns one Optional[Witness] per map, in order.  Maps with the same
    output dimension and w0 treatment share each template contraction,
    so a block of inputs costs one matrix product for all of them.  A
    w0-free map that its KS operator certifies (_certified) is None
    without sampling; when every map is, nothing is drawn.
    """
    maps = list(maps)
    if not maps:
        return []
    templates = [_ks_template(m) for m in maps]
    w0_free = [_w0_free(m, t, cfg.seed) for m, t in zip(maps, templates)]

    def stack(idx):
        return np.concatenate([templates[i] for i in idx], axis=1)

    # tiles of at most _TILE maps with one output dimension and w0
    # treatment; a w0-free map that its KS operator certifies joins none
    groups = {}
    for i, m in enumerate(maps):
        groups.setdefault((w0_free[i], m.out_dim), []).append(i)
    tiles = []
    for (free, d), idx in groups.items():
        if free:
            parts = [idx[lo : lo + _TILE] for lo in range(0, len(idx), _TILE)]
            ok = np.concatenate([_certified(stack(part), d, cfg.tol) for part in parts])
            idx = [i for i, skip in zip(idx, ok) if not skip]
        tiles += [(free, d, idx[lo : lo + _TILE]) for lo in range(0, len(idx), _TILE)]
    found = [None] * len(maps)
    if not tiles:
        return found

    probes = classify.ks_probe_vectors()
    probes = probes / np.linalg.norm(probes, axis=1)[:, None]
    w = np.concatenate([probes, sample_unit_sphere(cfg.n_samples, cfg.seed)])
    w0_of = {True: np.zeros(len(w), dtype=complex)}
    if not all(w0_free):
        g = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
        w0_of[False] = g.normal(size=len(w)) + 1j * g.normal(size=len(w))

    for free, d, tile in tiles:
        w0 = w0_of[free]
        vals, args = _worst_defects(stack(tile), d, w0, w, cfg.tol)
        for i, v, a in zip(tile, vals, args):
            if v < -cfg.tol:
                # a copy: a view of w would keep the whole draw alive
                found[i] = Witness(PauliElement(w0[a], w[a].copy()), float(v), "KS")
    return found


def ks_violation_search(map_obj, cfg: SampleConfig = SampleConfig()) -> Optional[Witness]:
    """Search for an input violating map(x)* map(x) <= map(x*x).

    Evaluates the defect on the deterministic probe set and
    cfg.n_samples random unit vectors with w0 = 0; the translation
    reduction justifying w0 = 0 is re-verified empirically for closure
    maps, falling back to sampled w0 otherwise.  Returns the worst
    witness (the first input attaining the smallest defect eigenvalue)
    when it drops below -cfg.tol; None without sampling when the map's
    KS operator puts every such defect at or above -cfg.tol/2.
    """
    return ks_violation_search_many([map_obj], cfg)[0]


def positivity_violation_search(map_obj, cfg: SampleConfig = SampleConfig()) -> Optional[Witness]:
    """Search for a positive input mapped to a non-positive output.

    Inputs are x = 1 + w.s with real w in the closed unit ball (positive
    by construction), after the six axis boundary points.
    """
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    w = np.concatenate([axes, sample_unit_ball(cfg.n_samples, cfg.seed)]).astype(complex)
    ones = np.ones(len(w), dtype=complex)

    worst_val = np.inf
    worst_idx = -1
    for lo in range(0, len(w), _CHUNK):
        hi = min(len(w), lo + _CHUNK)
        out = map_obj.evaluate_batch(ones[lo:hi], w[lo:hi])
        eigs = _lowest_eigenvalues(out, min(-cfg.tol / 2, worst_val))
        k = int(np.argmin(eigs))
        if eigs[k] < worst_val:
            worst_val = float(eigs[k])
            worst_idx = lo + k
    if worst_val < -cfg.tol:
        return Witness(PauliElement(1.0, w[worst_idx]), worst_val, "Positivity")
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
    details: list = None

    def __post_init__(self):
        if self.details is None:
            self.details = []

    def note(self, kind: str, where, info: str) -> None:
        self.details.append((kind, where, info))


def agreement_harness(family: str, grid: int, cfg: SampleConfig = SampleConfig()) -> HarnessReport:
    """Cross-validate the family classifiers against the oracle on a grid.

    The grid spans the family's harness box in every parameter (grid >= 1
    points per axis).  The CP verdict of each point must match the sign of
    its Choi spectrum.  The KS verdict is checked against the oracle
    unless it is INCONCLUSIVE, which counts as resolved by the oracle: a
    verdict that holds must leave the oracle clean, and one that fails
    needs an oracle witness below -_WITNESS_FLOOR (1e-6).  All checked points go
    to one ks_violation_search_many call, so they share one draw.
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
    verdicts, asked = [], []
    for pt in pts:
        p = fam.params(pt)
        m = fam.map(p)
        cp, ks = deciders.cp(p, m, DEFAULT, cfg), deciders.ks(p, m, DEFAULT, cfg)
        verdicts.append((cp, ks))
        if ks.status is not classify.Status.INCONCLUSIVE:
            asked.append(m)
    witnesses = iter(ks_violation_search_many(asked, cfg))
    for pt, min_eig, (cp, ks) in zip(pts, min_eigs, verdicts):
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
