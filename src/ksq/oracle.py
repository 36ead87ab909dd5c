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
must be Hermitian (LinAlgError otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import channels, classify, linalg
from .channels import QubitChannel, TensorMap
from .pauli import PauliElement, star_square_coeffs
from .tolerances import DEFAULT

_CHUNK = 8192


@dataclass(frozen=True)
class SampleConfig:
    """Budget and thresholds for a brute-force search."""

    n_samples: int = 10000
    seed: int = 7
    tol: float = DEFAULT.ks_violation
    probe_set_enabled: bool = True

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


def sample_unit_sphere(n: int, seed: int) -> np.ndarray:
    """n deterministic points on the unit sphere of C^3 (chunked substreams)."""
    chunks = []
    seq = np.random.SeedSequence(seed)
    remaining = n
    for child in seq.spawn((n + _CHUNK - 1) // _CHUNK):
        take = min(_CHUNK, remaining)
        g = np.random.default_rng(child)
        z = g.normal(size=(take, 6))
        w = z[:, :3] + 1j * z[:, 3:]
        w /= np.linalg.norm(w, axis=1)[:, None]
        chunks.append(w)
        remaining -= take
    return np.concatenate(chunks)


def sample_unit_ball(n: int, seed: int) -> np.ndarray:
    """n deterministic real vectors uniform in the closed unit ball."""
    chunks = []
    seq = np.random.SeedSequence(seed)
    remaining = n
    for child in seq.spawn((n + _CHUNK - 1) // _CHUNK):
        take = min(_CHUNK, remaining)
        g = np.random.default_rng(child)
        v = g.normal(size=(take, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        r = g.random(take) ** (1.0 / 3.0)
        chunks.append(v * r[:, None])
        remaining -= take
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
    if dev > DEFAULT.linearity * max(1.0, float(np.max(np.abs(direct)))):
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


def _defects(templates: np.ndarray, d: int, mono: np.ndarray) -> np.ndarray:
    """KS defects (N, P, d, d) of the templated maps at the monomial rows.

    One real product: sum_k c_k B_k - sum_kl conj(x_k) x_l G_kl is
    map(x*x) - map(x)* map(x).  LinAlgError when the block is not
    Hermitian, as for a map that does not preserve adjoints.
    """
    defect = linalg.thin_matmul(mono, templates.view(float)).view(complex)
    defect = defect.reshape(len(mono), -1, d, d)
    # |D - D*| entry by entry: twice the imaginary diagonal, then each pair
    # i < j once, which is cheaper than transposing the whole block
    dev = 2.0 * np.max(np.abs(np.diagonal(defect, axis1=-2, axis2=-1).imag))
    for i, j in zip(*np.triu_indices(d, 1)):
        dev = max(dev, np.max(np.abs(defect[..., i, j] - np.conj(defect[..., j, i]))))
    if dev > DEFAULT.defect_hermiticity * max(1.0, float(np.max(np.abs(defect)))):
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


def _worst_defects(templates: np.ndarray, d: int, w0: np.ndarray, w: np.ndarray):
    """Smallest defect eigenvalue of each templated map over all inputs.

    Returns (values, first input index attaining each).  Each block holds
    at most _CHUNK matrices, maps times inputs; the caller passes at most
    _CHUNK maps.
    """
    p = templates.shape[1] // (d * d)
    rows = _CHUNK // p
    cols = np.arange(p)
    best = np.full(p, np.inf)
    arg = np.zeros(p, dtype=int)
    for lo in range(0, len(w), rows):
        mono = _monomials(w0[lo : lo + rows], w[lo : lo + rows])
        eigs = linalg.batch_min_eigenvalue(_defects(templates, d, mono)).real
        k = np.argmin(eigs, axis=0)
        vals = eigs[k, cols]
        better = vals < best
        best[better] = vals[better]
        arg[better] = lo + k[better]
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
    return bool(np.max(np.abs(base - shifted)) <= DEFAULT.shift_reduction)


def ks_violation_search_many(maps, cfg: SampleConfig = SampleConfig()) -> list:
    """ks_violation_search for every map of a list, on one shared draw.

    Returns one Optional[Witness] per map, in order.  Maps with the same
    output dimension and w0 treatment share each template contraction,
    so a block of inputs costs one matrix product for all of them.
    """
    maps = list(maps)
    if not maps:
        return []
    templates = [_ks_template(m) for m in maps]
    w0_free = [
        isinstance(m, (QubitChannel, TensorMap)) or _shift_reduction_holds(t, m.out_dim, cfg.seed)
        for m, t in zip(maps, templates)
    ]

    w = sample_unit_sphere(cfg.n_samples, cfg.seed)
    if cfg.probe_set_enabled:
        probes = classify.ks_probe_vectors()
        w = np.concatenate([probes / np.linalg.norm(probes, axis=1)[:, None], w])
    w0_of = {True: np.zeros(len(w), dtype=complex)}
    if not all(w0_free):
        g = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
        w0_of[False] = g.normal(size=len(w)) + 1j * g.normal(size=len(w))

    groups = {}
    for i, m in enumerate(maps):
        groups.setdefault((w0_free[i], m.out_dim), []).append(i)
    found = [None] * len(maps)
    for (free, d), idx in groups.items():
        w0 = w0_of[free]
        for lo in range(0, len(idx), _CHUNK):
            tile = idx[lo : lo + _CHUNK]
            vals, args = _worst_defects(
                np.concatenate([templates[i] for i in tile], axis=1), d, w0, w
            )
            for i, v, a in zip(tile, vals, args):
                if v < -cfg.tol:
                    # a copy: a view of w would keep the whole draw alive
                    found[i] = Witness(PauliElement(w0[a], w[a].copy()), float(v), "KS")
    return found


def ks_violation_search(map_obj, cfg: SampleConfig = SampleConfig()) -> Optional[Witness]:
    """Search for an input violating map(x)* map(x) <= map(x*x).

    Evaluates the defect on the deterministic probe set (when enabled)
    and cfg.n_samples random unit vectors with w0 = 0; the translation
    reduction justifying w0 = 0 is re-verified empirically for closure
    maps, falling back to sampled w0 otherwise.  Returns the worst
    witness (the first input attaining the smallest defect eigenvalue)
    when it drops below -cfg.tol.
    """
    return ks_violation_search_many([map_obj], cfg)[0]


def positivity_violation_search(map_obj, cfg: SampleConfig = SampleConfig()) -> Optional[Witness]:
    """Search for a positive input mapped to a non-positive output.

    Inputs are x = 1 + w.s with real w in the closed unit ball (positive
    by construction); the probe set adds the six axis boundary points.
    """
    parts = []
    if cfg.probe_set_enabled:
        axes = np.concatenate([np.eye(3), -np.eye(3)])
        parts.append(axes)
    parts.append(sample_unit_ball(cfg.n_samples, cfg.seed))
    w = np.concatenate(parts).astype(complex)
    ones = np.ones(len(w), dtype=complex)

    worst_val = np.inf
    worst_idx = -1
    for lo in range(0, len(w), _CHUNK):
        hi = min(len(w), lo + _CHUNK)
        out = map_obj.evaluate_batch(ones[lo:hi], w[lo:hi])
        eigs = linalg.batch_min_eigenvalue(out).real
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


def agreement_harness(
    family: str, grid: int, cfg: SampleConfig = SampleConfig(), witness_floor: float = 1e-6
) -> HarnessReport:
    """Cross-validate the family classifiers against the oracle on a grid.

    The grid spans the family's harness box in every parameter (grid >= 1
    points per axis).  The CP verdict of each point must match the sign of
    its Choi spectrum.  The KS verdict is checked against the oracle
    unless it is INCONCLUSIVE, which counts as resolved by the oracle: a
    verdict that holds must leave the oracle clean, and one that fails
    needs an oracle witness below -witness_floor.  All checked points go
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
        elif wit is not None and wit.violation < -witness_floor:
            report.agree += 1
        else:
            report.discrepancies += 1
            report.note("ks", where, "closed form fails, oracle found no witness")
    return report
