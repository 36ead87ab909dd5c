"""Definition-level brute-force verification.

Everything here works on matrices produced by the map under test and
knows nothing about the closed-form criteria: the Kadison-Schwarz
inequality map(x)* map(x) <= map(x*x) is sampled directly, and
positivity is sampled on positive inputs.  Verdicts therefore
cross-validate the closed-form classifiers.

Sampling is split into seed-derived chunks (np.random.SeedSequence
spawning), so the merged worst witness is deterministic for a fixed seed
regardless of how chunks are scheduled.
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


def _defect_min_eigs(map_obj, w: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of map(x*x) - map(x)* map(x) for each row of w."""
    n = w.shape[0]
    zeros = np.zeros(n, dtype=complex)
    c0, cvec = star_square_coeffs(zeros, w)
    out = np.empty(n)
    for lo in range(0, n, _CHUNK):
        hi = min(n, lo + _CHUNK)
        m_sq = map_obj.evaluate_batch(c0[lo:hi], cvec[lo:hi])
        m_x = map_obj.evaluate_batch(zeros[lo:hi], w[lo:hi])
        defect = m_sq - np.conj(np.swapaxes(m_x, -1, -2)) @ m_x
        dev = np.max(np.abs(defect - np.conj(np.swapaxes(defect, -1, -2))))
        if dev > 1e-12 * max(1.0, float(np.max(np.abs(defect)))):
            raise np.linalg.LinAlgError(f"KS defect lost Hermiticity ({dev:.3e})")
        out[lo:hi] = linalg.batch_min_eigenvalue(defect).real
    return out


def _shift_reduction_holds(map_obj, seed: int) -> bool:
    """Check D(x + t*1) == D(x) on a few random inputs.

    The w0 = 0 restriction of the sampler is exact for the families in
    scope; generic closures are re-verified here before it is relied on.
    """
    g = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    z = g.normal(size=(4, 6))
    w = z[:, :3] + 1j * z[:, 3:]
    w /= np.linalg.norm(w, axis=1)[:, None]
    t = (g.normal(size=4) + 1j * g.normal(size=4)).astype(complex)

    base = _defect_min_eigs(map_obj, w)
    c0, cvec = star_square_coeffs(t, w)
    m_sq = map_obj.evaluate_batch(c0, cvec)
    m_x = map_obj.evaluate_batch(t, w)
    defect = m_sq - np.conj(np.swapaxes(m_x, -1, -2)) @ m_x
    shifted = linalg.batch_min_eigenvalue(defect).real
    return bool(np.max(np.abs(base - shifted)) <= 1e-8)


def ks_violation_search(map_obj, cfg: SampleConfig = SampleConfig()) -> Optional[Witness]:
    """Search for an input violating map(x)* map(x) <= map(x*x).

    Evaluates the defect on the deterministic probe set (when enabled)
    and cfg.n_samples random unit vectors with w0 = 0; the translation
    reduction justifying w0 = 0 is re-verified empirically for closure
    maps, falling back to sampled w0 otherwise.  Returns the worst
    witness when some defect eigenvalue drops below -cfg.tol.
    """
    w0_free = isinstance(map_obj, (QubitChannel, TensorMap)) or _shift_reduction_holds(
        map_obj, cfg.seed
    )

    parts = []
    if cfg.probe_set_enabled:
        probes = classify.ks_probe_vectors()
        parts.append(probes / np.linalg.norm(probes, axis=1)[:, None])
    parts.append(sample_unit_sphere(cfg.n_samples, cfg.seed))
    w = np.concatenate(parts)

    if w0_free:
        eigs = _defect_min_eigs(map_obj, w)
        worst = int(np.argmin(eigs))
        if eigs[worst] < -cfg.tol:
            return Witness(PauliElement(0.0, w[worst]), float(eigs[worst]), "KS")
        return None

    g = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
    w0 = g.normal(size=len(w)) + 1j * g.normal(size=len(w))
    c0, cvec = star_square_coeffs(w0, w)
    m_sq = map_obj.evaluate_batch(c0, cvec)
    m_x = map_obj.evaluate_batch(w0, w)
    defect = m_sq - np.conj(np.swapaxes(m_x, -1, -2)) @ m_x
    eigs = linalg.batch_min_eigenvalue(defect).real
    worst = int(np.argmin(eigs))
    if eigs[worst] < -cfg.tol:
        return Witness(PauliElement(w0[worst], w[worst]), float(eigs[worst]), "KS")
    return None


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

    The grid spans the family's harness box in every parameter.  The CP
    verdict of each point must match the sign of its Choi spectrum.  The
    KS verdict is checked against the oracle unless it is INCONCLUSIVE,
    which counts as resolved by the oracle: a verdict that holds must
    leave the oracle clean, and one that fails needs an oracle witness
    below -witness_floor.
    """
    fam = channels.FAMILIES.get(family)
    if fam is None or fam.box is None:
        boxed = ", ".join(k for k, f in channels.FAMILIES.items() if f.box is not None)
        raise ValueError(f"unknown family {family!r} (expected one of {boxed})")
    deciders = classify.DECIDERS[family]
    report = HarnessReport(family=family, grid=grid)
    axis = np.linspace(*fam.box, grid)
    pts = np.stack(np.meshgrid(*[axis] * fam.arity, indexing="ij"), axis=-1).reshape(-1, fam.arity)
    min_eigs = classify.choi_min_eigenvalues(fam.choi(pts))
    for k, pt in enumerate(pts):
        where = tuple(pt)
        p = fam.params(pt)
        m = fam.map(p)
        cp = deciders.cp(p, m, DEFAULT, cfg)
        if (cp.status is classify.Status.HOLDS_EXACT) != (min_eigs[k] >= -DEFAULT.positivity):
            report.discrepancies += 1
            report.note("cp", where, f"exact={cp.status.value} min_eig={min_eigs[k]:.3e}")
        else:
            report.agree += 1
        ks = deciders.ks(p, m, DEFAULT, cfg)
        if ks.status is classify.Status.INCONCLUSIVE:
            report.resolved_by_oracle += 1
            continue
        wit = ks_violation_search(m, cfg)
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
