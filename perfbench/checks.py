"""Checkers that judge ksq's outputs without using ksq.

Every quantity here is rebuilt from the definitions: maps act on explicit
2x2 matrices through their Pauli coefficients, Choi matrices are summed
from matrix units, spectra come from ``np.linalg.eigvalsh`` and region
flags from the paper's inequalities.  A checker returns a list of
problems (empty means the output is correct), so the benchmark can report
every fault it sees, and the checker tests can feed each one a
deliberately wrong output.

A map is described by a plain tuple, its *spec*:

    ("qubit", T)            (w0, w) -> w0*1 + (T w).s
    ("tensor", A, C)        (w0, w) -> w0*1(x)1 + (A w).s(x)1 + 1(x)(C w).s
    ("conj", base, U, V)    X -> U base(V X V*) U*
    ("mix", a, b, lam)      lam*a + (1 - lam)*b

The tensor slot order follows ksq's documented convention
(w.s(x)1 = kron(I2, w.s)); the spectra checked here do not depend on it.
"""

from __future__ import annotations

import io

import numpy as np

SIGMA = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

# eigenvalues and margins closer to zero than this may fall either way
BAND = 1e-7
# recomputed witness values must match the reported ones this closely
MATCH = 1e-9


def pauli_matrix(w0, w) -> np.ndarray:
    """w0*1 + w1 s1 + w2 s2 + w3 s3 as an explicit 2x2 matrix."""
    w = np.asarray(w, dtype=complex)
    return w0 * I2 + w[0] * SIGMA[0] + w[1] * SIGMA[1] + w[2] * SIGMA[2]


def pauli_coeffs(x: np.ndarray):
    """Inverse of pauli_matrix: w0 = tr(x)/2, wk = tr(sk x)/2."""
    w0 = np.trace(x) / 2.0
    w = np.array([np.trace(SIGMA[k] @ x) / 2.0 for k in range(3)])
    return w0, w


def apply_map(spec, x: np.ndarray) -> np.ndarray:
    """The map described by spec, applied to a 2x2 matrix."""
    kind = spec[0]
    if kind == "qubit":
        w0, w = pauli_coeffs(x)
        return pauli_matrix(w0, spec[1] @ w)
    if kind == "tensor":
        w0, w = pauli_coeffs(x)
        aw = pauli_matrix(0.0, spec[1] @ w)
        cw = pauli_matrix(0.0, spec[2] @ w)
        return w0 * I4 + np.kron(I2, aw) + np.kron(cw, I2)
    if kind == "conj":
        _, base, U, V = spec
        return U @ apply_map(base, V @ x @ V.conj().T) @ U.conj().T
    if kind == "mix":
        _, a, b, lam = spec
        return lam * apply_map(a, x) + (1.0 - lam) * apply_map(b, x)
    raise ValueError(f"unknown map spec {kind!r}")


def min_eig(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(h)[0])


def ks_defect_min_eig(spec, w0, w) -> float:
    """Smallest eigenvalue of map(x*x) - map(x)* map(x) at x = w0*1 + w.s."""
    x = pauli_matrix(w0, w)
    mx = apply_map(spec, x)
    return min_eig(apply_map(spec, x.conj().T @ x) - mx.conj().T @ mx)


def choi_min_eig(spec) -> float:
    """Smallest eigenvalue of sum_ij E_ij (x) map(E_ij)."""
    blocks = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            blocks.append(np.kron(e, apply_map(spec, e)))
    return min_eig(sum(blocks))


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def check_ks_witness(spec, w0, w, reported: float, tol: float):
    """Re-verify a KS witness at definition level.

    Returns (problems, violates): problems lists a recomputed defect that
    differs from the reported one; violates says whether the defect is
    below -tol, that is whether the witness shows a KS violation at all.
    """
    value = ks_defect_min_eig(spec, w0, w)
    problems = []
    if abs(value - reported) > MATCH:
        problems.append(f"KS witness defect recomputes to {value:.12g}, reported {reported:.12g}")
    return problems, value < -tol


def check_positivity_witness(spec, w, reported: float, tol: float) -> list:
    """A positive input 1 + w.s (real w, |w| <= 1) with a negative image."""
    w = np.real(np.asarray(w, dtype=complex))
    x = pauli_matrix(1.0, w)
    problems = []
    if min_eig(x) < -MATCH:
        problems.append(f"positivity witness input is not positive (|w| = {np.linalg.norm(w):.6g})")
    value = min_eig(apply_map(spec, x))
    if abs(value - reported) > MATCH:
        problems.append(f"positivity witness recomputes to {value:.12g}, reported {reported:.12g}")
    if value >= -tol:
        problems.append(f"positivity witness image has min eigenvalue {value:.3e} >= -tol")
    return problems


# ---------------------------------------------------------------------------
# classify_full verdicts
# ---------------------------------------------------------------------------

HOLDS = ("holds_exact", "holds_sufficient")


def check_verdict(kind: str, spec, levels: dict, ks_witness, pos_witness) -> tuple:
    """Check one classify_full verdict.

    levels maps "positive", "kadison_schwarz", "completely_positive" to
    status strings.  ks_witness is (w0, w, reported) for a KS failure
    certificate, pos_witness (w, sup) for a tensor positivity failure.
    Returns (problems, ks_witness_violates); the second is None when the
    verdict carries no KS witness.
    """
    problems = []
    pos, ks, cp = (levels[k] for k in ("positive", "kadison_schwarz", "completely_positive"))
    if cp in HOLDS and ks not in HOLDS:
        problems.append(f"hierarchy: CP {cp} but KS {ks}")
    if ks in HOLDS and pos not in HOLDS:
        problems.append(f"hierarchy: KS {ks} but positive {pos}")

    low = choi_min_eig(spec)
    if cp in HOLDS and low < -BAND:
        problems.append(f"CP {cp} but the Choi matrix has eigenvalue {low:.3e}")
    if cp not in HOLDS and low > BAND:
        problems.append(f"CP {cp} but the Choi matrix is positive (min {low:.3e})")

    if kind == "phi":
        op = float(np.linalg.svd(spec[1], compute_uv=False)[0])
        if (pos in HOLDS) != (op <= 1.0 + 1e-9):
            problems.append(f"positive {pos} but ||T||_op = {op:.12g}")
    elif kind == "tlm":
        # sup over unit real w of |lam w| + |mu w| is |lam| + |mu|
        margin = 1.0 - abs(spec[1][0, 0]) - abs(spec[2][0, 0])
        if (pos in HOLDS and margin < -BAND) or (pos not in HOLDS and margin > BAND):
            problems.append(f"positive {pos} but 1 - |lam| - |mu| = {margin:.3e}")

    if pos_witness is not None:
        w, sup = pos_witness
        problems += check_positivity_witness(spec, w, 1.0 - sup, 1e-9)

    violates = None
    if ks == "fails":
        if ks_witness is None:
            problems.append("KS fails without a witness")
        else:
            w0, w, reported = ks_witness
            found, violates = check_ks_witness(spec, w0, w, reported, 1e-8)
            problems += found
    return problems, violates


# ---------------------------------------------------------------------------
# agreement harness
# ---------------------------------------------------------------------------


def phi_ks_inequality_margin(l1, l2, l3):
    """Smallest slack of the paper's three diagonal-channel KS inequalities.

    (1 + lk^2)(3 + li^2 + lj^2 - lk^2) <= 4 (1 + l1 l2 l3); where all three
    hold, ksq decides KS on its closed-form fast path.
    """
    sq = np.stack([l1 * l1, l2 * l2, l3 * l3])
    lhs = (1.0 + sq) * (3.0 + sq.sum(axis=0) - 2.0 * sq)
    return np.min(4.0 * (1.0 + l1 * l2 * l3) - lhs, axis=0)


def tdiag_ks_sufficient_margin(l1, l2, l3):
    """Smallest slack of the paper's three diagonal-tensor KS inequalities.

    (1 + 4 lk^2)(3 + 4 li^2 + 4 lj^2 - 4 lk^2) <= 4 (1 + 8 l1 l2 l3) are the
    channel inequalities at 2 l (the scalings by 2 are exact in floating
    point); >= 0 means all three hold.
    """
    return phi_ks_inequality_margin(2.0 * l1, 2.0 * l2, 2.0 * l3)


def tlm_ks_sufficient_margin(lam, mu):
    """1 - 2 lam^2 - 2 mu^2 - |lam||1 - 2 lam| - |mu||1 - 2 mu|."""
    return (
        1.0 - 2.0 * lam * lam - 2.0 * mu * mu
        - np.abs(lam) * np.abs(1.0 - 2.0 * lam) - np.abs(mu) * np.abs(1.0 - 2.0 * mu)
    )


def harness_grid(family: str, grid: int) -> np.ndarray:
    """The parameter points of the harness grid, one row per point."""
    if family == "tlm":
        axis = np.linspace(-1.0, 1.0, grid)
        return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    half = 0.5 if family == "tdiag" else 1.0
    axis = np.linspace(-half, half, grid)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def check_harness(family: str, grid: int, agree: int, resolved: int, discrepancies: int) -> list:
    """Counts of one agreement_harness call, against the grid itself."""
    pts = harness_grid(family, grid)
    problems = []
    if discrepancies != 0:
        problems.append(f"{family}: {discrepancies} discrepancies")
    if agree + resolved + discrepancies != 2 * len(pts):
        problems.append(
            f"{family}: agree {agree} + resolved {resolved} + discrepancies {discrepancies} "
            f"!= 2 levels x {len(pts)} points"
        )
    if family == "phi":
        expected = 0
    elif family == "tdiag":
        expected = int(np.sum(tdiag_ks_sufficient_margin(*pts.T) < -1e-9))
    else:
        expected = int(np.sum(tlm_ks_sufficient_margin(*pts.T) < -1e-9))
    if resolved != expected:
        problems.append(f"{family}: resolved_by_oracle {resolved}, sufficient test fails at {expected}")
    return problems


# ---------------------------------------------------------------------------
# region scans
# ---------------------------------------------------------------------------

SCAN = {
    "fig1": ((-0.5, 0.5), ("t_cp", "phi_cp")),
    "fig2": ((-1.0, 1.0), ("cp", "ks_sufficient", "ks_scalar_components")),
}


def cell_centres(figure: str, grid: int) -> np.ndarray:
    (lo, hi), _ = SCAN[figure]
    return lo + (np.arange(grid) + 0.5) * (hi - lo) / grid


def scan_margins(figure: str, x, y) -> np.ndarray:
    """Signed slack of each scan column's inequalities (>= 0 inside)."""
    if figure == "fig1":
        a, b = x, y
        # tensor map tdiag(a, a, b): its three Choi principal minors
        t_cp = np.minimum(
            np.minimum(1.0 + 2.0 * b - 8.0 * a * a, 1.0 - 2.0 * b),
            1.0 + 16.0 * a * a * b - 4.0 * (2.0 * a * a + b * b),
        )
        # channel phi(2a, 2a, 2b): |l1 +- l2| <= 1 +- l3
        phi_cp = np.minimum(1.0 + 2.0 * b - 4.0 * np.abs(a), 1.0 - 2.0 * b)
        return np.stack([t_cp, phi_cp])
    lam, mu = x, y
    cp = np.minimum(
        lam + mu + 1.0 - 2.0 * np.sqrt(lam * lam - lam * mu + mu * mu), 1.0 - lam - mu
    )
    comps = np.minimum(
        np.minimum(lam + 0.25, 0.5 - lam), np.minimum(mu + 0.25, 0.5 - mu)
    )
    return np.stack([cp, tlm_ks_sufficient_margin(lam, mu), comps])


def scan_cell_spec(figure: str, column: str, x: float, y: float):
    """The map whose CP property a scan column reports."""
    if figure == "fig1" and column == "t_cp":
        d = np.diag([x, x, y])
        return ("tensor", d, d)
    if figure == "fig1" and column == "phi_cp":
        return ("qubit", np.diag([2 * x, 2 * x, 2 * y]))
    return ("tensor", x * np.eye(3), y * np.eye(3))


def parse_scan_csv(data: bytes, figure: str) -> tuple:
    """(problems, columns) where columns is a (rows, 2 + ncols) float array."""
    _, names = SCAN[figure]
    header, _, body = data.partition(b"\n")
    problems = []
    if header.decode("utf-8", "replace") != "x,y," + ",".join(names):
        problems.append(f"{figure}: header {header[:80]!r}")
        return problems, None
    if not body.endswith(b"\n") or b"\r" in body:
        problems.append(f"{figure}: rows are not LF-terminated")
    try:
        table = np.loadtxt(io.StringIO(body.decode("utf-8")), delimiter=",", ndmin=2)
    except (UnicodeDecodeError, ValueError) as exc:
        problems.append(f"{figure}: unparsable row ({exc})")
        return problems, None
    if table.shape[1] != 2 + len(names):
        problems.append(f"{figure}: {table.shape[1]} fields per row")
        return problems, None
    return problems, table


def check_scan_table(figure: str, grid: int, table: np.ndarray, seed: int, subset: int) -> list:
    """Rows, coordinates, flags, region inclusions and a Choi spot check."""
    _, names = SCAN[figure]
    problems = []
    if len(table) != grid * grid:
        return [f"{figure}: {len(table)} rows, expected {grid * grid}"]
    centres = cell_centres(figure, grid)
    x = np.tile(centres, grid)
    y = np.repeat(centres, grid)
    bad = np.flatnonzero((table[:, 0] != x) | (table[:, 1] != y))
    if bad.size:
        problems.append(f"{figure}: {bad.size} rows off their cell centre, first at row {bad[0]}")
    flags = table[:, 2:].T
    if np.any((flags != 0.0) & (flags != 1.0)):
        problems.append(f"{figure}: flag values other than 0 and 1")
    flags = flags == 1.0
    margins = scan_margins(figure, x, y)
    for c, name in enumerate(names):
        wrong = (flags[c] & (margins[c] < -BAND)) | (~flags[c] & (margins[c] > BAND))
        if wrong.any():
            k = int(np.flatnonzero(wrong)[0])
            problems.append(
                f"{figure}: {name} wrong at {int(wrong.sum())} cells, first ({x[k]!r}, {y[k]!r})"
            )
    inner, outer = (1, 0) if figure == "fig1" else (2, 1)
    if np.any(flags[inner] & ~flags[outer]):
        problems.append(f"{figure}: {names[inner]} is not inside {names[outer]}")
    if not np.any(flags[outer] & ~flags[inner]):
        problems.append(f"{figure}: {names[outer]} does not strictly contain {names[inner]}")

    rng = np.random.default_rng(seed)
    cp_cols = ("t_cp", "phi_cp") if figure == "fig1" else ("cp",)
    for k in rng.choice(len(table), size=min(subset, len(table)), replace=False):
        for name in cp_cols:
            low = choi_min_eig(scan_cell_spec(figure, name, x[k], y[k]))
            flag = flags[names.index(name), k]
            if (flag and low < -BAND) or (not flag and low > BAND):
                problems.append(f"{figure}: {name}={int(flag)} at ({x[k]!r}, {y[k]!r}), Choi min {low:.3e}")
    return problems


def check_scan_pgm(data: bytes, figure: str, grid: int, table: np.ndarray) -> list:
    """P5 header with the documented bit legend, grid^2 pixels of bitmask * scale."""
    _, names = SCAN[figure]
    k = len(names)
    scale = 255 // (1 << k)
    legend = ",".join(f"{c}={name}" for c, name in enumerate(names))
    header = (
        f"P5\n# {figure}: bits {legend}; pixel = bitmask * {scale} (= 255 // 2^{k})\n"
        f"{grid} {grid}\n255\n"
    ).encode("ascii")
    if not data.startswith(header):
        return [f"{figure}: PGM header {data[:120]!r}"]
    pixels = np.frombuffer(data[len(header):], dtype=np.uint8)
    if pixels.size != grid * grid:
        return [f"{figure}: PGM holds {pixels.size} pixels, expected {grid * grid}"]
    if table is None:
        return []
    bits = (table[:, 2:] == 1.0).astype(np.int64) << np.arange(k)
    if np.any(pixels != bits.sum(axis=1) * scale):
        return [f"{figure}: PGM pixels disagree with the CSV flags"]
    return []
