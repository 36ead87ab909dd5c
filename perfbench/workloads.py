"""The four workloads: inputs, warm-up, rounds of requests and checks.

A workload runs in whole rounds.  Round r is built from (seed, r) alone,
so a seed fixes every input, and every round holds the same number of
requests of each kind.  Each request is one call the user waits on;
``ops`` is how many operations it completes.  ``check`` judges the
outputs of one round with the independent computations in ``checks``
and returns (problems, failed operations); ``finish`` runs the checks
that need the whole run, after peak memory has been read.
"""

from __future__ import annotations

import filecmp
import os

import numpy as np

import checks
from ksq import classify, cli, oracle
from ksq.channels import (
    DiagonalParams,
    DiagonalTensorParams,
    QubitChannel,
    ScalarPairParams,
    TensorMap,
    conjugate_by_unitaries,
    convex_combination,
)


class Request:
    __slots__ = ("label", "ops", "call", "info")

    def __init__(self, label, ops, call, info=None):
        self.label, self.ops, self.call, self.info = label, ops, call, info


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def _draw(rng, lo, hi, size, accept, count):
    """`count` uniform draws in [lo, hi]^size that satisfy `accept`."""
    out = []
    while len(out) < count:
        v = rng.uniform(lo, hi, size)
        if accept(v):
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# classify-mix
# ---------------------------------------------------------------------------

# Diagonal channels that violate one of the paper's closed-form KS
# inequalities, so classify_full takes the defect-supremum fallback.  They
# are fixed, not drawn: about one fallback point in forty gets a witness
# that does not violate KS (see CHANGES.md), so a seeded draw would make the
# failure count depend on the seed.  The first point is such a fault and
# fails in every round; the others hold (5) or fail with a witness that
# re-verifies (10).
PHI_FALLBACK = (
    (0.301, 0.213, -0.932),
    (-0.066, -0.472, 0.778),
    (0.811, 0.108, -0.257),
    (0.668, -0.302, 0.363),
    (-0.543, -0.952, 0.392),
    (0.038, 0.197, -0.915),
    (0.599, 0.992, -0.716),
    (-0.843, -0.638, -0.281),
    (-0.789, 0.131, -0.991),
    (-0.07, 0.951, 0.599),
    (-0.842, -0.51, -0.63),
    (0.888, -0.904, -0.348),
    (-0.517, -0.891, -0.985),
    (-0.973, 0.432, -0.086),
    (0.178, -0.707, 0.604),
    (0.936, 0.13, -0.824),
)

# per round: (kind, count); the p50 falls in the middle of the tdiag block
MIX = (("phi", 40), ("tdiag", 40), ("tlm", 24), ("phi-fallback", 16), ("tmat", 1), ("tlm-oracle", 1))
MIX_SMALL = (("phi", 4), ("tdiag", 4), ("tlm", 2), ("phi-fallback", 16), ("tmat", 1), ("tlm-oracle", 1))


def _tlm_oracle_point(v) -> bool:
    """A positive scalar pair that classify_full hands to the KS oracle.

    It lies outside the sufficient region and the componentwise square.
    Positivity is kept clear of its boundary |lam| + |mu| = 1: there a
    sampled KS search may miss the tiny violation that must exist.
    """
    lam, mu = v
    comps = -0.25 <= lam <= 0.5 and -0.25 <= mu <= 0.5
    return (checks.tlm_ks_sufficient_margin(lam, mu) < -1e-6 and not comps
            and abs(lam) + abs(mu) < 0.99)


def mix_items(seed: int, r: int, mix=MIX):
    """Round r of classify-mix as (kind, descriptor, spec) in seeded order."""
    rng = _rng(seed, r)
    items = []
    for kind, count in mix:
        if kind == "phi":
            for v in _draw(rng, -1, 1, 3, lambda v: checks.phi_ks_inequality_margin(*v) > 1e-6, count):
                items.append(("phi", "phi:" + ",".join(map(_fmt, v)), ("qubit", np.diag(v))))
        elif kind == "phi-fallback":
            for v in PHI_FALLBACK[:count]:
                items.append(("phi", "phi:" + ",".join(map(_fmt, v)), ("qubit", np.diag(v))))
        elif kind == "tdiag":
            for v in _draw(rng, -0.5, 0.5, 3, lambda v: checks.tdiag_ks_sufficient_margin(*v) > 1e-6, count):
                d = np.diag(v)
                items.append(("tdiag", "tdiag:" + ",".join(map(_fmt, v)), ("tensor", d, d)))
        elif kind in ("tlm", "tlm-oracle"):
            accept = _tlm_oracle_point if kind == "tlm-oracle" else (
                lambda v: checks.tlm_ks_sufficient_margin(*v) > 1e-6)
            for lam, mu in _draw(rng, -1, 1, 2, accept, count):
                spec = ("tensor", lam * np.eye(3), mu * np.eye(3))
                items.append(("tlm", f"tlm:{_fmt(lam)},{_fmt(mu)}", spec))
        elif kind == "tmat":
            for _ in range(count):
                A, C = rng.uniform(-0.1, 0.1, (2, 3, 3))
                desc = "tmat:" + ",".join(map(_fmt, np.concatenate([A.ravel(), C.ravel()])))
                items.append(("tmat", desc, ("tensor", A, C)))
    order = rng.permutation(len(items))
    return [items[k] for k in order]


def _ks_witness(tri):
    """(w0, w, reported defect) of a KS failure certificate, or None."""
    wit = tri.witness
    if wit is None:
        return None
    if isinstance(wit, tuple):
        x, viol = wit
        return x.w0, x.w, float(viol)
    return wit.x.w0, wit.x.w, float(wit.violation)


class ClassifyMix:
    """classify_full on a seeded mix of descriptors from all four families."""

    def __init__(self, seed: int, small: bool, scratch: str):
        self.seed = seed
        self.mix = MIX_SMALL if small else MIX

    def warm_up(self):
        # one call per kind on fixed inputs, so set-up time does not depend on the seed
        seen = set()
        for kind, desc, _ in mix_items(0, 0, MIX_SMALL):
            if kind not in seen:
                seen.add(kind)
                classify.classify_full(desc)

    def round(self, r: int):
        return [
            Request(kind, 1, lambda d=desc: classify.classify_full(d), (kind, desc, spec))
            for kind, desc, spec in mix_items(self.seed, r, self.mix)
        ]

    def check(self, records):
        problems, failed = [], 0
        for req, verdict in records:
            kind, desc, spec = req.info
            levels = {name: tri.status.value for name, tri in verdict.rows()}
            pos = verdict.positive
            pos_wit = None
            if kind != "phi" and pos.status.value == "fails" and pos.witness is not None:
                x, sup = pos.witness
                pos_wit = (x.w, float(sup))
            found, violates = checks.check_verdict(
                kind, spec, levels, _ks_witness(verdict.kadison_schwarz), pos_wit
            )
            problems += [f"{desc}: {p}" for p in found]
            if violates is False:
                failed += 1
        return problems, failed

    def finish(self):
        return [], 0


# ---------------------------------------------------------------------------
# grid-verify
# ---------------------------------------------------------------------------

# (family, grid) per harness call; the grids are dyadic, so the checker's
# own sufficient-inequality count sees the same boundary points as ksq
HARNESS = (("phi", 3), ("tdiag", 3), ("tlm", 5))
HARNESS_SMALL = (("phi", 2), ("tdiag", 2), ("tlm", 3))
HARNESS_SAMPLES = 10_000
HARNESS_SEED = 7


class GridVerify:
    """agreement_harness for phi, tdiag and tlm, in seeded order."""

    def __init__(self, seed: int, small: bool, scratch: str):
        self.seed = seed
        self.calls = HARNESS_SMALL if small else HARNESS
        self.cfg = oracle.SampleConfig(n_samples=HARNESS_SAMPLES, seed=HARNESS_SEED)

    def warm_up(self):
        for family, _ in self.calls:
            oracle.agreement_harness(family, 2, oracle.SampleConfig(n_samples=1000, seed=HARNESS_SEED))

    def round(self, r: int):
        order = _rng(self.seed, r).permutation(len(self.calls))
        reqs = []
        for k in order:
            family, grid = self.calls[k]
            points = len(checks.harness_grid(family, grid))
            call = lambda f=family, g=grid: oracle.agreement_harness(f, g, self.cfg)
            reqs.append(Request(family, points, call, (family, grid)))
        return reqs

    def check(self, records):
        problems = []
        for req, rep in records:
            family, grid = req.info
            problems += checks.check_harness(
                family, grid, rep.agree, rep.resolved_by_oracle, rep.discrepancies
            )
        return problems, 0

    def finish(self):
        return [], 0


# ---------------------------------------------------------------------------
# witness-hunt
# ---------------------------------------------------------------------------


def _unitary(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hunt_targets(seed: int):
    """(label, map, spec, search, samples, expect_witness) for each search.

    Sample counts are set so that each search but the last takes about
    the same time; the three tensor KS searches sit in the middle of a
    round's sorted latencies, so the p50 falls inside one block.
    """
    rng = _rng(seed)
    transpose = np.diag([1.0, -1.0, 1.0])
    cp_qubit = np.diag([0.5, 0.3, 0.2])
    cp_tensor = TensorMap.scalar(ScalarPairParams(0.3, 0.2))
    cp_tensor_spec = ("tensor", 0.3 * np.eye(3), 0.2 * np.eye(3))
    tdiag = np.diag([0.2, -0.1, 0.15])
    cp_tdiag = TensorMap.diagonal(DiagonalTensorParams(0.2, -0.1, 0.15))
    U1, V1, U2, V2 = (_unitary(rng) for _ in range(4))
    wide = TensorMap.scalar(ScalarPairParams(0.6, 0.55))
    stretched = TensorMap(np.diag([0.8, 0.0, 0.0]), np.diag([0.3, 0.0, 0.0]))
    return [
        ("ks-transpose", QubitChannel.diagonal(DiagonalParams(1, -1, 1)), ("qubit", transpose),
         "ks", 300_000, True),
        ("ks-cp-tensor", cp_tensor, cp_tensor_spec, "ks", 100_000, False),
        ("ks-cp-tdiag", cp_tdiag, ("tensor", tdiag, tdiag), "ks", 100_000, False),
        ("ks-wide-tensor", wide, ("tensor", wide.A, wide.C), "ks", 100_000, True),
        ("ks-conj-cp", conjugate_by_unitaries(QubitChannel(cp_qubit), U1, V1),
         ("conj", ("qubit", cp_qubit), U1, V1), "ks", 100_000, False),
        ("ks-conj-transpose", conjugate_by_unitaries(QubitChannel(transpose), U2, V2),
         ("conj", ("qubit", transpose), U2, V2), "ks", 100_000, True),
        ("ks-mix-cp", convex_combination(cp_tensor, cp_tdiag, 0.4),
         ("mix", cp_tensor_spec, ("tensor", tdiag, tdiag), 0.4), "ks", 100_000, False),
        ("pos-stretched", stretched, ("tensor", stretched.A, stretched.C), "positivity", 200_000, True),
        ("pos-cp-tensor", cp_tensor, cp_tensor_spec, "positivity", 200_000, False),
        ("ks-cp-tensor-large", cp_tensor, cp_tensor_spec, "ks", 500_000, False),
    ]


def _search(map_obj, search: str, cfg):
    fn = oracle.ks_violation_search if search == "ks" else oracle.positivity_violation_search
    return fn(map_obj, cfg)


class WitnessHunt:
    """Large oracle searches, each with its own seed, on a handful of maps."""

    def __init__(self, seed: int, small: bool, scratch: str):
        self.seed = seed
        self.targets = hunt_targets(seed)
        self.scale = 100 if small else 1
        self.repeat = None  # the smallest search that found a witness, run again at the end

    def warm_up(self):
        for _, map_obj, _, search, _, _ in self.targets:
            _search(map_obj, search, oracle.SampleConfig(n_samples=1000, seed=1))

    def round(self, r: int):
        seeds = np.random.SeedSequence([self.seed, r]).generate_state(len(self.targets))
        reqs = []
        for target, s in zip(self.targets, seeds):
            label, map_obj, _, search, samples, _ = target
            cfg = oracle.SampleConfig(n_samples=samples // self.scale, seed=int(s))
            reqs.append(Request(label, cfg.n_samples, lambda m=map_obj, k=search, c=cfg: _search(m, k, c),
                                (target, cfg)))
        return reqs

    def check(self, records):
        problems = []
        for req, wit in records:
            (label, map_obj, spec, search, _, expect), cfg = req.info
            if not expect:
                if wit is not None:
                    problems.append(f"{label}: witness {wit.violation:.3e} on a CP map")
                continue
            if wit is None:
                problems.append(f"{label}: no witness found")
                continue
            if search == "ks":
                found, violates = checks.check_ks_witness(spec, wit.x.w0, wit.x.w, wit.violation, cfg.tol)
                if not violates:
                    found.append(f"witness defect is not below -{cfg.tol:g}")
            else:
                found = checks.check_positivity_witness(spec, wit.x.w, wit.violation, cfg.tol)
            problems += [f"{label}: {p}" for p in found]
            if self.repeat is None or cfg.n_samples < self.repeat[0].info[1].n_samples:
                self.repeat = (req, wit)
        return problems, 0

    def finish(self):
        problems = []
        if self.repeat is not None:
            req, wit = self.repeat
            (label, map_obj, _, search, _, _), cfg = req.info
            again = _search(map_obj, search, cfg)
            if again is None or not (
                np.array_equal(again.x.w, wit.x.w) and again.x.w0 == wit.x.w0
                and again.violation == wit.violation
            ):
                problems.append(f"{label}: the same seed gave a different witness")
        return problems, 0


# ---------------------------------------------------------------------------
# scan-regions
# ---------------------------------------------------------------------------

SCAN_GRID = 1001
SCAN_GRID_SMALL = 41
VERIFY_CHOI = 200
CHOI_SUBSET = 200


class ScanRegions:
    """`ksq scan` in-process for fig1 and fig2, with --pgm and --verify-choi."""

    def __init__(self, seed: int, small: bool, scratch: str):
        self.seed = seed
        self.grid = SCAN_GRID_SMALL if small else SCAN_GRID
        self.verify = 8 if small else VERIFY_CHOI
        self.scratch = scratch
        self.records = []

    def _argv(self, figure: str, tag: str, grid: int, verify: int, seed: int):
        base = os.path.join(self.scratch, f"scan-{figure}-{tag}")
        return ["scan", "--figure", figure, "--grid", str(grid), "--out", base + ".csv",
                "--pgm", base + ".pgm", "--verify-choi", str(verify), "--seed", str(seed)]

    def warm_up(self):
        for figure in ("fig1", "fig2"):
            argv = self._argv(figure, "warm", 17, 2, self.seed)
            if cli.main(argv) != 0:
                raise RuntimeError(f"warm-up scan {figure} failed")
            os.remove(argv[argv.index("--out") + 1])
            os.remove(argv[argv.index("--pgm") + 1])

    def round(self, r: int):
        seed = int(np.random.SeedSequence([self.seed, r]).generate_state(1)[0] % 2**31)
        reqs = []
        for figure in ("fig1", "fig2"):
            argv = self._argv(figure, str(r), self.grid, self.verify, seed)
            reqs.append(Request(figure, self.grid * self.grid, lambda a=argv: cli.main(a), (figure, argv)))
        return reqs

    def check(self, records):
        # parsing a 47 MB CSV would raise peak_rss_mb: wait for finish()
        self.records += records
        return [], 0

    def finish(self):
        problems = []
        first = {}
        records = self.records
        for req, code in records:
            figure, argv = req.info
            csv = argv[argv.index("--out") + 1]
            pgm = argv[argv.index("--pgm") + 1]
            if code != 0:
                problems.append(f"{figure}: exit code {code}")
            elif figure not in first:
                first[figure] = (csv, pgm)
                problems += check_scan_files(figure, self.grid, csv, pgm, self.seed)
            else:
                for a, b in zip(first[figure], (csv, pgm)):
                    if not filecmp.cmp(a, b, shallow=False):
                        problems.append(f"{figure}: {os.path.basename(b)} differs from {os.path.basename(a)}")
        for figure in ("fig1", "fig2"):
            if sum(req.info[0] == figure for req, _ in records) < 2:
                problems.append(f"{figure}: fewer than two writes to compare")
        for req, _ in records:
            argv = req.info[1]
            for flag in ("--out", "--pgm"):
                path = argv[argv.index(flag) + 1]
                if os.path.exists(path):
                    os.remove(path)
        return problems, 0


def check_scan_files(figure: str, grid: int, csv: str, pgm: str, seed: int) -> list:
    with open(csv, "rb") as fh:
        data = fh.read()
    problems, table = checks.parse_scan_csv(data, figure)
    if table is not None:
        problems += checks.check_scan_table(figure, grid, table, seed, CHOI_SUBSET)
    with open(pgm, "rb") as fh:
        problems += checks.check_scan_pgm(fh.read(), figure, grid, table)
    return problems


WORKLOADS = {
    "classify-mix": ClassifyMix,
    "grid-verify": GridVerify,
    "witness-hunt": WitnessHunt,
    "scan-regions": ScanRegions,
}
