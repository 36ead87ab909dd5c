"""Command-line front end.

Grammar:

    ksq classify <descriptor> [--format {table,json-lines}] [--samples N] [--seed S]
    ksq scan --figure {fig1,fig2} --grid N --out PATH [--pgm PATH] [--verify-choi K] [--seed S]
    ksq oracle <descriptor> [--samples N] [--seed S] [--tol T]
    ksq harness --family {phi,tdiag,tlm} --grid N [--samples N] [--seed S]

Exit codes: 0 ok/clean, 1 witness found, 2 parse/usage error, 3 I/O
error, 4 verification failure.  The environment variable KSQ_SEED
overrides the default seed; an explicit --seed flag wins over it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import classify, oracle
from .channels import FAMILIES, DescriptorError, map_for_descriptor, parse_descriptor
from .tolerances import DEFAULT

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_VERIFY = 4

DEFAULT_SEED = 7


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _default_seed() -> int:
    env = os.environ.get("KSQ_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"error: KSQ_SEED must be an integer, got {env!r}", file=sys.stderr)
            raise SystemExit(EXIT_PARSE) from None
    return DEFAULT_SEED


# ---------------------------------------------------------------------------
# region scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanSpec:
    """A two-axis cell-centred scan with named 0/1 predicate columns."""

    figure: str
    x_range: tuple
    y_range: tuple
    grid: int
    columns: tuple

    @classmethod
    def for_figure(cls, figure: str, grid: int) -> "ScanSpec":
        if grid < 2:
            raise ValueError("grid resolution must be at least 2")
        if figure == "fig1":
            return cls("fig1", (-0.5, 0.5), (-0.5, 0.5), grid, ("t_cp", "phi_cp"))
        if figure == "fig2":
            return cls("fig2", (-1.0, 1.0), (-1.0, 1.0), grid, ("cp", "ks_sufficient", "ks_scalar_components"))
        raise ValueError(f"unknown figure {figure!r}")

    def axis(self, lo: float, hi: float) -> np.ndarray:
        i = np.arange(self.grid)
        return lo + (i + 0.5) * (hi - lo) / self.grid

    def xs(self) -> np.ndarray:
        return self.axis(*self.x_range)

    def ys(self) -> np.ndarray:
        return self.axis(*self.y_range)


def fig1_flags(a, b) -> np.ndarray:
    """Columns (t_cp, phi_cp) for the equal-diagonal tensor family T_(a,a,b).

    t_cp:   the tensor CP minors of tdiag:a,a,b
    phi_cp: the CP inequalities of the channel phi:2a,2a,2b
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.stack(
        [
            classify.all_hold(classify.cp_tensor_diag_residuals(a, a, b)),
            classify.all_hold(classify.cp_phi_residuals(2.0 * a, 2.0 * a, 2.0 * b)),
        ]
    )


def fig2_flags(lam, mu) -> np.ndarray:
    """Columns (cp, ks_sufficient, ks_scalar_components) for T_(lam, mu)."""
    return np.stack(
        [
            classify.all_hold(classify.cp_tlm_residuals(lam, mu)),
            classify.ks_tlm_inequality(lam, mu)[0],
            classify.ks_scalar_interval_holds(lam) & classify.ks_scalar_interval_holds(mu),
        ]
    )


def scan_flags(spec: ScanSpec) -> np.ndarray:
    """Flag array of shape (ncols, grid, grid) indexed [col, iy, ix]."""
    X, Y = np.meshgrid(spec.xs(), spec.ys(), indexing="xy", sparse=True)
    if spec.figure == "fig1":
        return fig1_flags(X, Y)
    return fig2_flags(X, Y)


def _bitmask(flags: np.ndarray) -> np.ndarray:
    """Per-cell integer whose bit c is predicate column c."""
    mask = np.zeros(flags.shape[1:], dtype=np.uint16)
    for c in range(flags.shape[0]):
        mask |= flags[c].astype(np.uint16) << c
    return mask


def write_scan_csv(path: str, spec: ScanSpec, flags: np.ndarray) -> None:
    """UTF-8, LF line endings, header x,y,<columns>, one row per cell.

    Each x-coordinate is formatted once.  Each grid row formats its y
    once, builds the 2^k possible "<y>,<bits>" line tails, and is written
    as one joined string, so memory stays at one row whatever the grid.
    """
    k = len(spec.columns)
    x_heads = [_fmt(x) + "," for x in spec.xs()]
    bit_strs = [",".join(str((mask >> c) & 1) for c in range(k)) for mask in range(1 << k)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y," + ",".join(spec.columns) + "\n")
        for y, row in zip(spec.ys(), _bitmask(flags)):
            y_head = _fmt(y) + ","
            tails = [y_head + bits + "\n" for bits in bit_strs]
            fh.write("".join(map(str.__add__, x_heads, map(tails.__getitem__, row.tolist()))))


def write_scan_pgm(path: str, spec: ScanSpec, flags: np.ndarray) -> None:
    """Binary P5 raster; pixel = predicate bitmask scaled by 255 // 2^k.

    Row-major with y increasing downward (row 0 holds the smallest y).
    """
    k = len(spec.columns)
    scale = 255 // (1 << k)
    pixels = (_bitmask(flags) * scale).astype(np.uint8)
    header = (
        f"P5\n"
        f"# {spec.figure}: bits " + ",".join(f"{c}={name}" for c, name in enumerate(spec.columns))
        + f"; pixel = bitmask * {scale} (= 255 // 2^{k})\n"
        f"{spec.grid} {spec.grid}\n255\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pixels.tobytes())


def verify_scan_against_choi(spec: ScanSpec, count: int, seed: int) -> list:
    """Re-check `count` random scan points against the Choi spectrum.

    The flags and Choi matrices of all points are built as stacks, and
    each CP column is decided by one batched eigenvalue call.  Returns a
    list of disagreement descriptions in draw order (empty means clean).
    """
    rng = np.random.default_rng(seed)
    xs = rng.uniform(*spec.x_range, size=count)
    ys = rng.uniform(*spec.y_range, size=count)
    if spec.figure == "fig1":
        flags = fig1_flags(xs, ys)
        rows = np.stack([xs, xs, ys], axis=-1)
        # (column, family kind, parameter rows)
        columns = [(0, "tdiag", rows), (1, "phi", 2.0 * rows)]
    else:
        flags = fig2_flags(xs, ys)
        columns = [(0, "tlm", np.stack([xs, ys], axis=-1))]
    decided = [
        (
            spec.columns[c],
            flags[c],
            classify.choi_min_eigenvalues(FAMILIES[kind].choi(rows)) >= -DEFAULT.positivity,
        )
        for c, kind, rows in columns
    ]
    bad = []
    for k, (x, y) in enumerate(zip(xs, ys)):
        for name, flag, choi_ok in decided:
            if flag[k] != choi_ok[k]:
                bad.append(
                    f"{name} mismatch at ({_fmt(x)}, {_fmt(y)}): "
                    f"flag={bool(flag[k])} choi={bool(choi_ok[k])}"
                )
    return bad


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    try:
        kind, params = parse_descriptor(args.descriptor)
    except (DescriptorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    verdict = classify.classify_full((kind, params), n_samples=args.samples, seed=args.seed)
    if args.format == "json-lines":
        for level, tri in verdict.rows():
            rec = {
                "descriptor": args.descriptor,
                "level": level,
                "status": tri.status.value,
                "note": tri.note,
            }
            if tri.witness is not None:
                rec["witness"] = _witness_json(level, tri.witness)
            print(json.dumps(rec))
    else:
        print(f"descriptor: {args.descriptor}")
        width = max(len(level) for level, _ in verdict.rows())
        for level, tri in verdict.rows():
            print(f"  {level.ljust(width)}  {tri.status.value:17s}  {tri.note}")
    return EXIT_OK


def _witness_json(level: str, witness):
    """A positivity witness (x, sup) gives the image of x = 1 + w.s the
    smallest eigenvalue 1 - sup, reported as its violation; a KS witness
    (x, violation) reports the defect's."""
    if isinstance(witness, oracle.Witness):
        return {
            "kind": witness.defect_kind,
            "input": _pauli_json(witness.x),
            "violation": witness.violation,
        }
    if isinstance(witness, tuple) and len(witness) == 2:
        x, value = witness
        if level == "positive":
            return {"input": _pauli_json(x), "sup": value, "violation": 1.0 - value}
        return {"input": _pauli_json(x), "violation": value}
    if isinstance(witness, float):
        return {"value": witness}
    return str(witness)


def _pauli_json(x) -> list:
    vals = [x.w0] + list(x.w)
    out = []
    for v in vals:
        out.extend([float(np.real(v)), float(np.imag(v))])
    return out


def cmd_scan(args) -> int:
    try:
        spec = ScanSpec.for_figure(args.figure, args.grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    flags = scan_flags(spec)
    try:
        write_scan_csv(args.out, spec, flags)
        if args.pgm:
            write_scan_pgm(args.pgm, spec, flags)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {spec.grid * spec.grid} rows to {args.out}")
    if args.verify_choi:
        bad = verify_scan_against_choi(spec, args.verify_choi, args.seed)
        if bad:
            for line in bad:
                print(f"verify-choi: {line}", file=sys.stderr)
            return EXIT_VERIFY
        print(f"verify-choi: {args.verify_choi} random points agree with the Choi spectrum")
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        kind, params = parse_descriptor(args.descriptor)
    except (DescriptorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    map_obj = map_for_descriptor(kind, params)
    cfg = oracle.SampleConfig(n_samples=args.samples, seed=args.seed, tol=args.tol)
    wit = oracle.ks_violation_search(map_obj, cfg)
    if wit is None:
        if oracle.ks_certified(map_obj, cfg):
            print(
                "no violation: the KS operator certifies every defect "
                "(lambda_min(H) >= -tol/2), no sample drawn"
            )
        else:
            print(f"no violation found in {args.samples} samples")
        return EXIT_OK
    coords = ",".join(_fmt(v) for v in _pauli_json(wit.x))
    print(f"witness {coords} violation={_fmt(wit.violation)}")
    return EXIT_WITNESS


def cmd_harness(args) -> int:
    cfg = oracle.SampleConfig(n_samples=args.samples, seed=args.seed)
    try:
        report = oracle.agreement_harness(args.family, args.grid, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(
        f"family={report.family} grid={report.grid} agree={report.agree} "
        f"resolved_by_oracle={report.resolved_by_oracle} discrepancies={report.discrepancies}"
    )
    for kind, where, info in report.details[:20]:
        print(f"  {kind} at {where}: {info}", file=sys.stderr)
    return EXIT_OK if report.discrepancies == 0 else EXIT_VERIFY


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _positive_float(text: str) -> float:
    """argparse type: a float greater than zero."""
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksq",
        description="Classify qubit channels and tensor-square maps as "
        "positive / Kadison-Schwarz / completely positive.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()

    p = sub.add_parser("classify", help="classify one parameter point")
    p.add_argument("descriptor", help="phi:a,b,c | tdiag:a,b,c | tlm:a,b | tmat:<18 reals>")
    p.add_argument("--format", choices=("table", "json-lines"), default="table")
    p.add_argument("--samples", type=_int_at_least(1), default=20000)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="emit region-scan data for the figures")
    p.add_argument("--figure", choices=("fig1", "fig2"), required=True)
    p.add_argument("--grid", type=int, default=401)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", default=None)
    p.add_argument("--verify-choi", type=_int_at_least(0), default=0, metavar="K")
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("oracle", help="brute-force witness search")
    p.add_argument("descriptor")
    p.add_argument("--samples", type=_int_at_least(1), default=10000)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--tol", type=_positive_float, default=DEFAULT.ks_violation)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("harness", help="classifier-vs-oracle agreement scan")
    p.add_argument("--family", required=True)
    p.add_argument("--grid", type=_int_at_least(1), default=11)
    p.add_argument("--samples", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_harness)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
