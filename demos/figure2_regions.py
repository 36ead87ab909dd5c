#
# Region scan for the scalar family T_(lam, mu): complete positivity, the
# sufficient Kadison-Schwarz region, and the smaller componentwise square
# [-1/4, 1/2]^2 where both factor channels are KS on their own.
#
import os

import numpy as np

from ksq.channels import QubitChannel, ScalarPairParams, TensorMap
from ksq.cli import ScanSpec, scan_flags, write_scan_csv, write_scan_pgm
from ksq.oracle import SampleConfig, ks_violation_search

OUT = os.path.join(os.path.dirname(__file__), "output")


def main():
    os.makedirs(OUT, exist_ok=True)
    spec = ScanSpec.for_figure("fig2", 201)
    flags = scan_flags(spec)
    write_scan_csv(os.path.join(OUT, "fig2.csv"), spec, flags)
    write_scan_pgm(os.path.join(OUT, "fig2.pgm"), spec, flags)

    cp, ks, comps = (flags[k].astype(bool) for k in range(3))
    print(f"grid {spec.grid}x{spec.grid} over (lam, mu) in [-1, 1]^2")
    print(f"completely positive cells:              {cp.sum():6d}")
    print(f"KS-sufficient cells:                    {ks.sum():6d}")
    print(f"componentwise-KS cells (the square):    {comps.sum():6d}")
    print(f"KS-sufficient outside the square:       {(ks & ~comps).sum():6d}")

    # one such pair in detail: the tensor map passes the brute-force
    # Kadison-Schwarz scan while its factor channel fails it
    lam, mu = -0.3, 0.0
    cfg = SampleConfig(n_samples=20000, seed=23)
    m = TensorMap.scalar(ScalarPairParams(lam, mu))
    phi = QubitChannel(2.0 * m.A)  # the factor channel with T-matrix 2A
    wit_m = ks_violation_search(m, cfg)
    wit_phi = ks_violation_search(phi, cfg)
    print(f"\nat (lam, mu) = ({lam}, {mu}):")
    print(f"  tensor map oracle:      {'clean' if wit_m is None else wit_m.violation}")
    print(f"  factor channel oracle:  violation {wit_phi.violation:.4f} at "
          f"w = {np.round(wit_phi.x.w, 4)}")


if __name__ == "__main__":
    main()
