"""Single source of numeric tolerances used across the library.

Every classifier and oracle cites one of these fields instead of carrying
its own magic constants.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Default thresholds, all absolute unless noted.

    hermiticity : max-entry deviation |a - a*| accepted as Hermitian input
    positivity  : eigenvalue / inequality slack; values >= -positivity count
                  as non-negative (boundary maps classify as inside)
    boundary    : equality detection for user-supplied exact parameters
    ks_violation: defect eigenvalue below -ks_violation counts as a witness
    unitarity   : max-entry deviation |U U* - 1| accepted as unitary
    jacobi_off  : relative off-diagonal Frobenius mass at which the Jacobi
                  sweep stops
    pair_gap    : relative gap allowed when de-duplicating the doubled
                  spectrum of the real-symmetric embedding
    defect_hermiticity: relative max-entry deviation |D - D*| accepted in a
                  block of the oracle's KS defects D
    shift_reduction: largest change of the smallest defect eigenvalue under
                  x -> x + t*1 for which the oracle samples only w0 = 0
    linearity   : relative max-entry deviation accepted between a map's
                  evaluate_batch and its Pauli-basis template contraction
    tensor_ks_slack: absolute amount by which a probed input may miss the
                  gain or the bracket inequality of the sampled tensor KS
                  sufficient test before the test reports INCONCLUSIVE
    """

    hermiticity: float = 1e-10
    positivity: float = 1e-9
    boundary: float = 1e-12
    ks_violation: float = 1e-8
    unitarity: float = 1e-10
    jacobi_off: float = 1e-14
    pair_gap: float = 1e-8
    defect_hermiticity: float = 1e-12
    shift_reduction: float = 1e-8
    linearity: float = 1e-12
    tensor_ks_slack: float = 1e-10


DEFAULT = Tolerances()
