"""Single source of numeric tolerances used across the library.

Every classifier and oracle cites one of these thresholds instead of
carrying its own magic constants.  The four that a caller may change live
in ``Tolerances``; the classifiers that take a ``tols`` argument use the
one passed in throughout.  The rest are fixed module constants, since no
caller needs another value.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Settable thresholds, all absolute.

    hermiticity : max-entry deviation |a - a*| accepted as Hermitian input
    positivity  : eigenvalue / inequality slack; values >= -positivity count
                  as non-negative (boundary maps classify as inside)
    ks_violation: defect eigenvalue below -ks_violation counts as a witness
    tensor_ks_slack: amount by which a probed input may miss the gain or
                  the bracket inequality of ks_tensor_sufficient, the
                  sampled tensor KS sufficient test, before it reports
                  INCONCLUSIVE
    """

    hermiticity: float = 1e-10
    positivity: float = 1e-9
    ks_violation: float = 1e-8
    tensor_ks_slack: float = 1e-10


DEFAULT = Tolerances()

# slack on the parameter bounds of the diagonal channel families
BOUNDARY = 1e-12
# max-entry deviation |U U* - 1| accepted as unitary
UNITARITY = 1e-10
# relative off-diagonal Frobenius mass at which the Jacobi sweep stops
JACOBI_OFF = 1e-14
# relative gap allowed when de-duplicating the doubled spectrum of the
# real-symmetric embedding
PAIR_GAP = 1e-8
# relative max-entry deviation |D - D*| accepted in a block of the
# oracle's KS defects D
DEFECT_HERMITICITY = 1e-12
# max-entry deviation |map(1) - 1| accepted as unital by the KS oracle;
# conjugate_by_unitaries accepts U with |U U* - 1| up to UNITARITY
UNITALITY = 1e-8
# relative max-entry deviation accepted between a map's evaluate_batch and
# its Pauli-basis template contraction
LINEARITY = 1e-12
