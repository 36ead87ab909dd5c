#
# Choi matrices and their spectra: numerical assembly against the
# closed-form eigenvalues, and the sign test that decides complete
# positivity.  Smallest eigenvalues come from choi_min_eigenvalues, the
# test classify uses to decide CP; the full spectrum from numpy's eigvalsh.
#
import numpy as np

from ksq.channels import (
    DiagonalParams,
    QubitChannel,
    ScalarPairParams,
    TensorMap,
    choi_matrix_qubit,
    choi_matrix_tensor,
)
from ksq.classify import choi_min_eigenvalues, tlm_choi_eigenvalues


def main():
    print("Choi matrix of the identity channel (twice the entangled projector):")
    print(choi_matrix_qubit(QubitChannel.identity()).real)

    print("\nChoi matrix of the transpose channel (the swap matrix):")
    swap = choi_matrix_qubit(QubitChannel.diagonal(DiagonalParams(1, -1, 1)))
    print(swap.real)
    print("smallest eigenvalue:", float(choi_min_eigenvalues(swap)), " -> not completely positive")

    p = ScalarPairParams(0.3, 0.1)
    choi = choi_matrix_tensor(TensorMap.scalar(p))
    spectrum = np.linalg.eigvalsh(choi)
    print("\nScalar family at (0.3, 0.1): 8x8 Choi spectrum")
    print(np.round(spectrum, 10))
    print("closed-form values (halved by the assembly convention):")
    print(np.round(0.5 * tlm_choi_eigenvalues(p), 10))

    ch = QubitChannel.diagonal(DiagonalParams(0.6, 0.5, 0.0))
    low = float(choi_min_eigenvalues(choi_matrix_qubit(ch)))
    print("\nChannel (0.6, 0.5, 0): Kadison-Schwarz, yet its Choi matrix has")
    print(f"smallest eigenvalue {low:.4f} < 0, so it is not completely positive.")


if __name__ == "__main__":
    main()
