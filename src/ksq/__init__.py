"""Numerical classification of bistochastic qubit channels and their
maps into the tensor square: positivity, the Kadison-Schwarz property
and complete positivity, with closed-form criteria cross-checked by
brute-force sampling oracles."""

from .channels import (
    DiagonalParams,
    DiagonalTensorParams,
    QubitChannel,
    ScalarPairParams,
    TensorMap,
    choi_matrix_qubit,
    choi_matrix_tensor,
    convex_combination,
    conjugate_by_unitaries,
    parse_descriptor,
)
from .classify import Status, TriState, Verdict, classify_full
from .oracle import SampleConfig, Witness, ks_violation_search, positivity_violation_search
from .pauli import PauliElement, from_matrix, to_matrix
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

__all__ = [
    "DEFAULT",
    "DiagonalParams",
    "DiagonalTensorParams",
    "PauliElement",
    "QubitChannel",
    "SampleConfig",
    "ScalarPairParams",
    "Status",
    "TensorMap",
    "Tolerances",
    "TriState",
    "Verdict",
    "Witness",
    "choi_matrix_qubit",
    "choi_matrix_tensor",
    "classify_full",
    "conjugate_by_unitaries",
    "convex_combination",
    "from_matrix",
    "ks_violation_search",
    "parse_descriptor",
    "positivity_violation_search",
    "to_matrix",
]
