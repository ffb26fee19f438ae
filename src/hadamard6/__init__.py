"""Exact toolkit for the 6x6 Butson-type complex Hadamard catalog."""

from .cyclo import CycInt, OrderMismatchError, cyclotomic_coeffs, euler_phi
from .matrices import (
    ButsonMatrix,
    PhaseVector,
    dephase,
    format_matrix,
    is_hadamard_exact,
    is_hadamard_numeric,
    parse_matrix,
    rephase,
)
from .catalog import (
    CatalogEntry,
    agaian_symmetric,
    agaian_variant,
    diagonal_normalized,
    get,
    names,
)
from .invariants import (
    CharPoly,
    ConvergenceError,
    RankCertificate,
    Spectrum,
    charpoly_exact,
    closed_form_A2a,
    defect,
    defect_certificate,
    deformation_system,
    eig_real_symmetric,
    haagerup_set,
    poly_eq,
    scale,
    spectrum_distance,
    spectrum_numeric,
)
from .equivalence import (
    SEARCH_BUDGET,
    EquivVerdict,
    SearchBudgetExceeded,
    Witness,
    apply_witness,
    classify,
    standard_equivalent,
    unitary_equivalent,
)

__version__ = "0.1.0"

__all__ = [
    "SEARCH_BUDGET", "ButsonMatrix", "CatalogEntry", "CharPoly", "ConvergenceError",
    "CycInt", "EquivVerdict", "OrderMismatchError", "PhaseVector", "RankCertificate",
    "SearchBudgetExceeded", "Spectrum", "Witness", "agaian_symmetric", "agaian_variant",
    "apply_witness", "charpoly_exact", "classify", "closed_form_A2a",
    "cyclotomic_coeffs", "defect", "defect_certificate", "deformation_system",
    "dephase", "diagonal_normalized", "eig_real_symmetric", "euler_phi",
    "format_matrix", "get", "haagerup_set", "is_hadamard_exact", "is_hadamard_numeric",
    "names", "parse_matrix", "poly_eq", "rephase", "scale", "spectrum_distance",
    "spectrum_numeric", "standard_equivalent", "unitary_equivalent",
]
