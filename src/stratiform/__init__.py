"""Exact models for the cohomology of arrangement complements.

The package computes weight-graded rational cohomology of complements of
hyperplane and toric arrangements, checks the purity of strata, and
produces machine-checkable formality certificates via bigraded cdga
models built from compactification data.
"""

from stratiform.exactalg import Matrix, hermite_basis
from stratiform.toriclayers import ToricHypersurface, torus_cohomology
from stratiform.leraymodel import (
    FormalityCertificate,
    LerayTable,
    PurityReport,
    StrataData,
    Stratum,
    assemble_e2,
    betti_and_poincare,
    degeneration_by_weights,
    formality_certificate,
    purity_hypothesis_check,
    strata_data_from_hyperplanes,
    strata_data_from_toric,
)
from stratiform.morganmodel import (
    BigradedModel,
    CdgaMorphism,
    CompactificationDatum,
    FormalityWitness,
    build_model,
    builder_point,
    builder_projective_line_marked,
    check_r_quasi_iso,
    cohomology_of_model,
    extract_cokernel_model,
    extract_kernel_model,
    kunneth_product,
    localization_betti,
    shuffle_sign,
    verify_cdga_axioms,
)

__version__ = "0.1.0"
