"""Bipartition combinatorics, Specht ideals and varieties for signed permutations."""

from types import ModuleType as _ModuleType

from .errors import (
    AmbientMismatchError,
    BnSpechtError,
    EmptyOrbitError,
    NoConclusionError,
    NotApplicableError,
    ParseError,
    ResourceLimitExceeded,
    ResourceLimits,
    SizeMismatchError,
)
from .groebner import (
    CoveringCertificate,
    GroebnerBasis,
    buchberger,
    covering_certificate,
    inclusion_by_certificates,
    radical_report,
    reduce,
    specht_ideal_basis,
    specht_ideal_contains,
    universal_gb_check,
)
from .invariants import (
    MonomialProfile,
    bn_orbit,
    detect_specht_subideal,
    detection_report,
    excluded_orbit_classes,
    gamma,
    gamma_star,
    monomial_profile,
    rank_bound,
    verify_symmetrization,
)
from .partitions import (
    Bipartition,
    HasseDiagram,
    Partition,
    bidominates,
    bipartition_coverings_below,
    bp,
    concatenate,
    conjugate,
    cut,
    dominates,
    enumerate_bipartitions,
    enumerate_partitions,
    glue,
    hasse_diagram,
    hecke_leq,
    induced_leq,
    is_cm_shape,
    parse_bipartition,
    parse_partition,
    partition_coverings_below,
)
from .polynomials import (
    Monomial,
    SignedPermutation,
    SparsePolynomial,
    act,
    act_point,
    parse_polynomial,
    vandermonde,
    vandermonde_squares,
)
from .tableaux import (
    Bitableau,
    Tableau,
    all_bitableaux,
    enumerate_standard_bitableaux,
    enumerate_standard_tableaux,
    glue_bitableau,
    num_standard_bitableaux,
    num_standard_tableaux,
    reference_bitableau,
    specht_generators,
    specht_polynomial_bn,
    specht_polynomial_sn,
    split_bitableau,
)
from .varieties import (
    OrbitClass,
    bn_orbit_type,
    decompose_variety,
    decomposition_report,
    lambda_t,
    orbit_representative,
    orbit_set_nonempty,
    phi,
    sn_orbit_type,
    variety_contains,
    witness_z1,
    witness_z2,
)

# importing the submodules binds their names here too; they are not exports
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
__version__ = "1.0.0"
