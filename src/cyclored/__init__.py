"""Toolkit for the statistics of cyclic reduction of rational elliptic
curves: an exact prime census, rigorous density enclosures with
entanglement corrections, and finite matrix-group oracles."""

# Set before the submodules load: census and density reports record it as provenance.
__version__ = "0.1.0"

from .census import (
    CensusReport,
    CheckpointCorrupt,
    InclusionExclusionReport,
    PrimeClassification,
    classify_prime,
    inclusion_exclusion_check,
    run_census,
    split_count,
)
from .curve import (
    BadReduction,
    BadWitness,
    CurveOverQ,
    GroupStructure,
    IterationCap,
    ReducedCurve,
    group_order,
    group_structure,
    reduce,
)
from .density import (
    DegreeOne,
    DegreeProfile,
    DensityReport,
    Indeterminate,
    Interval,
    MissingDegree,
    artin_constant,
    build_density_report,
    c_factor,
    charsum_alpha,
    classify_vanishing,
    delta_partial,
    gl2_order,
    naive_density,
    superfluous_correction,
)
from .entangle import (
    CharacterNotSurjective,
    ClosureCapExceeded,
    MatrixTuple,
    MatrixTupleGroup,
    NotCentral,
    NotOrderTwo,
    delta_exact,
    full_product_group,
    generate_closure,
    index2_character_subgroup,
    norm_one_construction,
)
from .galois_image import (
    CertificationResult,
    ImageFingerprint,
    InvalidPrime,
    certify_surjective,
    two_division_degree,
)
from .registry import REGISTRY, CurveSpec, get_curve
