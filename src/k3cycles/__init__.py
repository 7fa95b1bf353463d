"""Exact-arithmetic lattice computations and cycle-space classification for
IHS period domains: standard lattices, root enumeration, Picard-Lefschetz
reflections, Weyl-chamber partitions and the classification of complex
three-spaces as cycles."""

from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    DegenerateGramError,
    DimensionMismatchError,
    FrameError,
    InputError,
    K3CyclesError,
    NonPositiveKappaError,
    NotARootError,
    NotHermitianError,
    NotIntegralError,
    NotIsometryError,
    NotPositiveDefiniteError,
    NotPositiveError,
    NotSymmetricError,
    WallError,
)
from .gaussrat import GaussRational, format_rational, parse_rational
from .quadspace import (
    E8_GRAM,
    U_GRAM,
    IntegralLattice,
    Isometry,
    LatticeInvariants,
    QuadraticSpace,
    bilinear,
    gram_of,
    hermitian_pair,
    hermitian_signature,
    is_isometry,
    lattice_invariants,
    make_standard_lattice,
    signature,
)
from .rootenum import (
    RootList,
    Sublattice,
    bounded_root_search,
    enumerate_norm_vectors,
    orthogonal_complement_lattice,
    roots_orthogonal_to_threespace,
)
from .cyclespace import (
    CycleClassification,
    DomainStatus,
    HyperplaneIntersection,
    ThreeSpace,
    TwistorStatus,
    apply_isometry,
    classify_cycle,
    example_family,
    intersect_hyperplane,
    is_twistor,
    moduli_dimension,
    resolve_precision,
)
from .weyl import (
    ChamberPartition,
    PartitionCheck,
    PeriodPoint,
    check_partition_property,
    delta_p_bounded,
    is_in_O_plus,
    partition_by_chamber,
    reflect,
    reflection_matrix,
)

__version__ = "0.1.0"
