"""Finite Laguerre planes: construction, axiom verification, symmetries.

The package builds explicit finite Laguerre planes (the classical
coordinate model over GF(q) and generalized oval-function models),
verifies the incidence axioms and a family of configuration statements
about circle tangency exhaustively or by seeded sampling, and constructs
and certifies the involutory symmetry attached to a non-tangent circle
pair, down to the inversive-plane structure carried by its fixed circles.
"""

from .errors import (
    LaguerreError,
    NotALaguerrePlane,
    NotFixedPointFree,
    NotUnique,
    ParallelPoints,
    PointNotOnCircle,
    PointOnCircle,
    TangentPair,
    WellDefinednessFailure,
)
from .gf import FiniteField, field_of_order, make_field, square_roots
from .plane import (
    Circle,
    LaguerrePlane,
    Pencil,
    Tangency,
    validate_laguerre_axioms,
)
from .models import (
    SUPPORTED_PLANE_ORDERS,
    build_plane,
    export_plane,
    import_plane,
    miquelian_plane,
    oval_plane,
    oval_table_power,
)
from .report import CheckMode, CheckReport, Violation
from .checks import (
    CHECK_IDS,
    CHECKERS,
    check_C,
    check_S,
    check_bundle,
    check_cor_2_1,
    check_miquel,
    check_pi,
    check_pi_prime,
    check_prop_1_1,
    check_prop_2_1,
    check_prop_2_2,
    check_thm_2_3,
    exhaustive_size,
    replay_violation,
)
from .symmetry import (
    Automorphism,
    MoebiusCandidate,
    SymmetryClassification,
    build_dts,
    classify_symmetry,
    double_tangency_pencil,
    export_automorphism,
    find_fixed_point_free_pair,
    fixed_circles,
    import_automorphism,
    moebius_extract,
    sample_nontangent_pairs,
    tangency_map,
    tangent_to_second,
    verify_dts,
)
from .rng import splitmix64

__version__ = "0.1.0"
