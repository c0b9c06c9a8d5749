"""relint-kit: exact convex-analysis certificates over polyhedral sets.

Everything computes over arbitrary-precision rationals; no operation ever
rounds.  Decision procedures return evidence objects (separating
functionals, Farkas multipliers, interior witnesses) that re-validate by
direct evaluation, independently of the solver that produced them.
"""

from .rational import Rat, Vec, Mat, vec, mat, parse_rational, format_rational
from .errors import (
    RelintKitError,
    InputError,
    EmptySetError,
    PointNotInSetError,
    TheoremViolation,
)
from .lp import (
    LPProblem,
    LPOutcome,
    Optimal,
    Infeasible,
    Unbounded,
    FarkasCertificate,
    lp_solve,
    verify_farkas,
)
from .linalg import LinearSolution, solve_linear_system, rank
from .polyhedra import (
    HPolyhedron,
    VPolyhedron,
    AffineFlat,
    PolyCone,
    is_empty,
    feasible_point,
    affine_hull,
    dim,
    h_to_v,
    v_to_h,
    linear_image,
    minkowski_diff,
    product,
)
from .relint import (
    MembershipReport,
    QuasiRegularityReport,
    ri_membership,
    ri_point,
    conic_hull_at,
    is_subspace,
    cone_contains,
    normal_cone,
    prolongation_test,
    characterization_suite,
    quasi_regularity_report,
    in_ri,
    in_iri,
    in_qri,
)
from .separation import (
    SeparationCertificate,
    Separated,
    NotSeparable,
    properly_separate,
    verify_certificate,
    qri_nonmembership_via_separation,
    strict_separate_in_flat,
    separation_iff_ri_disjoint,
)
from .setmaps import (
    PolyhedralMap,
    PLConvexFunction,
    GraphRIReport,
    map_domain,
    image_at,
    graph_ri_check,
    epi_polyhedron,
    epi_relint_report,
    epi_quasireg_implies_dom,
    linear_image_ri_commutes,
    set_difference_ri_commutes,
)
from .seqspace import (
    HybridSeq,
    GeomTail,
    L1BallClassification,
    l1_norm,
    l2_norm_squared,
    classify_l1ball,
    quasi_regularity_gap_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
