"""Exact-arithmetic workbench for differential-operator structures on Lie and
pre-Lie algebras over the Gaussian rationals.

Everything is computed with exact rational arithmetic: structure constants,
representations, bilinear forms, operator identities, triple classification,
decomposition/reconstruction, and linear form searches.
"""

from .algebra import (
    LieAlgebra,
    PreLieAlgebra,
    Representation,
    abelian,
    adjoint_rep,
    check_lie,
    check_prelie,
    coadjoint_rep,
    coregular_rep,
    dual_rep,
    regular_rep,
    subadjacent,
    trivial_rep,
)
from .bundle import Bundle, BundleError, classify_triple, load_bundle, parse_bundle
from .geometry import (
    BilForm,
    KahlerQuad,
    check_hermitian_variant,
    check_kahler_quad,
    classify_hyper_hessian,
    classify_hyper_symplectic,
    endo_triple_correspondence,
    endomorphism_symmetry,
    form_to_map,
    induced_form,
    is_hessian,
    is_invariant_form,
    is_symplectic,
    kahler_suite,
)
from .hyper import (
    ClassificationError,
    Decomposition,
    HyperTriple,
    classify_hyper,
    decompose_hyper,
    derived_structures_report,
    product_one_suite,
    reconstruct_hyper,
    verify_composition_table,
    verify_hflat_identities,
)
from .linalg import (
    AffineSolutionSpace,
    DimensionError,
    Matrix,
    Poly,
    SingularMatrixError,
    generic_determinant,
    solve_affine,
)
from .operators import (
    ALGEBRA,
    MODULE,
    LinMap,
    are_compatible,
    bracket_T,
    brackets_coincide,
    deformed_bracket,
    deformed_representation,
    dn_powers,
    inner_rdo,
    is_dn,
    is_dual_nijenhuis_pair,
    is_kd,
    is_kn,
    is_nijenhuis,
    is_o_operator,
    is_rdo,
    kn_hierarchy,
    nijenhuis_square_sign,
)
from .reporting import ClaimResult, PreconditionError, Report
from .scalars import (
    I,
    ONE,
    ZERO,
    Scalar,
    ScalarArithmeticError,
    ScalarParseError,
    parse_scalar,
    scalar,
)
from .search import FormSpaceResult, instantiate, solve_forms

__version__ = "0.1.0"
