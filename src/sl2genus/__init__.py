"""Genus and slim-subgroup bound computations for subgroups of SL2(Z/p^nZ)."""

from .core import (
    ConsistencyError,
    ContextMismatchError,
    FeasibilityError,
    GroupCtx,
    Mat,
    NotInvertibleError,
    PreconditionError,
    ReductionError,
    element_order,
    format_mat,
    make_ctx,
    mat,
    mat_inv,
    mat_mul,
    mat_pow,
    parse_mat,
    reduce_mod,
    sigma,
    tau,
    upper_u,
)
from .groups import (
    ConjClassRef,
    ElementSet,
    centralizer_order_formula,
    conj_class_brute,
    conj_class_size_formula,
    enumerate_group,
    group_order,
    u_power_ref,
)
from .subgroups import (
    Subgroup,
    adjoin_minus_one,
    all_subgroups,
    closure,
    filtration,
    filtration_level,
    is_slim,
    parse_subgroup_spec,
    preimage,
    sample_slim_subgroups,
    sample_subgroups,
    section2_property_check,
    standard_subgroup,
)
from .genus import (
    GenusReport,
    closed_form_genus,
    count_in_subgroup,
    cusp_orbit_ratio,
    delta,
    fix_points,
    genus_report,
    legendre,
)
from .fibers import (
    FiberDescriptor,
    fiber_group,
    recovery_count,
    recovery_count_brute,
    verify_orthogonality,
)
from .bounds import (
    BOUND_KINDS,
    CaseReport,
    bound_sequence,
    section7_all,
    section7_case_ids,
    slim_bound_report,
    verify_main_theorem_desk,
    verify_section7,
)

__version__ = "0.1.0"
