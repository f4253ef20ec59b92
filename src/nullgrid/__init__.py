"""Exact computations in the vanishing ideal of a multiset grid: reduction
with cofactor certificates, membership two ways, generalized divided
differences, nonvanishing witnesses, punctured decompositions, and
multiplicity-aware combinatorial bound checkers."""

from .errors import (
    ArityMismatchError,
    FieldMismatchError,
    InvariantViolation,
    PolyParseError,
    PreconditionError,
)
from .fields import FieldElement, FieldSpec, field_from_dict, field_to_dict, is_probable_prime
from .polynomials import MultiPoly, TermOrder, parse_poly
from .ideals import (
    Multiset,
    MultisetGrid,
    ReductionResult,
    coefficients_stay_integral,
    grid_expansions,
    grid_from_dict,
    grid_to_dict,
    in_grid_ideal,
    in_local_ideal,
    multiset_from_list,
    multiset_to_list,
    reduce_poly,
    standard_monomials,
    term_order_family,
    universal_gb_check,
)
from .divdiff import (
    WeightTable,
    divided_difference,
    divided_difference_recursive,
    top_coefficient_identity_holds,
    top_weight_closed_form,
    weight_table,
)
from .certificates import (
    PuncturedResult,
    Witness,
    cofactor_obstruction_check,
    find_witness,
    punctured_decompose,
    trim_grid,
)
from .applications import (
    BoundCheck,
    CoverReport,
    Hyperplane,
    VectorMultiset,
    cauchy_davenport_check,
    eliahou_kervaire_check,
    extremal_cover,
    hopf_stiefel,
    iter_multisets,
    iter_vector_multisets,
    multiset_deg,
    sumset,
    sun_value_set_check,
    value_set,
    vector_sumset,
    verify_cover,
)

__version__ = "0.1.0"
