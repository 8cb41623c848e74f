"""Exact arithmetic for Hilbert modular surfaces over real quadratic fields.

The package computes field invariants (fundamental unit, class number,
regulator, certified L-values), decides a sufficient criterion for the strong
Green-Griffiths-Lang property field by field, bounds elliptic point
contributions through CM extension class numbers, and verifies cusp and
cyclic quotient resolution combinatorics symbolically.
"""

from __future__ import annotations

from .criteria import (
    CriterionReport,
    FieldInputs,
    Thresholds,
    beta_constant,
    nu_max,
    rr_leading_coeff,
    thresholds,
    verdict,
)
from .cusps import (
    CuspChartCheck,
    CuspCycle,
    CuspTangencyReport,
    chart_tangency,
    cusp_cycle,
    find_equivalent_reduced,
    periodic_hj,
    verify_cusp_tangency,
)
from .cyclic import (
    ChartAtlas,
    ChartTangency,
    CyclicChart,
    TaiCheck,
    exact_det,
    hj_resolve,
    parse_matrices,
    tai_check,
    tangency_divisor,
    wedge_terms,
)
from .elliptic import (
    CMExtensionInvariants,
    EllipticSummary,
    EllipticTrace,
    TraceBound,
    cm_extension_invariants,
    elliptic_summary,
    elliptic_traces,
    fit_growth_exponent,
    imag_class_numbers,
    make_l1_lookup,
    prestel_bound,
)
from .errors import (
    BudgetExceededError,
    CacheError,
    DomainError,
    NumericalAgreementError,
)
from .field_invariants import (
    ClassData,
    FundamentalUnit,
    DualZeta,
    QuadraticFieldInvariants,
    class_number,
    fundamental_discriminant,
    fundamental_discriminant_signed,
    fundamental_discriminants_up_to,
    fundamental_unit,
    invariants,
    regulator,
    zeta_K2_dual,
)
from .hj import hj_expand, hj_reconstruct
from .lfunctions import (
    closed_form_l1,
    is_fundamental_discriminant,
    is_squarefree,
    kronecker_chi,
)
from .quadratic import QuadElem
from .scan import ScanResult
from .reports import FieldRecord, ScanCache, SCHEMA_VERSION

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CMExtensionInvariants",
    "CacheError",
    "ChartAtlas",
    "ChartTangency",
    "ClassData",
    "FundamentalUnit",
    "CriterionReport",
    "CuspChartCheck",
    "CuspCycle",
    "CuspTangencyReport",
    "CyclicChart",
    "DomainError",
    "DualZeta",
    "EllipticSummary",
    "EllipticTrace",
    "FieldInputs",
    "FieldRecord",
    "NumericalAgreementError",
    "QuadElem",
    "QuadraticFieldInvariants",
    "SCHEMA_VERSION",
    "ScanCache",
    "ScanResult",
    "TaiCheck",
    "Thresholds",
    "TraceBound",
    "beta_constant",
    "chart_tangency",
    "class_number",
    "closed_form_l1",
    "cm_extension_invariants",
    "cusp_cycle",
    "elliptic_summary",
    "elliptic_traces",
    "exact_det",
    "find_equivalent_reduced",
    "fit_growth_exponent",
    "fundamental_discriminant",
    "fundamental_discriminant_signed",
    "fundamental_discriminants_up_to",
    "fundamental_unit",
    "hj_expand",
    "hj_reconstruct",
    "hj_resolve",
    "imag_class_numbers",
    "invariants",
    "is_fundamental_discriminant",
    "is_squarefree",
    "kronecker_chi",
    "make_l1_lookup",
    "nu_max",
    "parse_matrices",
    "periodic_hj",
    "prestel_bound",
    "regulator",
    "rr_leading_coeff",
    "tai_check",
    "tangency_divisor",
    "thresholds",
    "verdict",
    "verify_cusp_tangency",
    "wedge_terms",
    "zeta_K2_dual",
]
