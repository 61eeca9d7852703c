"""qcong: truncated q-series engine and congruence toolkit.

Builds generating functions for overpartition and plane-overpartition
families over exact or modular coefficient rings, cross-checks them against
brute-force enumeration, verifies a catalog of arithmetic-progression
congruences modulo powers of two (and 12), computes minimum periods of
restricted-partition series via Kwong's closed form, and scans for new
congruence candidates.
"""

from .congruence import (
    Claim,
    Constant,
    Equivalent,
    Predicate,
    Report,
    SeriesOrderTooSmall,
    SeriesStore,
    SumClaim,
    builtin_suite,
    claim_from_json,
    reference_bound,
    verify,
    verify_at_reference,
    verify_claim,
    verify_sum_claim,
)
from .genfun import (
    Family,
    Multiset,
    build_series,
    check_jacobi_specializations,
    check_phi_factorizations,
    phi_product_approx,
    phi_series,
    sum_of_squares_series,
    tail_product_series,
    two_adic_overpartition,
)
from .periodicity import (
    InsufficientOrder,
    PeriodReport,
    b_value,
    cross_check,
    ell_free_part,
    empirical_period,
    kwong_period,
    m_value,
    ord_prime,
)
from .scan import (
    Finding,
    ScanConfig,
    empirical_density,
    load_findings,
    persist_findings,
    scan_ap_congruences,
)
from .series import EXACT, Mod, NonUnitConstantTerm, Ring, Series, f_series

__version__ = "0.1.0"

__all__ = [
    "Claim",
    "Constant",
    "EXACT",
    "Equivalent",
    "Family",
    "Finding",
    "InsufficientOrder",
    "Mod",
    "Multiset",
    "NonUnitConstantTerm",
    "PeriodReport",
    "Predicate",
    "Report",
    "Ring",
    "ScanConfig",
    "Series",
    "SeriesOrderTooSmall",
    "SeriesStore",
    "SumClaim",
    "b_value",
    "build_series",
    "builtin_suite",
    "check_jacobi_specializations",
    "check_phi_factorizations",
    "claim_from_json",
    "cross_check",
    "ell_free_part",
    "empirical_density",
    "empirical_period",
    "f_series",
    "kwong_period",
    "load_findings",
    "m_value",
    "ord_prime",
    "persist_findings",
    "phi_product_approx",
    "phi_series",
    "reference_bound",
    "scan_ap_congruences",
    "sum_of_squares_series",
    "tail_product_series",
    "two_adic_overpartition",
    "verify",
    "verify_at_reference",
    "verify_claim",
    "verify_sum_claim",
]
