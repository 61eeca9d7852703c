"""qcong: truncated q-series engine and congruence toolkit.

Builds generating functions for overpartition and plane-overpartition
families over exact or modular coefficient rings, cross-checks them against
brute-force enumeration, verifies a catalog of arithmetic-progression
congruences modulo powers of two (and 12), computes minimum periods of
restricted-partition series via Kwong's closed form, and scans for new
congruence candidates.

The public names below are resolved on first access (PEP 562), so
``import qcong`` loads no submodule and a command pays only for the modules
it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "congruence": (
        "Claim",
        "Constant",
        "Equivalent",
        "Predicate",
        "Report",
        "SeriesOrderTooSmall",
        "SeriesStore",
        "SumClaim",
        "builtin_suite",
        "claim_from_json",
        "reference_bound",
        "verify",
        "verify_at_reference",
        "verify_claim",
        "verify_sum_claim",
    ),
    "genfun": (
        "Family",
        "build_series",
        "phi_series",
    ),
    "periodicity": (
        "InsufficientOrder",
        "PeriodReport",
        "cross_check",
        "empirical_period",
        "kwong_period",
    ),
    "scan": (
        "Finding",
        "ScanConfig",
        "empirical_density",
        "load_findings",
        "persist_findings",
        "scan_ap_congruences",
    ),
    "series": (
        "EXACT",
        "Mod",
        "NonUnitConstantTerm",
        "Ring",
        "Series",
    ),
}
_SUBMODULES = ("cli", "congruence", "genfun", "oracles", "periodicity", "scan",
               "series")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
