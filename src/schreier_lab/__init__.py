"""Ordinal-indexed set families, repeated averages, and the norms built on them.

The package computes everything exactly over the rationals: membership in
the transfinite family hierarchy, the recursive averaging vectors and their
block-combination structure, the associated norms with maximizing
witnesses, and the finite-horizon constants derived from all of these.
Expensive searches run under explicit work budgets and fail loudly, with a
lower bound on the true cost, instead of silently truncating.

The exports resolve lazily: ``schreier_lab.norm`` imports the norm layer,
and the layers it builds on, on first use.  Importing the package itself
loads no layer.
"""

import importlib

__version__ = "0.1.0"

# Each layer module and the names the package exports from it, in export order.
_LAYERS = {
    "budget": ("Budget", "BudgetExceededError", "WorkMeter", "get_budget"),
    "ordinal": ("Classification", "FundamentalRule", "OMEGA", "ONE",
                "Ordinal", "OrdinalParseError", "ZERO", "classify",
                "default_fundamental_seq", "parse_ordinal"),
    "streams": ("IndexStream", "STREAM_CATALOG", "parse_stream"),
    "schreier": ("FinSet", "count_family", "enumerate_family", "is_member",
                 "is_member_image", "is_member_oracle", "threshold",
                 "trace_member"),
    "vectors": ("CanonicalBasis", "ExplicitSequence", "ProbVector", "RatVec",
                "SeqSpec", "Subsequence", "WeightedBasis", "format_fraction",
                "parse_fraction"),
    "averages": ("AmbiguousReconstructionError", "NibccWitness",
                 "RepeatedAverages", "apply", "cesaro_mean", "cesaro_reweight",
                 "check_nibcc", "pair_sum", "repeated_avg",
                 "successor_pair_prefix", "support_size", "validate_prefix"),
    "spaces": ("CertificationRefusedError", "CertificationViolationError",
               "Functional", "NormResult", "NormSpec",
               "coordinate_sum_functional", "norm", "norm_oracle"),
    "quantities": ("DeltaFamily", "HorizonEstimate", "LargeCheckResult",
                   "PropFormulaValues", "ca_window", "cca_window",
                   "cca_xi_tilde", "cca_xi_tilde_sup", "cca_xi_window",
                   "compose_refinements", "f_delta", "large_check",
                   "prop_formula", "sm_constant"),
    "reports": ("Report", "SCHEMA_VERSION"),
    "verify": ("verify_example_schreier", "verify_example_star",
               "verify_prop_formula"),
}
_MODULE_OF = {name: module for module, names in _LAYERS.items()
              for name in names}
# Exports whose name in their module differs.
_RENAMED = {"parse_ordinal": "parse"}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__),
                    _RENAMED.get(name, name))
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
