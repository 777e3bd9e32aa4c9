"""Ordinal-indexed set families, repeated averages, and the norms built on them.

The package computes everything exactly over the rationals: membership in
the transfinite family hierarchy, the recursive averaging vectors and their
block-combination structure, the associated norms with maximizing
witnesses, and the finite-horizon constants derived from all of these.
Expensive searches run under explicit work budgets and fail loudly, with a
lower bound on the true cost, instead of silently truncating.
"""

from .budget import (Budget, BudgetExceededError, WorkMeter, get_budget)
from .ordinal import (Classification, FundamentalRule, OMEGA, ONE, Ordinal,
                      OrdinalParseError, ZERO, classify,
                      default_fundamental_seq, fundamental_successor_seq,
                      parse as parse_ordinal)
from .streams import IndexStream, STREAM_CATALOG, parse_stream
from .schreier import (FinSet, count_family, enumerate_family, is_member,
                       is_member_image, is_member_oracle, threshold,
                       trace_member)
from .vectors import (ProbVector, RatVec, format_fraction, parse_fraction)
from .averages import (AmbiguousReconstructionError, ExplicitMethod,
                       NibccWitness, RepeatedAverages, SummabilityMethod,
                       apply, cesaro_mean, cesaro_reweight, check_nibcc,
                       pair_sum, repeated_avg, successor_pair_prefix,
                       support_size)
from .spaces import (CertificationRefusedError, CertificationViolationError,
                     Functional, NormResult, NormSpec,
                     coordinate_sum_functional, norm, norm_oracle)
from .quantities import (CanonicalBasis, DeltaFamily, ExplicitSequence,
                         HorizonEstimate, LargeCheckResult, PropFormulaValues,
                         SeqSpec, Subsequence, WeightedBasis, ca_window,
                         cca_window, cca_xi_tilde, cca_xi_tilde_sup,
                         cca_xi_window, compose_refinements, f_delta,
                         large_check, prop_formula, sm_constant)
from .reports import Report, SCHEMA_VERSION
from .verify import (verify_example_schreier, verify_example_star,
                     verify_prop_formula)

__version__ = "0.1.0"

__all__ = [
    "Budget", "BudgetExceededError", "WorkMeter", "get_budget",
    "Classification", "FundamentalRule", "OMEGA", "ONE",
    "Ordinal", "OrdinalParseError", "ZERO", "classify",
    "default_fundamental_seq", "fundamental_successor_seq", "parse_ordinal",
    "IndexStream", "STREAM_CATALOG", "parse_stream",
    "FinSet", "count_family", "enumerate_family", "is_member", "is_member_image",
    "is_member_oracle", "threshold", "trace_member",
    "ProbVector", "RatVec", "format_fraction", "parse_fraction",
    "AmbiguousReconstructionError", "ExplicitMethod", "NibccWitness",
    "RepeatedAverages", "SummabilityMethod", "apply", "cesaro_mean",
    "cesaro_reweight", "check_nibcc", "pair_sum", "repeated_avg",
    "successor_pair_prefix", "support_size",
    "CertificationRefusedError", "CertificationViolationError", "Functional",
    "NormResult", "NormSpec", "coordinate_sum_functional", "norm",
    "norm_oracle",
    "CanonicalBasis", "DeltaFamily", "ExplicitSequence", "HorizonEstimate",
    "LargeCheckResult", "PropFormulaValues", "SeqSpec", "Subsequence",
    "WeightedBasis", "ca_window", "cca_window", "cca_xi_tilde",
    "cca_xi_tilde_sup", "cca_xi_window", "compose_refinements", "f_delta",
    "large_check", "prop_formula", "sm_constant",
    "Report", "SCHEMA_VERSION",
    "verify_example_schreier", "verify_example_star", "verify_prop_formula",
    "__version__",
]
