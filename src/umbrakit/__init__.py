"""Exact time-space harmonic polynomials via multivariate moment symbolics.

Moment arrays of random tuples are manipulated as formal objects over the
rationals: dot-product operations, generating-function algebra, named
Levy processes, harmonic-basis generation and verification, and the
classical Hermite / Bernoulli / Euler / Sheffer families.
"""

from .multiindex import (MAX_DIMENSION, MAX_TOTAL_ORDER, MultiIndexPartition,
                         OrderOverflowError, format_index, iter_indices,
                         parse_index, partition_weight, partitions)
from .polynomials import Poly, parse_poly
from .series import (OrderMismatchError, TruncatedSeries, series_compose,
                     series_exp, series_log, series_pow, series_reversion,
                     vector_reversion)
from .umbrae import (UmbraTuple, augmentation, bell, bernoulli_umbra,
                     comonotone_tuple, compositional_inverse, dot_beta_tuple,
                     dot_umbra, euler_umbra, gaussian_delta,
                     gaussian_delta_tuple, multivariate_comp_inverse,
                     singleton, unity)
from .processes import (ProcessSpec, SymbolicProcess, UnsupportedProcessError,
                        build, ig_gf_check, load_custom_moments,
                        moments_from_json, moments_to_json)
from .harmonic import (Decomposition, RecursionReport, TshPolynomial,
                       coefficient_recursion_check, conditional_eval,
                       decompose, expected_value_zero, tsh_from_json,
                       tsh_polynomial, tsh_to_json, tsh_to_latex,
                       verify_harmonicity)
from .families import (bernoulli, bernoulli_gf_oracle, euler, euler_gf_oracle,
                       hermite, hermite_gf_oracle, levy_sheffer,
                       levy_sheffer_gf_oracle, levy_sheffer_tsh_check)

__version__ = "0.1.0"

__all__ = [
    "MAX_DIMENSION", "MAX_TOTAL_ORDER", "MultiIndexPartition",
    "OrderOverflowError", "format_index", "iter_indices", "parse_index",
    "partition_weight", "partitions",
    "Poly", "parse_poly",
    "OrderMismatchError", "TruncatedSeries", "series_compose", "series_exp",
    "series_log", "series_pow", "series_reversion", "vector_reversion",
    "UmbraTuple", "augmentation", "bell", "bernoulli_umbra",
    "comonotone_tuple", "compositional_inverse", "dot_beta_tuple",
    "dot_umbra", "euler_umbra", "gaussian_delta", "gaussian_delta_tuple",
    "multivariate_comp_inverse", "singleton", "unity",
    "ProcessSpec", "SymbolicProcess", "UnsupportedProcessError", "build",
    "ig_gf_check", "load_custom_moments", "moments_from_json",
    "moments_to_json",
    "Decomposition", "RecursionReport", "TshPolynomial",
    "coefficient_recursion_check", "conditional_eval", "decompose",
    "expected_value_zero", "tsh_from_json", "tsh_polynomial", "tsh_to_json",
    "tsh_to_latex", "verify_harmonicity",
    "bernoulli", "bernoulli_gf_oracle", "euler", "euler_gf_oracle",
    "hermite", "hermite_gf_oracle", "levy_sheffer", "levy_sheffer_gf_oracle",
    "levy_sheffer_tsh_check",
]
