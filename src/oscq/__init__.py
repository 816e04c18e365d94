"""Arbitrary-precision orthogonal polynomials for the oscillatory Bessel
weight: exact-moment construction, complex zeros, complex Gaussian
quadrature rules, and numerical validation of the asymptotic theory."""

from .moments import (MonicPolynomial, Variable, hankel_det, moment,
                      moment_sequence, monic_op, rescale_to_tilde)
from .quadrule import QuadratureRule, apply_rule, gauss_rule
from .zeros import ZeroSet, ecdf_vs_psi, find_zeros, zero_line_stats

__version__ = "0.1.0"

__all__ = [
    "MonicPolynomial", "QuadratureRule", "Variable", "ZeroSet", "apply_rule",
    "ecdf_vs_psi", "find_zeros", "gauss_rule", "hankel_det", "moment",
    "moment_sequence", "monic_op", "rescale_to_tilde", "zero_line_stats",
    "__version__",
]
