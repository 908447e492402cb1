"""mu-deformed quantum mechanics toolkit.

Deformed special functions (factorial, exponential, binomial polynomials,
the probability measure behind the integral representation), exact
big-rational verification of the binomial-polynomial identities, two
independent evaluators of the trace of products of spectral projections of
the deformed position and momentum operators, an exact symbolic realization
of those operators on Gaussian polynomials, and a CLI tying it together.
"""

from .core import (MuContext, SeriesResult, binomial_poly, deformed_binomial,
                   eta_rule, even_series_result, exp_mu_integral,
                   exp_mu_series, gamma_mu)
from .errors import EvaluationError
from .exact import (IdentityCheck, MuPolynomial, gamma_mu_exact, p_at_exact,
                    verify_closed_forms, verify_odd_vanishing)
from .intervals import IntervalSet, format_interval_set, parse_interval_set
from .operators import (EomReport, GaussPoly, apply_H, apply_J, apply_P,
                        apply_Q, ccr_residual, eom_residuals,
                        fourier_mu_numeric, intertwining_check,
                        parse_gauss_poly)
from .trace import (ScanRow, TraceEstimate, deviation_scan, evaluate_pair,
                    rows_to_csv, rows_to_json, trace_moment_series,
                    trace_quadrature)

__version__ = "0.1.0"

__all__ = [
    "EomReport", "EvaluationError", "GaussPoly", "IdentityCheck",
    "IntervalSet", "MuContext",
    "MuPolynomial", "ScanRow", "SeriesResult", "TraceEstimate",
    "apply_H", "apply_J", "apply_P", "apply_Q",
    "binomial_poly", "ccr_residual", "deformed_binomial", "deviation_scan",
    "eom_residuals", "eta_rule", "evaluate_pair", "even_series_result",
    "exp_mu_integral", "exp_mu_series", "format_interval_set",
    "fourier_mu_numeric", "gamma_mu", "gamma_mu_exact", "intertwining_check",
    "p_at_exact", "parse_gauss_poly", "parse_interval_set", "rows_to_csv",
    "rows_to_json", "trace_moment_series", "trace_quadrature",
    "verify_closed_forms", "verify_odd_vanishing",
]
