"""Lower bounds on maximal determinants of sign matrices.

Builds Hadamard and conference matrices, enumerates achievable Hadamard
orders, borders a core matrix with random sign columns and a greedy sign
corner, and evaluates the resulting exact determinant lower bounds on
D(n)/n^(n/2) alongside the closed-form bounds.
"""

__version__ = "0.1.0"

from .constructions import (CONFERENCE, HADAMARD, QuasiOrthogonal,
                            build_recipe, kronecker, paley_conference,
                            paley_one, paley_two, plan_recipe,
                            sylvester_double)
from .exact import LogScalar, det_exact, normalized_ratio
from .sieve import (OrderSet, GapReport, Resolution, build_order_set,
                    gap_function, resolve)
from .border import (SearchConfig, TrialResult, sample_border_columns,
                     search, verify_witness)
from .bounds import evaluate_bounds, g_of_h, h0

__all__ = [
    "__version__",
    "CONFERENCE", "HADAMARD", "QuasiOrthogonal", "build_recipe", "kronecker",
    "paley_conference", "paley_one", "paley_two", "plan_recipe",
    "sylvester_double",
    "LogScalar", "det_exact", "normalized_ratio",
    "OrderSet", "GapReport", "Resolution", "build_order_set",
    "gap_function", "resolve",
    "SearchConfig", "TrialResult", "sample_border_columns", "search",
    "verify_witness",
    "evaluate_bounds", "g_of_h", "h0",
]
