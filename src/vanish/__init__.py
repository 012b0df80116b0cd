"""Exact commutative algebra over Q and GF(p): Groebner bases, ideal
operations, symbolic powers, Hilbert multiplicities, and executable
containment checks between symbolic and ordinary powers of primes.
"""

from .errors import (
    NonHomogeneousError,
    OrdSearchCapError,
    ParseError,
    RingMismatchError,
    TermCapExceededError,
    UncertifiedSymbolicPowerError,
    UnitIdealError,
    UnknownVariableError,
    VanishError,
    WitnessError,
    ZeroDivisorRequestError,
)
from .fields import GF, QQ, CoefficientField
from .groebner import GroebnerBasis, buchberger, divmod_poly, normal_form, spoly
from .idealfile import IdealFile
from .ideals import Ideal, coordinate_prime, maximum_independent_sets
from .local import (
    HilbertData,
    PrimeWitness,
    associativity_check,
    graded_hilbert_data,
    hilbert_series,
    local_length_at_monomial_prime,
    multiplicity_graded,
    ord_along,
    symbolic_power,
    verify_isolated_singularity,
)
from .orders import GREVLEX, GRLEX, LEX, MonomialOrder, elimination_order
from .parser import parse_generators, parse_polynomial
from .poly import Polynomial, PolyRing
from .reports import HypothesisReport, VerificationReport
from .theorems import (
    affine_vanishing_report,
    check_hypotheses,
    monomial_curve_prime,
    verify_ci_product,
    verify_multi,
    verify_regular_case,
    verify_sp2,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientField", "QQ", "GF",
    "PolyRing", "Polynomial",
    "MonomialOrder", "GREVLEX", "GRLEX", "LEX", "elimination_order",
    "parse_polynomial", "parse_generators",
    "buchberger", "normal_form", "divmod_poly", "spoly", "GroebnerBasis",
    "Ideal", "coordinate_prime", "maximum_independent_sets",
    "PrimeWitness", "HilbertData", "symbolic_power", "ord_along",
    "hilbert_series", "graded_hilbert_data", "multiplicity_graded",
    "local_length_at_monomial_prime", "associativity_check",
    "verify_isolated_singularity",
    "HypothesisReport", "VerificationReport", "check_hypotheses",
    "verify_sp2", "verify_multi", "verify_regular_case",
    "verify_ci_product", "affine_vanishing_report", "monomial_curve_prime",
    "IdealFile",
    "VanishError", "RingMismatchError", "ParseError", "UnknownVariableError",
    "TermCapExceededError", "UnitIdealError", "ZeroDivisorRequestError",
    "WitnessError", "NonHomogeneousError", "UncertifiedSymbolicPowerError",
    "OrdSearchCapError",
]
