"""Exact SU(2) 6j and OSP(1|2) supersymmetric 6j symbols.

Exact evaluation in big-rational arithmetic, tetrahedron geometry from the
spin labels, closed-form large-scaling asymptotics per parity, and a scan
harness comparing the two.
"""

from .asymptotics import (
    AsymptoticResult,
    asym_alpha,
    asym_beta,
    asym_for_scaled,
    asym_gamma,
    asym_standard,
)
from .errors import (
    AdmissibilityError,
    DegenerateFactorError,
    EmptySumWarning,
    InsufficientExtremaError,
    IntegralityViolation,
    KParityError,
    NonEuclideanError,
    ParityViolation,
    ShiftViolation,
    SixjError,
    TriangleViolation,
    UndefinedShiftError,
)
from .exact import ExactSymbol, ScaledFloat, exact_to_scaled, factorial
from .geometry import (
    TetGeometry,
    cayley_menger,
    discriminant_check,
    saddle_coeff_a,
    saddle_coeff_b,
    saddle_coeff_c,
    tet_from_spins,
)
from .halfint import HalfInt, parse_halfint
from .scan import (
    ScanRecord,
    SlopeFit,
    envelope_slope,
    k_range,
    local_maxima,
    read_csv,
    scan,
    write_csv,
    write_json,
)
from .symbols import (
    frontal_sign,
    monomial,
    monomial_coefficients,
    sixj_exact,
    sixj_super_exact,
)
from .triangles import (
    BetaDecomposition,
    Parity,
    SpinSextuple,
    TriangleData,
    beta_decompose,
    check_admissible,
    classify_parity,
    is_admissible,
    rescale,
    triangle_sums,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticResult",
    "AdmissibilityError",
    "BetaDecomposition",
    "DegenerateFactorError",
    "EmptySumWarning",
    "ExactSymbol",
    "HalfInt",
    "InsufficientExtremaError",
    "IntegralityViolation",
    "KParityError",
    "NonEuclideanError",
    "Parity",
    "ParityViolation",
    "ScaledFloat",
    "ScanRecord",
    "ShiftViolation",
    "SixjError",
    "SlopeFit",
    "SpinSextuple",
    "TetGeometry",
    "TriangleData",
    "TriangleViolation",
    "UndefinedShiftError",
    "asym_alpha",
    "asym_beta",
    "asym_for_scaled",
    "asym_gamma",
    "asym_standard",
    "beta_decompose",
    "cayley_menger",
    "check_admissible",
    "classify_parity",
    "discriminant_check",
    "envelope_slope",
    "exact_to_scaled",
    "factorial",
    "frontal_sign",
    "is_admissible",
    "k_range",
    "local_maxima",
    "monomial",
    "monomial_coefficients",
    "parse_halfint",
    "read_csv",
    "rescale",
    "saddle_coeff_a",
    "saddle_coeff_b",
    "saddle_coeff_c",
    "scan",
    "sixj_exact",
    "sixj_super_exact",
    "tet_from_spins",
    "triangle_sums",
    "write_csv",
    "write_json",
]
