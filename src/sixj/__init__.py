"""Exact SU(2) 6j and OSP(1|2) supersymmetric 6j symbols.

Exact evaluation in big-rational arithmetic, tetrahedron geometry from the
spin labels, closed-form large-scaling asymptotics per parity, and a scan
harness comparing the two.  The package namespace holds the public API that
the README lists; everything else stays in its submodule.
"""

from .asymptotics import AsymptoticResult, asym_for_scaled, asym_standard
from .errors import (
    AdmissibilityError,
    InsufficientExtremaError,
    IntegralityViolation,
    NonEuclideanError,
    ParityViolation,
    SixjError,
    TriangleViolation,
)
from .exact import ExactSymbol, ScaledFloat
from .geometry import TetGeometry, discriminant_check, tet_from_spins
from .halfint import HalfInt
from .scan import ScanRecord, SlopeFit, envelope_slope, read_csv, scan, write_csv, write_json
from .symbols import sixj_exact, sixj_super_exact
from .triangles import Parity, SpinSextuple

__version__ = "0.1.0"

__all__ = [
    "AsymptoticResult",
    "AdmissibilityError",
    "ExactSymbol",
    "HalfInt",
    "InsufficientExtremaError",
    "IntegralityViolation",
    "NonEuclideanError",
    "Parity",
    "ParityViolation",
    "ScaledFloat",
    "ScanRecord",
    "SixjError",
    "SlopeFit",
    "SpinSextuple",
    "TetGeometry",
    "TriangleViolation",
    "asym_for_scaled",
    "asym_standard",
    "discriminant_check",
    "envelope_slope",
    "read_csv",
    "scan",
    "sixj_exact",
    "sixj_super_exact",
    "tet_from_spins",
    "write_csv",
    "write_json",
]
