"""Exception hierarchy.

Every domain error raised by the library derives from EllipticaError and
carries the name of the operation that failed, so the CLI can emit a
structured error object.
"""
from __future__ import annotations


class EllipticaError(Exception):
    """Base class for all domain errors."""

    operation = "unknown"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_json(self) -> dict:
        out = {"operation": self.operation, "message": self.message}
        if self.details:
            out["details"] = {k: repr(v) for k, v in self.details.items()}
        return out


class DegenerateGeneratorsError(EllipticaError):
    operation = "make_lattice"


class InvalidOrderError(EllipticaError):
    operation = "eisenstein_series"


class AbelViolationError(EllipticaError):
    operation = "build_from_divisors"

    def __init__(self, message: str, defect: float, **details):
        super().__init__(message, defect=defect, **details)
        self.defect = defect


class OverlappingDivisorsError(EllipticaError):
    operation = "build_from_divisors"


class DegreeMismatchError(EllipticaError):
    operation = "build_from_divisors"


class IndeterminatePointError(EllipticaError):
    operation = "eval_elliptic"


class NotDegree2Error(EllipticaError):
    operation = "decompose_degree2"


class ReconstructionFailureError(EllipticaError):
    operation = "decompose_degree2"


class EmptyDivisorError(EllipticaError):
    operation = "jacobi_sum"


class ContourTooCloseError(EllipticaError):
    operation = "contour_power_sums"


class NonIntegerCountError(EllipticaError):
    operation = "contour_power_sums"


class InsufficientSumsError(EllipticaError):
    operation = "newton_elementary"


class SubdivisionFailureError(EllipticaError):
    operation = "locate_zeros"


class SingularCubicError(EllipticaError):
    operation = "weierstrass_cubic"


class PointOffCurveError(EllipticaError):
    operation = "cubic"


class SingularPointError(EllipticaError):
    operation = "tangent_line"


class NoPreimageError(EllipticaError):
    operation = "unembed"


class FewerThanNineError(EllipticaError):
    operation = "inflection_points"


class PointOnCurveError(EllipticaError):
    operation = "polar_conic"


class SolveFailureError(EllipticaError):
    operation = "lambda_fiber"


class NotDegree3Error(EllipticaError):
    operation = "branch_divisors_via_tangents"


class DerivativeLocationError(EllipticaError):
    operation = "branch_divisors_direct"


class CollisionUnresolvedError(EllipticaError):
    operation = "continue_fiber"


class HalvingLimitError(EllipticaError):
    operation = "continue_fiber"


class SingularInputError(EllipticaError):
    operation = "is_equianharmonic"


class UnsupportedFormatError(EllipticaError):
    operation = "render_report"


class NonFiniteResultError(EllipticaError):
    operation = "render_report"


class InvalidArgumentError(EllipticaError):
    operation = "parse_arguments"
