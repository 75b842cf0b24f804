"""Exception types, grouped by the CLI exit code they map to, and the
checks of numeric parameters that raise ``InvalidParameterError``.  The
production paths raise them; the selftest's comparisons with the oracles
fail by assertion instead."""
import math
import numbers


class FockVortexError(Exception):
    """Base class for all library errors."""


# -- usage errors (exit code 2) -------------------------------------------

class InvalidParameterError(FockVortexError):
    """A user-supplied parameter violates its precondition."""


def check_count(name: str, value, least: int) -> None:
    """A count is an integer of at least ``least``, and a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidParameterError(f"{name} must be >= {least}, got {value}")


def check_real(name: str, value) -> None:
    """A finite real number: not a bool, an infinity, a NaN or an int past the float range."""
    try:
        finite = (not isinstance(value, bool) and isinstance(value, numbers.Real)
                  and math.isfinite(value))
    except OverflowError:  # math.isfinite of an integer past the float range
        finite = False
    if not finite:
        raise InvalidParameterError(f"{name} must be a finite real number, got {value!r}")


# -- numerical non-convergence (exit code 3) ------------------------------

class NonConvergenceError(FockVortexError):
    """An iterative numerical procedure exhausted its budget."""


class EigensolverError(NonConvergenceError):
    def __init__(self, dimension: int, residual: float):
        self.dimension = dimension
        self.residual = residual
        super().__init__(
            f"hermitian eigensolver failed to converge: "
            f"dimension={dimension}, residual={residual:.3e}"
        )


class GridTooCoarseError(NonConvergenceError):
    """A plaquette carries |winding| > 1: unresolved multi-charge cluster."""


# -- invariant failures (exit code 4) --------------------------------------

class InvalidStateError(FockVortexError):
    """A state or density matrix breaks a structural invariant."""


class InvariantError(FockVortexError):
    """A cross-checked mathematical invariant failed."""
