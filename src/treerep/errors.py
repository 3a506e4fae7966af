"""Exception hierarchy, and the one rule for malformed arguments.

Everything raised on purpose derives from TreeRepError so callers (and the
CLI exit-code mapping) can tell contract violations apart from genuine bugs.

One rule decides whether an argument is well formed, in the three helpers
at the end of this module; each raises the class its caller names:
ConfigError by default, SubtreeError for a subtree or a vertex set,
MalformedAddressError for an address, a letter, an index or a cell, and
OperatorDomainError for the operator layer's matrices, scalars and
branching parameter.  `_expect` takes an argument of the right type and
names the type it got otherwise.  `_integer` takes a Python or numpy
integer and returns it as an int, so numpy integers are stored as int; a
bool is an int to isinstance but never an integer here.  `_complex` takes
what converts to a complex128 array.
"""
from __future__ import annotations

import numpy as np


class TreeRepError(Exception):
    """Base class for all library errors."""


class ConfigError(TreeRepError, ValueError):
    """Invalid parameter combination (bad q, depth, dimension, ...)."""


class MalformedAddressError(TreeRepError, ValueError):
    """A vertex address violates the letter-range convention."""


class DepthBudgetError(TreeRepError):
    """An operation would need addresses deeper than the configured cap."""


class SubtreeError(TreeRepError, ValueError):
    """A vertex set is empty, disconnected, or otherwise not a subtree."""


class NotCompleteError(TreeRepError):
    """A subtree without the leaf-or-full-valency property was passed where
    a complete one is required."""


class PruningError(TreeRepError):
    """The pair (S, S') is not related by pruning one interior vertex."""


class CylinderTooShallowError(TreeRepError):
    """The horofunction increment is not constant on the given cylinder;
    the caller must refine the cell first."""


class RefinementError(TreeRepError):
    """A cell cannot be written as a union of cylinders at the requested
    depth, or a step function cannot be brought to the requested resolution."""


class PartitionError(TreeRepError, ValueError):
    """Cells handed to a step-function constructor overlap or leave gaps."""


class OperatorDomainError(TreeRepError, ValueError):
    """The contraction bound on the generator matrix is violated.

    `index` is the stack index of the offending matrix when a stack was
    checked, else None."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class BranchCutError(TreeRepError, ValueError):
    """The square-root branch was evaluated on its cut."""


class IllConditionedError(TreeRepError):
    """Functional-calculus residuals exceed tolerance, or a matrix square
    root does not converge; reported, never silently accepted.

    `index` is the stack index of the offending matrix when a stack was
    built, else None."""

    def __init__(self, message: str, residuals: dict | None = None, index: int | None = None):
        super().__init__(message)
        self.residuals = dict(residuals or {})
        self.index = index


class SpectralGuardError(TreeRepError):
    """A spectral exclusion that the theory guarantees failed numerically."""


def _expect(value, kind, what: str, error=ConfigError):
    """`value` if it is a `kind` (a type or a tuple of types), else `error`
    naming `what` was expected and the type it got."""
    if not isinstance(value, kind):
        raise error(f"expected {what}, got {type(value).__name__}")
    return value


def _integer(value, what: str, lo: int | None = 0, error=ConfigError) -> int:
    """`value` as an int: a Python int (exactly, so never a bool) or a numpy
    integer, of at least `lo` (any integer where `lo` is None); else `error`
    naming `what`.  Exact type tests, not numbers.Integral, keep the hot
    paths fast."""
    if type(value) is int or isinstance(value, np.integer):
        if lo is None or value >= lo:
            return int(value)
    bound = "" if lo is None else f" >= {lo}"
    raise error(f"{what} must be an integer{bound}, got {value!r}")


def _complex(value, what: str, error=ConfigError) -> np.ndarray:
    """`value` as a complex128 array, else `error` naming `what`."""
    try:
        return np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError):
        raise error(f"expected {what} of complex numbers, got {type(value).__name__}") from None
