"""Exception hierarchy.

Everything raised on purpose derives from TreeRepError so callers (and the
CLI exit-code mapping) can tell contract violations apart from genuine bugs.
"""
from __future__ import annotations


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
