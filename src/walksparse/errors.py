"""Exception types shared across the package."""


class WalksparseError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(WalksparseError):
    """A graph file failed to parse. Carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(WalksparseError):
    """An object violates a structural invariant (weights, symmetry, coefficients)."""


class InputRefusedError(WalksparseError):
    """Input is valid but cannot be served: its sparsifier has more components
    than L_alpha(G) (er_oracle_build), or its weights span too many orders of
    magnitude for exact resistances."""


class ConvergenceError(WalksparseError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
