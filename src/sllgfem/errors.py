"""Exception types shared across the package.

Argument validation failures raise plain ValueError. The classes below mark
failures that callers may want to catch and map to process exit codes:
ConfigError -> 4, SolverFailure -> 3. Exit code 2 (invariant-suite failure)
is not an exception: studies return the failures in their report.
"""


class SLLGError(Exception):
    """Base class for solver-domain failures."""


class MeshError(SLLGError):
    """Mesh is malformed: degenerate cell, bad index, non-conforming facet."""


class AssemblyError(SLLGError):
    """Finite element assembly failed (names the offending cell)."""


class NormalizationError(SLLGError):
    """A nodal vector with zero length cannot be normalized (names the node)."""


class TimeMismatchError(SLLGError):
    """Two time-indexed objects were combined at different time indices."""


class SolverFailure(SLLGError):
    """Linear solve failed: a singular factorization, or a relative
    residual that is non-finite or above the requested tolerance.

    Carries the achieved relative residual (inf when no solution exists).
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConfigError(SLLGError):
    """Configuration file is unreadable, unparseable, or out of range."""

