"""Exception types shared across the package.

Argument validation failures raise plain ValueError. The classes below mark
failures that callers may want to catch; `cli.EXITS` maps them to process
exit codes, which README's exit table documents. Assembly has no class:
MeshError covers a cell whose stiffness block is not finite.
"""


class SLLGError(Exception):
    """Base class for solver-domain failures."""


class MeshError(SLLGError):
    """Mesh is malformed: degenerate cell, bad index, non-conforming facet."""


class NormalizationError(SLLGError):
    """A nodal vector with zero length cannot be normalized (names the node)."""


class TimeMismatchError(SLLGError):
    """Two time-indexed objects were combined at different time indices."""


class SolverFailure(SLLGError):
    """A step failed: a load whose norm is not finite, a singular
    factorization, a refinement of the single-precision LU that stopped
    contracting (a non-finite residual included) before it reached the
    requested tolerance, or a rotation field that the step made not
    finite.

    Carries the achieved relative residual (inf when no solution exists,
    nan for a load or a field that is not finite).
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConfigError(SLLGError):
    """Configuration file is unreadable, unparseable, or out of range, or
    run.out is not writable."""

