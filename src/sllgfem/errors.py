"""Exception types shared across the package.

Argument validation failures raise plain ValueError. The classes below mark
failures that callers may want to catch and map to process exit codes:
ConfigError -> 4 (the CLI raises it for its usage errors too),
SolverFailure -> 3. Exit code 2 (invariant-suite failure) is not an
exception: studies return the failures in their report. Assembly has no
class: MeshError covers a cell whose stiffness block is not finite.
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
    """Linear solve failed: a load whose norm is not finite, a singular
    factorization, or a refinement of the single-precision LU that stopped
    contracting (a non-finite residual included) before it reached the
    requested tolerance.

    Carries the achieved relative residual (inf when no solution exists,
    nan for a load that is not finite).
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConfigError(SLLGError):
    """Configuration file is unreadable, unparseable, or out of range, or
    run.out is not writable."""

