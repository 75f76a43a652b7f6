"""Exception hierarchy shared by all modules.

Validation problems (malformed input documents) and domain problems
(mathematically invalid arguments) are kept apart so the CLI can map them
to distinct exit codes.
"""


class LatredError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LatredError):
    """Malformed or unparseable input (CLI exit code 2)."""


class DomainError(LatredError):
    """Mathematically invalid argument (CLI exit code 3)."""


class InvalidPlaceError(DomainError):
    """A valuation place that is not prime / not the degree place."""


class ZeroArgumentError(DomainError):
    """An operation that requires a nonzero argument got zero."""


class DimensionError(DomainError):
    """Out-of-range size parameter (minor order, label difference, ...)."""


class RankDeficiencyError(DomainError):
    """Rows expected to be independent are not."""


class IncompletePlotError(DomainError):
    """A canonical plot is missing its rank-0 or top-rank point."""


class BoundaryModuleError(DomainError):
    """Instability numbers are undefined for the bottom and top element."""


class ViolatedUniquenessError(DomainError):
    """An oracle produced two distinct minima representing one path vertex."""


class ScaleError(DomainError):
    """Desk-scale limit exceeded (enumeration would not terminate timely)."""


class DefinitenessError(DomainError):
    """A matrix expected to be symmetric positive definite is not."""


class ProjectivityError(DomainError):
    """Quotient by a non-saturated submodule is not projective."""


class SingularityError(DomainError):
    """A matrix expected to be invertible is singular."""


class DeterminantError(DomainError):
    """SL-mode factorization applied to a matrix of determinant != 1."""
