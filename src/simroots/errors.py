"""Exception types shared across the package."""


class SimrootsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SimrootsError):
    """An evaluation point lies outside the declared open interval."""


class DivisionBySingularJet(DomainError):
    """Series division by a jet whose constant term is numerically zero:
    the point is a pole of the expression, outside its domain."""


class ExpressionParseError(SimrootsError):
    """The expression source does not conform to the supported grammar."""


class DimensionMismatch(SimrootsError):
    """Vector or matrix sizes are inconsistent with the basis length."""


class InvalidConfiguration(SimrootsError):
    """A node set, multiplicity vector, or method selection is malformed."""


class SingularNodeSystem(SimrootsError):
    """The node set is numerically singular for the given basis."""


class DegenerateDenominator(SimrootsError):
    """An iteration denominator fell below its safe magnitude floor."""


class IterateCollision(SimrootsError):
    """Two root approximations approached each other too closely."""


class InsufficientHistory(SimrootsError):
    """Too few usable error values to estimate a convergence order."""


class ProblemFileError(SimrootsError):
    """A problem file failed validation; the message names the field."""
