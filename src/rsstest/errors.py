"""Exception types shared across the package."""


class RssError(Exception):
    """Base class for all package-specific errors."""


class DataValidationError(RssError):
    """Input data violates a structural requirement (shape, numeric, ties)."""


class TieError(DataValidationError):
    """Two measured values are exactly equal; the colliding cells are named."""


class EnumerationBudgetError(RssError):
    """A full cross-cycle enumeration would exceed the fixed enumeration budget."""


class ExactEngineCapError(RssError):
    """The exact distribution engine refuses grids above its cell cap."""


class DistributionMismatchError(RssError):
    """A null distribution does not match the sample or statistic it is used with."""
