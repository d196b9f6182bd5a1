"""Exception hierarchy shared by all semilab modules."""


class SemilabError(Exception):
    """Base class for all semilab errors."""


class DepthExceededError(SemilabError):
    """A table-backed environment was queried beyond its stored depth."""


class UndefinedPosteriorError(SemilabError):
    """Posterior requested at a string of zero mass (outside the support)."""


class NotAMeasureError(SemilabError):
    """An operation requiring a proper measure received a strict semimeasure."""


class NotAMeasureRowError(SemilabError):
    """A row passed as a probability vector does not sum to one."""


class NormalizationError(SemilabError):
    """Normalization requested for an object with zero total mass."""


class ApproximableNotMeasureError(SemilabError):
    """Normalizing a quasi-mode mixture that retains a strict quasimeasure.

    The result would only be approximable, not a measure evaluable here.
    """


class NotDominatedError(SemilabError):
    """A dominance constant was requested for an excluded component."""


class HypothesisFailedError(SemilabError):
    """An exact precondition (e.g. an expectation bound) does not hold."""


class InvalidK0Error(SemilabError):
    """The designated index k0 does not point at a validated measure."""


class InconclusiveConfigurationError(SemilabError):
    """The configured class is too poor to exhibit the target phenomenon."""


class SpecError(SemilabError):
    """Malformed environment/class specification document."""
