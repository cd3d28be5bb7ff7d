"""Exception types shared across the package."""


class EvoStabError(Exception):
    """Base class for all package errors."""


class InvalidOperatorError(EvoStabError):
    """An operator or vector has non-finite entries or a shape mismatch."""


class QuadratureError(EvoStabError):
    """Adaptive quadrature failed to reach the requested tolerance.

    ``best_estimate`` is the value at the point of failure and
    ``error_bound`` the corresponding error estimate.
    """

    def __init__(self, message, best_estimate, error_bound):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


class IntegrationError(EvoStabError):
    """The ODE integrator could not continue (step-size underflow).

    ``location`` is the time at which the failure occurred.
    """

    def __init__(self, message, location):
        super().__init__(message)
        self.location = location


class DomainViolationError(EvoStabError):
    """Data was asked for where it is not defined: a point outside a
    connection's rectangle or a value of f outside J, a time outside a
    frozen window, an unbounded integration interval, or a non-finite
    sample of a connection."""


class ConstructionError(EvoStabError):
    """A transport path needed for a construction is not available
    (for example, it would cross the excluded graph)."""


class ApproximationError(EvoStabError):
    """Polynomial approximation could not meet the requested accuracy
    within the degree cap.  ``achieved`` is the best sup-error reached."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


class ExpressionError(EvoStabError):
    """An arithmetic expression string failed to parse or evaluate."""


class ConfigError(EvoStabError):
    """A scenario configuration failed validation.

    ``problems`` lists every offending field with a message.
    """

    def __init__(self, problems):
        super().__init__("invalid configuration: " + "; ".join(problems))
        self.problems = list(problems)
