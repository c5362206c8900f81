"""Exception types shared across the package."""


class DlscapeError(Exception):
    """Base class for all errors raised by dlscape."""


class UnknownGeneratorError(DlscapeError):
    """Requested generator name is not in the catalog."""


class GeneratorParamError(DlscapeError):
    """Generator parameters outside their validated range."""


class ResourceLimitError(DlscapeError):
    """A window would exceed the configured vertex budget."""


class DomainError(DlscapeError):
    """Operation invoked outside its stated precondition."""


class ZoneError(DomainError):
    """A query falls outside the validity zone of a window or field.

    ``parameter`` names the knob to increase (radius, zone, ...) and
    ``need``, when known, the smallest value of it that satisfies the
    violated bound.
    """

    def __init__(self, message, parameter=None, witness=None, need=None):
        super().__init__(message)
        self.parameter = parameter
        self.witness = witness
        self.need = need


class MetricError(DlscapeError):
    """Input matrix violates the metric axioms; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DescentError(DlscapeError):
    """A field has no descending neighbor at an interior vertex.

    Signals that the field is not distance-like inside its zone.
    """

    def __init__(self, message, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class ConsistencyError(DlscapeError):
    """Two routes that must agree disagreed; indicates a bug."""
