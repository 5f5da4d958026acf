"""Exception hierarchy shared by all modules."""


class LogHodgeError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(LogHodgeError):
    """Malformed scalar, vector, filtration or instance file."""


class ShapeError(LogHodgeError):
    """Ragged input or non-conformable dimensions."""


class NotNilpotent(LogHodgeError):
    """An operator required to be nilpotent is not."""


class FiltrationNotPreserved(LogHodgeError):
    """An operator or chain map does not respect the given filtration."""


class RelativeMonodromyNonexistent(LogHodgeError):
    """No filtration satisfies both relative monodromy axioms."""


class IllDefinedInducedMap(LogHodgeError):
    """Map does not descend to the requested subquotients."""


class PairingDegenerate(LogHodgeError):
    """The computation needs the pairing S and the instance carries none."""


class MissingHodgeFiltration(LogHodgeError):
    """A Hodge-filtration dependent check was requested on a model without F."""


class InvalidModel(LogHodgeError):
    """The instance fails a validate row, so a verdict verb refuses it."""
