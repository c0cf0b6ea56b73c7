"""Exception types shared across the library.

The CLI maps these onto stable exit codes: parse errors -> 2,
validation errors -> 3, kopaseptic failures -> 4.
"""

__all__ = [
    "ParseError", "ValidationError", "ShapeMismatchError", "DimensionMismatchError",
    "GroupMismatchError", "RegularityError", "EmptyInteriorError", "NotKopasepticError",
]


class ParseError(Exception):
    """Raised when a model file cannot be parsed; carries a line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class ValidationError(Exception):
    """Input data is structurally readable but violates a model invariant."""


class ShapeMismatchError(ValidationError):
    """Matrix dimensions are incompatible with the requested operation."""


class DimensionMismatchError(ValidationError):
    """Operation requires a specific ambient dimension (e.g. rank 2)."""


class GroupMismatchError(ValidationError):
    """A class decoration belongs to a different group presentation."""


class RegularityError(ValidationError):
    """Superpotential has a pole along an invariant divisor.

    Carries the offending (divisor index, monomial index, order) triples in
    ``pairs`` and the full order matrix in ``orders`` so callers can report
    the failure without recomputing it.
    """

    def __init__(self, message, pairs=(), orders=None):
        super().__init__(message)
        self.pairs = tuple(pairs)
        self.orders = orders


class EmptyInteriorError(ValidationError):
    """Halfspace system has no strictly interior point."""


class NotKopasepticError(Exception):
    """Linear data fails one of the kopaseptic conditions.

    ``condition`` names the first failing condition: "interior",
    "k-map" or "order-matrix".
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition
