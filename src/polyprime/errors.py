"""Exception types shared across the package."""


class PolyprimeError(Exception):
    """Base class for all package errors."""


class GridInputError(PolyprimeError):
    """Base class for malformed polyomino input."""


class EmptyInputError(GridInputError):
    """Input contains no cells."""


class BadCharError(GridInputError):
    """Grid text contains a character outside {'#', '.'}."""


class DisconnectedError(GridInputError):
    """Cell set is not edge-connected."""


class CapExceededError(PolyprimeError):
    """Requested enumeration size exceeds the configured cap."""


class BudgetExceededError(PolyprimeError):
    """An exhausted budget: the Groebner engine's (S-pairs, basis size, reduction steps), or a LimitExceededError."""


class LimitExceededError(BudgetExceededError):
    """Cycle enumeration budget exhausted, or an exponent beyond the kernel limit."""


class DegreeExceededError(PolyprimeError):
    """An S-pair left a remainder above ``buchberger``'s ``max_degree``."""


class InternalInconsistencyError(PolyprimeError):
    """Two independent decision paths disagreed; indicates an engine bug."""


class InvariantViolationError(PolyprimeError):
    """A verified report violates a structural invariant."""
