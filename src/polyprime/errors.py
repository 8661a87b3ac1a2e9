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


class LimitExceededError(PolyprimeError):
    """Cycle enumeration budget exhausted, or an exponent beyond the kernel limit."""


class BudgetExceededError(PolyprimeError):
    """Groebner engine budget (S-pairs, basis size, or reduction steps) exhausted."""


class DegreeExceededError(PolyprimeError):
    """An S-pair left a remainder above ``buchberger``'s ``max_degree``."""


class InternalInconsistencyError(PolyprimeError):
    """Two independent decision paths disagreed; indicates an engine bug."""


class InvariantViolationError(PolyprimeError):
    """A verified report violates a structural invariant."""
