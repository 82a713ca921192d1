"""Exception types shared across the package.

Errors fall into two camps: bad inputs (caller mistakes, recoverable) and
internal invariant violations (bugs; tests must fail loudly on these).
"""


class SwnetError(Exception):
    """Base class for all package errors."""


# -- bad inputs ------------------------------------------------------------

class InvalidParams(SwnetError):
    """Parameters outside an operation's documented domain."""


class DomainError(InvalidParams):
    """Tradeoff formula evaluated outside its domain (e.g. S < log^2 n)."""


class ConfigError(InvalidParams):
    """Malformed sweep or CLI configuration."""


class BadPath(InvalidParams):
    """A vertex sequence that is not a directed path of the required shape."""


class Disconnected(SwnetError):
    """Source and sink are not connected in the relevant subgraph."""


class ZeroZ(InvalidParams):
    """Circulation index z must be nonzero."""


class NegativePrefix(SwnetError):
    """A prefix sum of squared amplitudes came out negative."""


class CapExceeded(SwnetError):
    """Exhaustive search exceeded its configured size cap."""


# -- invariant violations --------------------------------------------------

class InvariantViolation(SwnetError):
    """An internal invariant check tripped; the CLI exits 3 on any subclass."""


class IllegalMove(InvariantViolation):
    """A pebbling move violated the game rules (broken strategy)."""


class RankDeficient(InvariantViolation):
    """A vector family expected to be independent was not."""


class BasisMismatch(InvariantViolation):
    """Two independently built projectors for the same space disagree."""


class ReachMismatch(InvariantViolation):
    """Two independent computations of which sinks the source reaches disagree."""


class WitnessBound(InvariantViolation):
    """A reached sink's effective resistance exceeds the witness bound 3^ell."""
