"""Exception types shared across the package.

Each kind carries the exit code the command line gives it: a usage error
(a parse error among them) exits 2, a domain error 3, and any other package
error, a numerics error included, 1."""


class FlagkeError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class UsageError(FlagkeError, ValueError):
    """An operation was called with arguments outside its contract."""

    exit_code = 2


class DomainError(FlagkeError, ValueError):
    """Mathematically well-formed input outside the domain of the operation
    (degenerate bundle, unadmitted Einstein sign, argument beyond the
    profile domain, ...)."""

    exit_code = 3


class NumericsError(FlagkeError, ArithmeticError):
    """A quadrature or refinement loop failed to reach its tolerance."""


class DiagramParseError(UsageError):
    """Malformed diagram string; ``offset`` is the byte position of the
    first offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
