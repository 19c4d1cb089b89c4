"""Exception types and resource caps shared across the package."""

from dataclasses import dataclass, fields


class BnSpechtError(Exception):
    """Base class for all package errors."""


class SizeMismatchError(BnSpechtError, ValueError):
    """Two (bi)partitions or a polynomial/point pair have incompatible sizes."""


class AmbientMismatchError(BnSpechtError, ValueError):
    """Polynomials live in rings with a different number of variables."""


class EmptyOrbitError(BnSpechtError, ValueError):
    """A representative was requested for an empty orbit set."""


class NotApplicableError(BnSpechtError, ValueError):
    """A monomial's profile violates the variable-count hypothesis."""


class NoConclusionError(BnSpechtError, ValueError):
    """No qualifying monomial was detected, so no class can be excluded."""


class ResourceLimitExceeded(BnSpechtError, RuntimeError):
    """A configured cap (basis size, term count, coset count, enumeration size) was hit."""


class ParseError(BnSpechtError, ValueError):
    """Malformed bipartition or polynomial text; carries the input position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class ResourceLimits:
    """Caps turning potential blow-ups into structured failures.

    Each field is a non-negative integer with a noun in `NOUNS`, and is the CLI
    cap option of the same name (`max_basis` is `--max-basis`) on every
    subcommand that reads the caps.
    """

    max_basis: int = 2000
    max_terms: int = 200000
    max_cosets: int = 10000
    max_enumeration: int = 100000
    NOUNS = {  # each field's noun in its cap message: "basis size 3 exceeds cap 2"
        "max_basis": "basis size",
        "max_terms": "term count",
        "max_cosets": "coset count",
        "max_enumeration": "enumeration size",
    }

    def __post_init__(self):
        for f in fields(self):
            if (value := getattr(self, f.name)) < 0:
                raise ValueError(f"{f.name} must be non-negative, got {value}")

    def check(self, cap: str, count: int):
        """Raise ResourceLimitExceeded when count exceeds the field named cap."""
        if count > (limit := getattr(self, cap)):
            raise ResourceLimitExceeded(f"{self.NOUNS[cap]} {count} exceeds cap {limit}")


DEFAULT_LIMITS = ResourceLimits()
