"""Exception types shared across the package.

The CLI maps these to exit codes: ValidationError -> 2, NumericError -> 3,
ConfigError -> 4. Library code raises them directly.
"""

from decimal import Decimal


class ValidationError(ValueError):
    """Malformed or inconsistent input data (graphs, words, group tables)."""


class NumericError(RuntimeError):
    """A numeric procedure failed to converge or left its valid regime."""


class ConfigError(Exception):
    """Bad CLI arguments or an unreadable/invalid input file."""


def _count(n: int) -> str:
    """n for a budget message: in full up to 15 digits, else as 2.9e+2409."""
    return str(n) if n < 10 ** 15 else format(Decimal(n), ".1e")
