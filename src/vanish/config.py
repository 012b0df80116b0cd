"""Resource caps.

The term cap bounds the number of terms any single polynomial produced by
an arithmetic or basis computation may hold; it is a safety valve for
desk-scale work, not a correctness knob.  The default can be overridden by
the ``VANISH_TERM_CAP`` environment variable or at runtime.
"""

import os

from .errors import TermCapExceededError

DEFAULT_TERM_CAP = 10**6
DEFAULT_ORD_CAP = 32

_term_cap = None


def term_cap() -> int:
    global _term_cap
    if _term_cap is None:
        raw = os.environ.get("VANISH_TERM_CAP", "")
        _term_cap = int(raw) if raw.isdigit() and int(raw) > 0 else DEFAULT_TERM_CAP
    return _term_cap


def set_term_cap(value: int) -> None:
    global _term_cap
    if value <= 0:
        raise ValueError("term cap must be positive")
    _term_cap = value


def term_cap_error(what: str, cap: int) -> TermCapExceededError:
    """The error for a result past ``cap``; ``what`` reads "product exceeds"."""
    return TermCapExceededError(
        f"{what} the term cap ({cap}); set VANISH_TERM_CAP to raise it")
