"""Exception types, size caps and the immutable value base shared across
the library."""

from __future__ import annotations

import operator
from typing import NamedTuple


class PGroupError(Exception):
    """Base class for all errors raised by this library."""


class CapExceeded(PGroupError):
    """A computation was refused because its size exceeds the configured cap."""

    def __init__(self, what: str, size: int, cap: int):
        super().__init__(f"{what}: size {size} exceeds cap {cap}")
        self.what = what
        self.size = size
        self.cap = cap

    def __reduce__(self):
        # pickled by its arguments, so a refusal in a verify --jobs worker
        # reaches the parent as a CapExceeded
        return type(self), (self.what, self.size, self.cap)


class InputError(PGroupError):
    """Malformed or inconsistent user input (files, CLI specs, bad tables)."""


def json_int(value, what: str) -> int:
    """An integer read from an input file. Floats, booleans and strings are
    refused, not truncated or parsed."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"{what} must be an integer, got {value!r}")


class OutOfScope(PGroupError):
    """The requested computation is defined but out of scope for this input."""


class VerificationFailed(PGroupError):
    """A certificate or internal cross-check failed re-verification."""


class Caps(NamedTuple):
    """Size limits. Operations refuse (raise CapExceeded) above these.

    DEFAULT_CAPS holds the package's limits, which the internal guards read
    (`PcPresentation._require_enumerable`, `regular_module`). A request's
    Caps may only lower them. It is read where the request enters: the
    CLI's group load, `verify`'s rows, `construct_noninner`, `is_inner` and
    the oracle's entry points. No group, module or derivation stores one.

    enumeration: max group order for element enumeration and scans.
    oracle: max group order for exhaustive automorphism backtracking.
    module_dim: max dimension for constructed modules.
    derivation_bruteforce: max number of candidate tuples for the
        brute-force derivation oracle.
    """

    enumeration: int = 10**6
    oracle: int = 3**5
    module_dim: int = 2**10
    derivation_bruteforce: int = 10**7


DEFAULT_CAPS = Caps()


class Frozen:
    """Base of the immutable values: __init__ sets the fields through
    vars(self), assigning an attribute afterwards raises, and instances are
    equal and hash alike when their `_key()` tuples are equal."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())
