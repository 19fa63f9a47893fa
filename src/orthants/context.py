"""Scalar backends: exact rationals and tolerance-aware floats.

Every decision in this package ultimately reduces to sign tests on scalar
quantities.  The exact backend runs them over arbitrary-precision rationals
(:class:`fractions.Fraction`), so each verdict is a proof.  The float
backend replaces every sign test with a comparison against a tolerance
``tol``; magnitudes at or below ``tol`` count as zero.  Only exact-backend
verdicts are considered certified.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import BackendMismatch, OrthantsError, ParseError

Scalar = Union[Fraction, float]

EXACT_BACKEND = "exact"
FLOAT_BACKEND = "float"
# the largest decimal exponent a scalar literal may carry, as Python's default
# limit on int-to-string conversion (4300 digits)
_MAX_EXPONENT = 4300


@dataclass(frozen=True)
class Context:
    """A scalar backend plus the comparison rules that go with it."""

    backend: str = EXACT_BACKEND
    tol: float = 1e-9

    def __post_init__(self):
        if self.backend not in (EXACT_BACKEND, FLOAT_BACKEND):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == FLOAT_BACKEND and not 0 < self.tol < float("inf"):
            raise ValueError("float backend needs a positive finite tolerance")

    @property
    def is_exact(self) -> bool:
        return self.backend == EXACT_BACKEND

    # -- construction -------------------------------------------------

    def zero(self) -> Scalar:
        return Fraction(0) if self.is_exact else 0.0

    def one(self) -> Scalar:
        return Fraction(1) if self.is_exact else 1.0

    def coerce(self, value) -> Scalar:
        """Convert ints, strings, Fractions or floats into this backend; a
        value already of the backend's exact type is returned as it is."""
        if type(value) is (Fraction if self.is_exact else float):
            return value
        if isinstance(value, str):
            return self.parse(value)
        if self.is_exact:
            if isinstance(value, float):
                raise BackendMismatch(
                    "refusing to reinterpret a float as an exact rational; "
                    "pass a Fraction or a 'p/q' string instead"
                )
            return Fraction(value)
        return float(value)

    def parse(self, text: str) -> Scalar:
        """Parse a scalar string: 'p' or 'p/q' exactly, decimal notation for floats.

        An integer literal is read by ``int``, to the value the Fraction
        grammar gives it; every other literal goes through Fraction."""
        if not isinstance(text, str):
            raise ParseError(f"scalar must be a string, not {text!r}")
        text = text.strip()
        try:
            try:  # float(p) is correctly rounded, as float(Fraction(p)) is
                return Fraction(int(text)) if self.is_exact else float(int(text))
            except ValueError:
                pass
            # Fraction would expand 10**exponent in full before any check
            _, e, exponent = text.lower().partition("e")
            if e and abs(int(exponent)) > _MAX_EXPONENT:
                raise ValueError(f"exponent beyond {_MAX_EXPONENT} in magnitude")
            if self.is_exact:
                return Fraction(text)
            return float(Fraction(text))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"bad scalar literal {text!r}: {exc}") from None

    def format(self, x: Scalar) -> str:
        if self.is_exact:
            try:
                return str(x)
            except ValueError:  # Python's limit on int-to-string conversion
                raise OrthantsError(
                    f"a result has more than {sys.get_int_max_str_digits()} digits, "
                    "the limit for printing an integer"
                ) from None
        return repr(float(x))

    # -- comparisons ---------------------------------------------------

    def is_zero(self, x: Scalar) -> bool:
        if self.is_exact:
            return x == 0
        return abs(x) <= self.tol

    def sign(self, x: Scalar) -> int:
        """-1, 0 or +1; on the float backend |x| <= tol counts as zero."""
        if self.is_zero(x):
            return 0
        return 1 if x > 0 else -1

    def eq(self, a: Scalar, b: Scalar) -> bool:
        return self.is_zero(a - b)

    def lt(self, a: Scalar, b: Scalar) -> bool:
        return self.sign(a - b) < 0


EXACT = Context(EXACT_BACKEND)
FLOAT = Context(FLOAT_BACKEND)


def common_context(*ctxs: Context) -> Context:
    """The shared context of several operands, or raise BackendMismatch."""
    first = ctxs[0]
    for other in ctxs[1:]:
        if other.backend != first.backend:
            raise BackendMismatch(
                f"mixed scalar backends: {first.backend} vs {other.backend}"
            )
    return first
