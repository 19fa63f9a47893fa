"""Scalar backends: exact rationals and tolerance-aware floats.

Every decision in this package ultimately reduces to sign tests on scalar
quantities.  The exact backend runs them over arbitrary-precision rationals
(:class:`fractions.Fraction`), so each verdict is a proof.  The float
backend replaces every sign test with a comparison against a tolerance
``tol``; magnitudes at or below ``tol`` count as zero.  Only exact-backend
verdicts are considered certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import BackendMismatch, ParseError

Scalar = Union[Fraction, float]

EXACT_BACKEND = "exact"
FLOAT_BACKEND = "float"


@dataclass(frozen=True)
class Context:
    """A scalar backend plus the comparison rules that go with it."""

    backend: str = EXACT_BACKEND
    tol: float = 1e-9

    def __post_init__(self):
        if self.backend not in (EXACT_BACKEND, FLOAT_BACKEND):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == FLOAT_BACKEND and not self.tol > 0:
            raise ValueError("float backend needs a positive tolerance")

    @property
    def is_exact(self) -> bool:
        return self.backend == EXACT_BACKEND

    # -- construction -------------------------------------------------

    def zero(self) -> Scalar:
        return Fraction(0) if self.is_exact else 0.0

    def one(self) -> Scalar:
        return Fraction(1) if self.is_exact else 1.0

    def coerce(self, value) -> Scalar:
        """Convert ints, strings, Fractions or floats into this backend."""
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
        """Parse a scalar string: 'p' or 'p/q' exactly, decimal notation for floats."""
        if not isinstance(text, str):
            raise ParseError(f"scalar must be a string, not {text!r}")
        text = text.strip()
        try:
            if self.is_exact:
                return Fraction(text)
            return float(Fraction(text))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"bad scalar literal {text!r}: {exc}") from None

    def format(self, x: Scalar) -> str:
        if self.is_exact:
            return str(x)
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
