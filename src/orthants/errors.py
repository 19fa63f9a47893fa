"""Exception hierarchy shared by all modules."""


class OrthantsError(Exception):
    """Base class for every error raised by this package."""


class BrokenInvariant(OrthantsError):
    """A construction lost a property it guarantees; the message names it."""


class ParseError(OrthantsError):
    """Malformed scalar string or input file."""


class BackendMismatch(OrthantsError):
    """Operands carry values from different scalar backends."""


class ShapeMismatch(OrthantsError):
    """Matrix/vector dimensions do not line up."""


class DegeneratePolyhedron(OrthantsError):
    """The facet-normal matrix does not have full column rank."""


class EmptyOrLowerDimensional(OrthantsError):
    """The inequality system has no interior point."""


class EmptyPolyhedron(OrthantsError):
    """The inequality system has no solution at all."""


class UnboundedPolyhedron(OrthantsError):
    """A bounded polyhedron was required."""


class DimensionTooLarge(OrthantsError):
    """Input exceeds the desk-scale guard of an enumeration routine."""


class DimensionMismatch(OrthantsError):
    """Objects live in different ambient dimensions."""


class WrongDimension(OrthantsError):
    """Operation is only defined in a specific dimension."""


class TooManyNeedles(OrthantsError):
    """Needle count exceeds the brute-force guard."""


class NotRealizable(OrthantsError):
    """The squared-distance matrix is not the metric of a nondegenerate simplex."""


class OutOfFloatRange(OrthantsError):
    """A value that must become a float lies beyond float range."""


class NotOrthantError(OrthantsError):
    """An orthant-only construction was applied to a non-orthant input."""


class InvalidWitness(OrthantsError):
    """A claimed positive solution fails exact re-verification."""


class RecessionNotStrictlyPositive(OrthantsError):
    """Recession cone touches the orthant boundary; this case is refused."""
