"""Exception hierarchy.

Everything raised on purpose derives from :class:`PoisgeoError`, so callers
(and the CLI) can separate mathematical verdicts from genuine bugs.
"""


class PoisgeoError(Exception):
    """Base class for all deliberate errors."""


def _fmt_point(point):
    parts = []
    for c in point:
        den = getattr(c, "denominator", 1)
        num = getattr(c, "numerator", c)
        parts.append(str(num) if den == 1 else f"{num}/{den}")
    return "(" + ", ".join(parts) + ")"


class ChartMismatch(PoisgeoError):
    """Operands live on different coordinate charts."""


class ExprSyntaxError(PoisgeoError, ValueError):
    """Malformed expression text.

    ``position`` is the 0-based offset of the offending character (the text
    length when input ended early); ``expected`` names the token class the
    parser wanted.
    """

    def __init__(self, message, position, expected=None):
        super().__init__(f"{message} at offset {position}")
        self.position = position
        self.expected = expected


class UnknownIdentifier(ExprSyntaxError):
    """Expression names a variable that is not a chart coordinate."""

    def __init__(self, name, position, chart_names):
        self.name = name
        super().__init__(
            f"unknown identifier {name!r} (chart has {', '.join(chart_names)})",
            position,
            expected="coordinate name",
        )


class DivisionByZeroField(PoisgeoError, ZeroDivisionError):
    """Division by the identically zero scalar field."""


class PoleAtPoint(PoisgeoError, ZeroDivisionError):
    """Denominator vanishes at the evaluation point."""

    def __init__(self, point):
        super().__init__(f"denominator vanishes at {_fmt_point(point)}")
        self.point = tuple(point)


class IndexOutOfRange(PoisgeoError, IndexError):
    """Coordinate index outside 0..n-1."""


class SingularMatrix(PoisgeoError):
    """Square matrix with identically zero determinant."""


class DegreeOverflow(PoisgeoError):
    """Form/multivector degree would exceed the chart dimension."""


class DegreeUnderflow(PoisgeoError):
    """Contraction of a degree-0 object."""


class NotSymmetric(PoisgeoError):
    """Metric matrix is not symmetric."""


class NotPositiveDefiniteAt(PoisgeoError):
    """Sylvester criterion fails at a sample point."""

    def __init__(self, point, minor_index):
        super().__init__(
            f"leading principal minor {minor_index + 1} is not positive at {_fmt_point(point)}"
        )
        self.point = tuple(point)
        self.minor_index = minor_index


class SingularMetric(PoisgeoError):
    """Cometric is singular as a symbolic matrix."""


class RankNotConstant(PoisgeoError):
    """Bivector rank at a sample (or generically) differs from the declared rank."""

    def __init__(self, point, found, declared):
        where = f"at {_fmt_point(point)}" if point is not None else "generically"
        super().__init__(f"rank {found} {where} differs from declared rank {declared}")
        self.point = tuple(point) if point is not None else None
        self.found = found
        self.declared = declared


class RankOdd(PoisgeoError):
    """Declared symplectic rank is odd."""


class SingularLeafwiseForm(PoisgeoError):
    """Leafwise 2-form degenerate at a sample."""

    def __init__(self, point):
        super().__init__(f"leafwise form degenerate at {_fmt_point(point)}")
        self.point = tuple(point)


class NotTangent(PoisgeoError):
    """Vector field does not lie in the requested distribution."""


class InternalInconsistency(PoisgeoError):
    """Two formulas that must agree produced different results (a bug)."""


class NotBasic(PoisgeoError):
    """Form fails the basic-form contraction conditions."""

    def __init__(self, witness):
        super().__init__(f"form is not basic; failing contraction: {witness}")
        self.witness = witness


class NotInvolutive(PoisgeoError):
    """Frame bracket leaves the span of the frame."""

    def __init__(self, i, j):
        super().__init__(f"[frame[{i}], frame[{j}]] is not in the span of the frame")
        self.i = i
        self.j = j


class NotLeafwiseClosed(PoisgeoError):
    """Leafwise exterior derivative of the 2-form is nonzero."""


class DegenerateOmegaAt(PoisgeoError):
    """2-form degenerate along the foliation at a sample."""

    def __init__(self, point):
        super().__init__(f"2-form degenerate along the leaves at {_fmt_point(point)}")
        self.point = tuple(point)


class InvarianceFails(PoisgeoError):
    """Lie derivative of the 2-form along a perpendicular foliate field is nonzero."""

    def __init__(self, field_index, i, j, value):
        super().__init__(
            f"L_X omega(frame[{i}], frame[{j}]) = {value} != 0 "
            f"for perpendicular foliate field #{field_index}"
        )
        self.field_index = field_index
        self.i = i
        self.j = j
        self.value = value


class NotBundleLike(PoisgeoError):
    """Pairing of perpendicular foliate fields is not a basic function."""


class Inconclusive(PoisgeoError):
    """The polynomial ansatz produced no perpendicular foliate fields."""


class CertificationFailed(PoisgeoError):
    """A reconstruction certificate identity failed."""

    def __init__(self, which, detail=""):
        super().__init__(f"certification failed: {which}" + (f" ({detail})" if detail else ""))
        self.which = which


class WindowTooSmall(PoisgeoError):
    """Target coefficient window cannot hold the image of the differential."""


class WindowTooLarge(PoisgeoError):
    """A cohomology window with more elements than ``cohomology.MAX_WINDOW``."""


class NonPolynomialBivector(PoisgeoError):
    """Cohomology requested for a bivector with non-polynomial entries."""


class SpecFileError(PoisgeoError):
    """Malformed manifold/foliation spec file."""


class InvalidArgument(PoisgeoError, ValueError):
    """A command-line argument outside the range the spec allows."""
