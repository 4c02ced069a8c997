"""Exact scalar fields: multivariate rational functions over Q.

A ScalarField is a canonical fraction num/den of integer-coefficient
polynomials: gcd(num, den) = 1, den has positive graded-lex leading
coefficient, and zero is represented as 0/1.  Equality of values is
therefore equality of representations, which is what makes every "is this
identically zero" verdict in the engine decidable.

The constructor ``ScalarField(chart, num, den)`` is the canonicalising entry
point for raw dicts: it divides out gcd(num, den) and fixes the sign.  The
arithmetic keeps the form by construction instead and builds its results
with the private ``_field``: products cross-cancel before multiplying,
sums use Henrici's method (Knuth, TAOCP vol. 2, 4.5.1), reciprocals swap
num and den.  So a gcd runs only where a common factor can be left.
"""

from fractions import Fraction

from .chart import as_point
from .errors import (
    ChartMismatch,
    DivisionByZeroField,
    PoleAtPoint,
    PoisgeoError,
)
from .kernel import poly_add, poly_diff, poly_eval_parts, poly_mul, poly_neg, poly_sub
from .polyops import (
    poly_cofactors,
    poly_is_const,
    poly_lead,
    poly_lead_coeff,
    poly_sorted_terms,
)

def _is_one(p):
    """True for the constant polynomial 1."""
    if len(p) != 1:
        return False
    ((m, c),) = p.items()
    return c == 1 and not any(m)


def _field(chart, num, den):
    """A ScalarField from dicts already in canonical form; no gcd, no checks."""
    out = ScalarField.__new__(ScalarField)
    out.chart = chart
    out._num = num
    out._den = den
    out._hash = None
    return out


def _reciprocal(f):
    """1/f for a nonzero canonical f: swap num and den, then fix the sign."""
    num, den = f._den, f._num
    if den[poly_lead(den)] < 0:
        num = poly_neg(num)
        den = poly_neg(den)
    return _field(f.chart, num, den)


def _dot(chart, pairs):
    """The sum of a * b over the (a, b) pairs, left to right, skipping any
    pair with a zero factor; the zero field when nothing is left."""
    out = chart.zero_field
    for a, b in pairs:
        if not (a.is_zero or b.is_zero):
            out = out + a * b
    return out


class ScalarField:
    """Immutable exact rational function on a chart."""

    __slots__ = ("chart", "_num", "_den", "_hash")

    def __init__(self, chart, num, den):
        """Build from raw polynomial dicts; canonicalizes. Prefer the classmethods."""
        if not den:
            raise DivisionByZeroField("zero denominator")
        if not num:
            den = chart.one_poly
        elif not _is_one(den):
            _, num, den = poly_cofactors(num, den)
            if den[poly_lead(den)] < 0:
                num = poly_neg(num)
                den = poly_neg(den)
        self.chart = chart
        self._num = num
        self._den = den
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, chart):
        return chart.zero_field

    @classmethod
    def one(cls, chart):
        return chart.one_field

    @classmethod
    def constant(cls, chart, value):
        # a Fraction is already canonical: coprime parts, positive denominator
        q = Fraction(value)
        if not q:
            return chart.zero_field
        c = (0,) * chart.dim
        den = chart.one_poly if q.denominator == 1 else {c: q.denominator}
        return _field(chart, {c: q.numerator}, den)

    @classmethod
    def coordinate(cls, chart, i):
        chart.check_index(i)
        mono = tuple(1 if j == i else 0 for j in range(chart.dim))
        return cls(chart, {mono: 1}, chart.one_poly)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self):
        return not self._num

    @property
    def is_constant(self):
        return poly_is_const(self._num) and poly_is_const(self._den)

    @property
    def is_polynomial(self):
        """True when the canonical denominator is a constant."""
        return poly_is_const(self._den)

    def constant_value(self):
        if not self.is_constant:
            raise PoisgeoError(f"{self} is not constant")
        num = next(iter(self._num.values())) if self._num else 0
        return Fraction(num, next(iter(self._den.values())))

    def poly_terms(self):
        """{exponent tuple: coefficient} for a polynomial field.

        The coefficients are ``int`` when the field has integer
        coefficients (constant denominator 1), and ``Fraction`` otherwise.
        """
        if not self.is_polynomial:
            raise PoisgeoError(f"{self} is not polynomial")
        d = next(iter(self._den.values()))
        if d == 1:
            return dict(self._num)
        return {m: Fraction(c, d) for m, c in self._num.items()}

    def total_degree(self):
        """Total degree of the numerator (-1 for zero); polynomial fields only."""
        if not self.is_polynomial:
            raise PoisgeoError(f"{self} is not polynomial")
        if not self._num:
            return -1
        return max(sum(m) for m in self._num)

    def num_dict(self):
        return dict(self._num)

    def den_dict(self):
        return dict(self._den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if type(other) is ScalarField:
            if other.chart is not self.chart and other.chart != self.chart:
                raise ChartMismatch(f"{self.chart} vs {other.chart}")
            return other
        if isinstance(other, (int, Fraction)):
            return ScalarField.constant(self.chart, other)
        return None

    def _plus(self, o, combine):
        """self combine o for combine = poly_add or poly_sub, by Henrici's method.

        With g = gcd(d1, d2), d1 = g*e1 and d2 = g*e2, the numerator
        t = n1*e2 +- n2*e1 is coprime to e1*e2, so gcd(t, g) is the only
        factor left to cancel; when g = 1 nothing is left at all.
        """
        n1, d1, n2, d2 = self._num, self._den, o._num, o._den
        if d1 == d2:
            num, g, e = combine(n1, n2), d1, None
        else:
            g, e1, e2 = poly_cofactors(d1, d2)
            num = combine(poly_mul(n1, e2), poly_mul(n2, e1))
            e = poly_mul(e1, e2)
        if not num:
            return ScalarField.zero(self.chart)
        if _is_one(g):
            return _field(self.chart, num, g if e is None else e)
        _, num, g = poly_cofactors(num, g)
        return _field(self.chart, num, g if e is None else poly_mul(g, e))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        return self._plus(o, poly_add)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            return self
        if self.is_zero:
            return -o
        return self._plus(o, poly_sub)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _field(self.chart, poly_neg(self._num), self._den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return ScalarField.zero(self.chart)
        a_num, a_den, b_num, b_den = self._num, self._den, o._num, o._den
        # Cross-cancel, integer content included: a_num with b_den and
        # b_num with a_den.  Both inputs are canonical, so the product of
        # the cancelled parts is coprime with a positive leading
        # denominator coefficient, and needs no further gcd.
        if not _is_one(b_den):
            _, a_num, b_den = poly_cofactors(a_num, b_den)
        if not _is_one(a_den):
            _, b_num, a_den = poly_cofactors(b_num, a_den)
        return _field(self.chart, poly_mul(a_num, b_num), poly_mul(a_den, b_den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZeroField("division by the zero field")
        return self * _reciprocal(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return ScalarField.one(self.chart)
        base = self
        if k < 0:
            if self.is_zero:
                raise DivisionByZeroField("0 ** negative")
            base = _reciprocal(self)
            k = -k
        # canonical fractions stay canonical under powers (coprimality persists)
        num, den = base._num, base._den
        rnum, rden = num, den
        for _ in range(k - 1):
            rnum = poly_mul(rnum, num)
            rden = poly_mul(rden, den)
        return _field(self.chart, rnum, rden if rnum else self.chart.one_poly)

    # -- calculus ----------------------------------------------------------

    def diff(self, i):
        """Partial derivative with respect to coordinate i (quotient rule)."""
        self.chart.check_index(i)
        dn = poly_diff(self._num, i)
        dd = poly_diff(self._den, i)
        if not dd:
            return ScalarField(self.chart, dn, self._den)
        num = poly_sub(poly_mul(dn, self._den), poly_mul(self._num, dd))
        return ScalarField(self.chart, num, poly_mul(self._den, self._den))

    def derivative_along(self, components):
        """Directional derivative sum(components[i] * d/dx_i); zero at once on a constant."""
        if self.is_constant:
            return self.chart.zero_field
        terms = ((c, self.diff(i)) for i, c in enumerate(components) if not c.is_zero)
        return _dot(self.chart, terms)

    def parts_at(self, pt):
        """(N, D) ints with value N/D and D != 0 at ``pt``, with no gcd.

        ``pt`` is a point normalized by ``chart.as_point``.  A constant field
        returns its two constants at once; raises PoleAtPoint on a pole.
        """
        num, den = self._num, self._den
        if poly_is_const(den):
            d = next(iter(den.values()))
            if poly_is_const(num):
                return (next(iter(num.values())) if num else 0), d
            n, e = poly_eval_parts(num, pt)
            return n, e * d
        dn, dd = poly_eval_parts(den, pt)
        if not dn:
            raise PoleAtPoint(pt)
        n, e = poly_eval_parts(num, pt)
        return n * dd, e * dn

    def eval_at(self, point):
        """Exact value at a rational point; raises PoleAtPoint on a pole."""
        return Fraction(*self.parts_at(as_point(self.chart, point)))

    __call__ = eval_at

    # -- identity ----------------------------------------------------------

    def _key(self):
        return (
            self.chart,
            tuple(poly_sorted_terms(self._num)),
            tuple(poly_sorted_terms(self._den)),
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarField.constant(self.chart, other)
        if not isinstance(other, ScalarField):
            return NotImplemented
        return (
            self.chart == other.chart
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    # -- printing ----------------------------------------------------------

    def _poly_str(self, poly):
        names = self.chart.names
        parts = []
        for mono, coef in poly_sorted_terms(poly):
            vars_ = "*".join(
                nm if e == 1 else f"{nm}^{e}"
                for nm, e in zip(names, mono)
                if e
            )
            if not vars_:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(vars_)
            elif coef == -1:
                parts.append(f"-{vars_}")
            else:
                parts.append(f"{coef}*{vars_}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __str__(self):
        if self.is_zero:
            return "0"
        num = self._poly_str(self._num)
        if poly_is_const(self._den) and poly_lead_coeff(self._den) == 1:
            return num
        den = self._poly_str(self._den)
        if len(self._num) > 1:
            num = f"({num})"
        if any(ch in den for ch in "+-*"):
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"ScalarField({self})"
