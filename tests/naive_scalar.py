"""Reference ScalarField arithmetic: unreduced formulas, one full gcd per result.

Each operator forms the textbook num/den (cross-multiplied sum, plain
product, swapped quotient) and hands it to the canonicalising constructor
``ScalarField(chart, num, den)``, which divides out gcd(num, den) and fixes
the sign.  No shortcut of the package's own arithmetic is used.
"""

from fractions import Fraction

from poisgeo import ScalarField
from poisgeo.kernel import poly_add, poly_mul, poly_neg, poly_sub
from poisgeo.polyops import poly_gcd, poly_lead


def _parts(chart, f):
    if isinstance(f, ScalarField):
        return f.num_dict(), f.den_dict()
    q = Fraction(f)
    zero = (0,) * chart.dim
    return ({zero: q.numerator} if q else {}), {zero: q.denominator}


def naive_add(chart, a, b):
    (n1, d1), (n2, d2) = _parts(chart, a), _parts(chart, b)
    return ScalarField(chart, poly_add(poly_mul(n1, d2), poly_mul(n2, d1)), poly_mul(d1, d2))


def naive_sub(chart, a, b):
    (n1, d1), (n2, d2) = _parts(chart, a), _parts(chart, b)
    return ScalarField(chart, poly_sub(poly_mul(n1, d2), poly_mul(n2, d1)), poly_mul(d1, d2))


def naive_neg(chart, a):
    n, d = _parts(chart, a)
    return ScalarField(chart, poly_neg(n), d)


def naive_mul(chart, a, b):
    (n1, d1), (n2, d2) = _parts(chart, a), _parts(chart, b)
    return ScalarField(chart, poly_mul(n1, n2), poly_mul(d1, d2))


def naive_div(chart, a, b):
    (n1, d1), (n2, d2) = _parts(chart, a), _parts(chart, b)
    return ScalarField(chart, poly_mul(n1, d2), poly_mul(d1, n2))


def naive_inverse_power(chart, a, k):
    """a ** -k for k >= 1."""
    n, d = _parts(chart, a)
    num, den = d, n
    for _ in range(k - 1):
        num, den = poly_mul(num, d), poly_mul(den, n)
    return ScalarField(chart, num, den)


def is_canonical(f):
    """gcd(num, den) = 1, positive leading denominator coefficient, zero = 0/1."""
    num, den = f.num_dict(), f.den_dict()
    one = {(0,) * f.chart.dim: 1}
    if any(c == 0 for c in list(num.values()) + list(den.values())):
        return False
    if not num:
        return den == one
    return poly_gcd(num, den) == one and den[poly_lead(den)] > 0
