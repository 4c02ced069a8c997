"""Multivariate integer-polynomial helpers: exact division, content, gcd.

gcd uses the subresultant polynomial remainder sequence with content
recursion, working directly on the flat exponent-tuple dicts of
``poisgeo.kernel``.  Degrees in this engine stay small, so the classic
algorithm is plenty; the point is exactness, not asymptotics.
"""

import math

from .kernel import grlex_key, poly_lead, poly_mul, poly_scale, poly_sub, poly_term_mul


class ExactDivisionError(ArithmeticError):
    """Internal: division that was assumed exact left a remainder."""


def poly_is_const(a):
    return not a or (len(a) == 1 and not any(next(iter(a))))


def poly_const_mono(n):
    return (0,) * n


def poly_int_content(a):
    """gcd of the integer coefficients (0 for the zero polynomial)."""
    g = 0
    for c in a.values():
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def poly_lead_coeff(a):
    return a[poly_lead(a)]


def poly_sign_normalize(a):
    """Scale by -1 if the graded-lex leading coefficient is negative."""
    if a and a[poly_lead(a)] < 0:
        return {m: -c for m, c in a.items()}
    return a


def poly_div_exact(a, b):
    """Exact quotient a/b in Z[x1..xn]; raises ExactDivisionError otherwise."""
    if not b:
        raise ExactDivisionError("division by zero polynomial")
    if not a:
        return {}
    if poly_is_const(b):
        c = next(iter(b.values()))
        if c in (1, -1):
            return poly_scale(a, c)
        out = {}
        for m, v in a.items():
            q, r = divmod(v, c)
            if r:
                raise ExactDivisionError("coefficient not divisible")
            out[m] = q
        return out
    lb = poly_lead(b)
    cb = b[lb]
    rem = dict(a)
    quot = {}
    while rem:
        la = poly_lead(rem)
        mq = tuple(x - y for x, y in zip(la, lb))
        if any(e < 0 for e in mq):
            raise ExactDivisionError("monomial not divisible")
        cq, r = divmod(rem[la], cb)
        if r:
            raise ExactDivisionError("leading coefficient not divisible")
        quot[mq] = cq
        rem = poly_sub(rem, poly_term_mul(b, mq, cq))
    return quot


def _deg_in(a, v):
    d = -1
    for m in a:
        if m[v] > d:
            d = m[v]
    return d


def _coeff_in(a, v, k):
    """Coefficient of x_v^k as a polynomial with the v-slot zeroed."""
    out = {}
    for m, c in a.items():
        if m[v] == k:
            out[m[:v] + (0,) + m[v + 1:]] = c
    return out


def _shift_in(a, v, k):
    """Multiply by x_v^k."""
    if k == 0:
        return a
    return {m[:v] + (m[v] + k,) + m[v + 1:]: c for m, c in a.items()}


def _min_var(a, b):
    """Smallest variable index with positive degree in a or b, or None."""
    best = None
    for p in (a, b):
        for m in p:
            for v, e in enumerate(m):
                if e and (best is None or v < best):
                    best = v
                    break
    return best


def _prem(a, b, v):
    """Pseudo-remainder of a by b in the main variable v."""
    db = _deg_in(b, v)
    lb = _coeff_in(b, v, db)
    r = a
    e = _deg_in(a, v) - db + 1
    while r:
        dr = _deg_in(r, v)
        if dr < db:
            break
        lr = _coeff_in(r, v, dr)
        r = poly_sub(poly_mul(lb, r), poly_mul(_shift_in(lr, v, dr - db), b))
        e -= 1
    for _ in range(e):
        r = poly_mul(lb, r)
    return r


def _content_pp(a, v):
    """(content, primitive part) of a viewed as univariate in x_v."""
    coeffs = {}
    for m, c in a.items():
        key = m[v]
        red = m[:v] + (0,) + m[v + 1:]
        bucket = coeffs.setdefault(key, {})
        bucket[red] = bucket.get(red, 0) + c
    cont = {}
    for part in coeffs.values():
        cont = poly_gcd(cont, part)
        if poly_is_const(cont) and cont and abs(next(iter(cont.values()))) == 1:
            break
    if not cont:
        return {}, {}
    return cont, poly_div_exact(a, cont)


def poly_gcd(a, b):
    """gcd in Z[x1..xn], sign-normalized (positive graded-lex leading coeff).

    Includes the integer content: poly_gcd(6x, 4x^2) = 2x.
    """
    if not a:
        return poly_sign_normalize(dict(b))
    if not b:
        return poly_sign_normalize(dict(a))
    n = len(next(iter(a)))
    if poly_is_const(a) or poly_is_const(b):
        g = math.gcd(poly_int_content(a), poly_int_content(b))
        return {poly_const_mono(n): g}
    v = _min_var(a, b)
    da, db = _deg_in(a, v), _deg_in(b, v)
    if da == 0 or db == 0:
        # gcd must have degree 0 in v: recurse on the v-contents
        ca, _ = _content_pp(a, v)
        cb, _ = _content_pp(b, v)
        return poly_gcd(ca, cb)
    if da < db:
        a, b = b, a
    ca, pa = _content_pp(a, v)
    cb, pb = _content_pp(b, v)
    c = poly_gcd(ca, cb)
    # subresultant PRS on the primitive parts
    A, B = pa, pb
    g = {poly_const_mono(n): 1}
    h = {poly_const_mono(n): 1}
    while True:
        d = _deg_in(A, v) - _deg_in(B, v)
        R = _prem(A, B, v)
        if not R:
            break
        if _deg_in(R, v) == 0:
            B = {poly_const_mono(n): 1}
            break
        hd = h
        for _ in range(d - 1):
            hd = poly_mul(hd, h)
        A, B = B, poly_div_exact(R, poly_mul(g, hd) if d > 0 else g)
        g = _coeff_in(A, v, _deg_in(A, v))
        if d > 0:
            gd = g
            for _ in range(d - 1):
                gd = poly_mul(gd, g)
            if d > 1:
                hprev = h
                for _ in range(d - 2):
                    hprev = poly_mul(hprev, h)
                h = poly_div_exact(gd, hprev)
            else:
                h = gd
    if poly_is_const(B):
        gcd_pp = {poly_const_mono(n): 1}
    else:
        _, gcd_pp = _content_pp(B, v)
    return poly_sign_normalize(poly_mul(c, gcd_pp))


def poly_lcm(a, b):
    if not a or not b:
        return {}
    return poly_sign_normalize(poly_div_exact(poly_mul(a, b), poly_gcd(a, b)))


def monomials_upto(n, d):
    """Exponent tuples in n variables of total degree <= d, in lex order."""
    if n == 0:
        return [()]
    return [(e,) + rest for e in range(d + 1) for rest in monomials_upto(n - 1, d - e)]


def poly_sorted_terms(a):
    """Terms sorted by graded-lex, descending (printing / hashing order)."""
    return sorted(a.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
