"""Multivariate integer-polynomial helpers: exact division, content, gcd.

Everything works directly on the flat exponent-tuple dicts of
``poisgeo.kernel``.  The gcd is the heuristic GCDHEU of Char, Geddes and
Gonnet (J. Symbolic Comput. 7, 1989) in the multivariate form of Liao and
Fateman (ISSAC 1995): evaluate one variable at a large integer xi, take the
exact gcd of the images one variable down, and rebuild the gcd and both
cofactors from their images by symmetric xi-adic expansion.  No result is
trusted until exact arithmetic certifies it: h * (a/h) == a and
h * (b/h) == b, or exact division by the primitive part of h.  With
xi >= 2 min(|a|, |b|) + 2 (max norms of the primitive inputs) a certified
common divisor built this way is the gcd, provided every level below
returned the exact gcd of its images; so each level does.  After a few
larger choices of xi fail to certify, the subresultant polynomial
remainder sequence (``_prs_gcd``) computes the gcd instead.
"""

import math
from operator import sub

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
        mq = tuple(map(sub, la, lb))
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
        cont = _prs_gcd(cont, part)
        if poly_is_const(cont) and cont and abs(next(iter(cont.values()))) == 1:
            break
    if not cont:
        return {}, {}
    return cont, poly_div_exact(a, cont)


def _prs_gcd(a, b):
    """gcd by the subresultant PRS with content recursion, sign-normalized.

    The fallback of ``poly_gcd`` when the heuristic does not certify; slow
    on large coprime inputs, but it never fails.
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
        return _prs_gcd(ca, cb)
    if da < db:
        a, b = b, a
    ca, pa = _content_pp(a, v)
    cb, pb = _content_pp(b, v)
    c = _prs_gcd(ca, cb)
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


HEU_GCD_MAX = 6  # evaluation points tried before the PRS fallback


def _int_divide(a, k):
    return a if k == 1 else {m: c // k for m, c in a.items()}


def _monomial_cofactors(a, b):
    """Cofactors when a or b is a single term (a constant included).

    Every divisor of c x^m is an integer times a monomial, so the gcd is
    the integer content of both times x^(componentwise minimum exponent).
    """
    g = 0
    low = None
    for p in (a, b):
        for m, c in p.items():
            g = math.gcd(g, c)
            low = m if low is None else tuple(map(min, low, m))
    if not any(low):
        return {low: g}, _int_divide(a, g), _int_divide(b, g)

    def quotient(p):
        return {tuple(map(sub, m, low)): c // g for m, c in p.items()}

    return {low: g}, quotient(a), quotient(b)


def _evaluate(a, v, xi_pows):
    """a with x_v = xi, given xi_pows[e] = xi^e; x_0..x_(v-1) must not occur."""
    head = (0,) * (v + 1)
    out = {}
    for m, c in a.items():
        key = head + m[v + 1:]
        out[key] = out.get(key, 0) + c * xi_pows[m[v]]
    return {m: c for m, c in out.items() if c}


def _interpolate(image, v, xi):
    """Symmetric xi-adic expansion: each integer coefficient of the image
    becomes the coefficients of x_v^0, x_v^1, ... in (-xi/2, xi/2]."""
    half = xi // 2
    out = {}
    heads = []
    for m, c in image.items():
        tail = m[v + 1:]
        i = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                while len(heads) <= i:
                    heads.append((0,) * v + (len(heads),))
                out[heads[i] + tail] = d
            c = (c - d) // xi
            i += 1
    return out


def _is_product(h, q, p):
    """h * q == p, without a product when h is the constant 1."""
    if len(h) == 1 and next(iter(h.values())) == 1 and not any(next(iter(h))):
        return q == p
    return poly_mul(h, q) == p


def _cofactors(a, b):
    """(g, a/g, b/g) for nonzero a, b with g an exact gcd of a and b.

    The integer content is included; the sign of g is not normalized.
    """
    if len(a) == 1 or len(b) == 1:
        return _monomial_cofactors(a, b)
    ca = poly_int_content(a)
    cb = poly_int_content(b)
    c = math.gcd(ca, cb)
    a = _int_divide(a, ca)
    b = _int_divide(b, cb)
    ka, kb = ca // c, cb // c
    v = _min_var(a, b)
    top = max(_deg_in(a, v), _deg_in(b, v))
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(HEU_GCD_MAX):
        pows = [1]
        for _e in range(top):
            pows.append(pows[-1] * xi)
        ea = _evaluate(a, v, pows)
        eb = _evaluate(b, v, pows)
        if ea and eb:
            # the exact gcd of the images, content included: a proper
            # divisor here would still pass the certificate below
            gi, qai, qbi = _cofactors(ea, eb)
            h = _interpolate(gi, v, xi)
            k = poly_int_content(h)
            if k != 1:
                # an integer factor common to the images only (a and b are
                # primitive): move it from h to the cofactor images
                h = _int_divide(h, k)
                qai = poly_scale(qai, k)
                qbi = poly_scale(qbi, k)
            qa = _interpolate(qai, v, xi)
            qb = _interpolate(qbi, v, xi)
            if _is_product(h, qa, a) and _is_product(h, qb, b):
                return poly_scale(h, c), poly_scale(qa, ka), poly_scale(qb, kb)
            try:
                qa = poly_div_exact(a, h)
                qb = poly_div_exact(b, h)
            except ExactDivisionError:
                pass
            else:
                return poly_scale(h, c), poly_scale(qa, ka), poly_scale(qb, kb)
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    h = _prs_gcd(a, b)
    qa = poly_div_exact(a, h)
    qb = poly_div_exact(b, h)
    return poly_scale(h, c), poly_scale(qa, ka), poly_scale(qb, kb)


def poly_cofactors(a, b):
    """(g, a/g, b/g) with g = poly_gcd(a, b).

    g has a positive graded-lex leading coefficient and the cofactors carry
    the signs of a and b.  A zero input has cofactor 0; if both are zero,
    all three are 0.
    """
    if not a or not b:
        p = a or b
        if not p:
            return {}, {}, {}
        s = 1 if p[poly_lead(p)] > 0 else -1
        g, unit = poly_scale(p, s), {poly_const_mono(len(next(iter(p)))): s}
        return (g, {}, unit) if not a else (g, unit, {})
    g, qa, qb = _cofactors(a, b)
    if g[poly_lead(g)] < 0:
        return {m: -c for m, c in g.items()}, {m: -c for m, c in qa.items()}, {m: -c for m, c in qb.items()}
    return g, qa, qb


def poly_gcd(a, b):
    """gcd in Z[x1..xn], sign-normalized (positive graded-lex leading coeff).

    Includes the integer content: poly_gcd(6x, 4x^2) = 2x.
    """
    return poly_cofactors(a, b)[0]


def poly_lcm(a, b):
    if not a or not b:
        return {}
    _, _, qb = poly_cofactors(a, b)
    return poly_sign_normalize(poly_mul(a, qb))


def monomials_upto(n, d):
    """Exponent tuples in n variables of total degree <= d, in lex order."""
    if n == 0:
        return [()]
    return [(e,) + rest for e in range(d + 1) for rest in monomials_upto(n - 1, d - e)]


def poly_sorted_terms(a):
    """Terms sorted by graded-lex, descending (printing / hashing order)."""
    return sorted(a.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
