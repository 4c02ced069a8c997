"""Pure-Python polynomial and elimination kernels.

A polynomial in n variables is a dict mapping exponent tuples (length n) to
nonzero int coefficients; {} is the zero polynomial.  These routines are the
inner loop of every scalar-field operation, so they stay allocation-lean and
free of any class machinery; the other modules import them through
``poisgeo.kernel``.
"""

from operator import add


def poly_add(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def poly_sub(a, b):
    if not b:
        return dict(a)
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = -c
        else:
            s = s - c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def poly_neg(a):
    return {m: -c for m, c in a.items()}


def poly_scale(a, k):
    if not k:
        return {}
    return {m: c * k for m, c in a.items()}


def poly_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            s = out.get(m)
            if s is None:
                out[m] = ca * cb
            else:
                s = s + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def poly_term_mul(a, mono, coef):
    """a * (coef * x^mono); coef must be nonzero."""
    if not a:
        return {}
    return {tuple(map(add, m, mono)): c * coef for m, c in a.items()}


def poly_diff(a, i):
    out = {}
    for m, c in a.items():
        e = m[i]
        if e:
            out[m[:i] + (e - 1,) + m[i + 1:]] = c * e
    return out


def poly_eval_parts(a, point):
    """(N, D) ints with a(point) = N/D and D > 0, at a tuple of rationals; no gcd.

    With x_i = p_i/q_i and d_i the degree of a in x_i,
    a(x) = sum c * prod p_i^e_i q_i^(d_i - e_i) / prod q_i^d_i, so the sum
    runs in ints and D is the product of the q_i^d_i.
    """
    if not a:
        return 0, 1
    n = len(point)
    deg = [0] * n
    for m in a:
        for i, e in enumerate(m):
            if e > deg[i]:
                deg[i] = e
    den = 1
    tables = []
    for i, d in enumerate(deg):
        if not d:
            continue
        p, q = point[i].numerator, point[i].denominator
        w = [1] * (d + 1)
        for e in range(1, d + 1):
            w[e] = w[e - 1] * p
        if q != 1:
            qe = 1
            for e in range(d - 1, -1, -1):
                qe *= q
                w[e] *= qe
            den *= qe
        tables.append((i, w))
    total = 0
    for m, c in a.items():
        for i, w in tables:
            c *= w[m[i]]
        total += c
    return total, den


def grlex_key(m):
    return (sum(m), m)


def poly_lead(a):
    """Leading monomial under graded lex (total degree first, then lex)."""
    return max(a, key=grlex_key)


def int_row_echelon(rows):
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Mutates nothing; returns (rank, pivot_cols, echelon) where echelon is a
    new list of rows.  Entries stay integral throughout: every 2x2 cross
    update is exactly divisible by the previous pivot.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivot_cols = []
    prev = 1
    r = 0
    for c in range(ncols):
        p = -1
        for i in range(r, nrows):
            if m[i][c]:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            head = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c, ncols):
                row_i[j] = (pivot * row_i[j] - head * row_r[j]) // prev
        prev = pivot
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivot_cols, m
