"""Reference foliation quantities: each ingredient computed afresh, every time.

* ``naive_frame_inverse`` inverts the whole n x n frame matrix (a rank
  check, then a solve against the identity), with no use of its block
  structure.
* ``naive_induced_tangent_metric`` converts the blockwise metric to
  coordinates through that inverse.
* ``naive_invariance_report`` takes L_X pi afresh for every use: once per
  normal field for the bracket check, once per frame field for the
  coordinate residuals, once more per normal field for the perp residuals,
  and the bracket of every perp pair once per normal field.
* ``naive_koszul`` writes both bracket expressions with two full
  ``lie_derivative`` calls and two full contractions.
* ``naive_positive_definite`` evaluates every leading principal minor as a
  determinant.

So they check the package's shared-ingredient versions on the same inputs.
"""

from itertools import combinations

from poisgeo import ScalarField, TangentMetric
from poisgeo.chart import as_point
from poisgeo.connection import _fraction_det
from poisgeo.errors import InternalInconsistency, NotPositiveDefiniteAt, SingularMatrix
from poisgeo.linalg import FieldMatrix
from poisgeo.tensor import exterior_d, interior_d, lie_derivative, lie_derivative_bivector


def naive_frame_inverse(split):
    fm = split.frame_matrix()
    if fm.rank() < fm.rows:
        raise SingularMatrix("matrix has identically zero determinant")
    return fm.solve(FieldMatrix.identity(split.chart, fm.rows))


def naive_induced_tangent_metric(pi, g, split):
    chart = split.chart
    n = chart.dim
    r = split.rank
    zero = ScalarField.zero(chart)
    block = [[zero] * n for _ in range(n)]
    for b in range(r):
        for c in range(r):
            block[b][c] = g.pairing(split.perp_frame[b], split.perp_frame[c])
    for a in range(n - r):
        for b in range(n - r):
            block[r + a][r + b] = g.pairing(split.kernel_frame[a], split.kernel_frame[b])
    inv = naive_frame_inverse(split)
    m = inv.transpose() @ FieldMatrix(chart, block) @ inv
    return TangentMetric(chart, m.entries)


def naive_koszul(pi, alpha, beta):
    pa = pi.sharp(alpha)
    pb = pi.sharp(beta)
    d_pair = exterior_d(pi.pairing(alpha, beta))
    line1 = (
        lie_derivative(pa, beta.as_pform())
        - lie_derivative(pb, alpha.as_pform())
        - d_pair
    )
    line2 = interior_d(pa, beta.as_pform()) - interior_d(pb, alpha.as_pform()) + d_pair
    if line1 != line2:
        raise InternalInconsistency("the two Koszul bracket expressions disagree")
    return line1.as_oneform()


def naive_invariance_report(pi, g, split, riemann_poisson):
    n = pi.chart.dim
    bracket_vs_lie = []
    for X in split.h_frame:
        lx = lie_derivative_bivector(X, pi.as_pvector())
        for b in range(split.rank):
            for c in range(b + 1, split.rank):
                lhs = naive_koszul(pi, split.perp_frame[b], split.perp_frame[c]).pair(X)
                rhs = lx.apply([split.perp_frame[b], split.perp_frame[c]])
                bracket_vs_lie.append(((b, c), lhs - rhs))
    coordinate_residuals = []
    for X in split.ts_frame + split.h_frame:
        lx = lie_derivative_bivector(X, pi.as_pvector())
        for i, j in combinations(range(n), 2):
            lhs = pi.koszul_coordinate(i, j).pair(X)
            coordinate_residuals.append(((i, j), lhs - lx.component((i, j))))
    perp_residuals = []
    for X in split.h_frame:
        lx = lie_derivative_bivector(X, pi.as_pvector())
        for b in range(split.rank):
            for c in range(b + 1, split.rank):
                perp_residuals.append(lx.apply([split.perp_frame[b], split.perp_frame[c]]))
    return {
        "bracket_vs_lie_ok": all(res.is_zero for _, res in bracket_vs_lie),
        "bracket_vs_lie_residuals": bracket_vs_lie,
        "coordinate_bracket_ok": all(r.is_zero for _, r in coordinate_residuals),
        "coordinate_bracket_residuals": coordinate_residuals,
        "perp_invariance_ok": all(res.is_zero for res in perp_residuals),
        "perp_invariance_asserted": riemann_poisson,
        "perp_invariance_residuals": perp_residuals,
    }


def naive_positive_definite(chart, matrix, samples):
    n = chart.dim
    pts = [as_point(chart, p) for p in samples]
    for pt in pts:
        values = [[e.eval_at(pt) for e in row] for row in matrix]
        for k in range(1, n + 1):
            if _fraction_det([row[:k] for row in values[:k]]) <= 0:
                raise NotPositiveDefiniteAt(pt, k - 1)
    return pts
