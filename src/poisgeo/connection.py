"""Cotangent metrics and the contravariant Levi-Civita connection.

The connection coefficients are solved pairwise from the six-term Koszul
formula

    2 <D_a b, c> = pi(a).<b,c> + pi(b).<a,c> - pi(c).<a,b>
                 + <[a,b]_pi, c> + <[c,a]_pi, b> + <[c,b]_pi, a>

with a, b, c running over coordinate forms, then extended to arbitrary
1-forms by D_{f a} b = f D_a b and D_a (f b) = f D_a b + (pi(a).f) b.

The cometric is a symmetric ``linalg.BilinearForm`` (``SymmetricForm``,
which ``foliation.TangentMetric`` shares): its constructor, entries and
pairing are the bivector's.
"""

from fractions import Fraction

from .chart import as_point
from .errors import NotPositiveDefiniteAt, PoisgeoError, SingularMetric
from .linalg import BilinearForm, FieldMatrix, _scaled_row_at
from .scalar import ScalarField
from .tensor import OneForm, _sharp


class SymmetricForm(BilinearForm):
    """A symmetric ``linalg.BilinearForm``.

    ``CoMetric`` pairs 1-forms with it, ``foliation.TangentMetric`` vectors.
    """

    __slots__ = ()
    noun = "symmetric form"
    symmetry = 1

    @classmethod
    def identity(cls, chart):
        return cls(chart, FieldMatrix.identity(chart, chart.dim).entries)

    def validate(self, samples):
        """Positive-definiteness at every sample (``check_positive_definite``);
        returns the checked points.  Symmetry holds from construction."""
        if not samples:
            raise PoisgeoError("need at least one sample point")
        return check_positive_definite(self.chart, self.matrix, samples)


class CoMetric(SymmetricForm):
    """The cometric: entry(i, j) = <dx_i, dx_j>, pairing(alpha, beta) = <alpha, beta>."""

    __slots__ = ()
    noun = "cometric matrix"

    def sharp(self, alpha):
        """The metric identification T*P -> TP: beta(sharp(alpha)) = <alpha, beta>."""
        return _sharp(self, alpha)

    def leading_minor(self, k):
        """Leading principal k x k minor as a symbolic determinant."""
        sub = [row[:k] for row in self.matrix[:k]]
        return FieldMatrix(self.chart, sub).det()


def check_positive_definite(chart, matrix, samples):
    """Sylvester's criterion for a symmetric matrix of fields at every sample.

    At each sample the matrix M goes to integers by a congruence: row and
    column i are scaled by s_i > 0, the lcm of row i's denominators
    (``linalg._scaled_row_at``), so the k-th leading minor of S M S is the
    k-th of M times (s_1 ... s_k)^2 and has its sign.  Returns the checked
    points; raises NotPositiveDefiniteAt with the 0-based index of the first
    leading minor that is not positive (``_leading_minors``).
    """
    pts = [as_point(chart, p) for p in samples]
    for pt in pts:
        for k, minor in enumerate(_leading_minors(_congruent_rows(matrix, pt))):
            if minor <= 0:
                raise NotPositiveDefiniteAt(pt, k)
    return pts


def _congruent_rows(matrix, pt):
    """The integer matrix S M(pt) S of ``check_positive_definite``, as lists."""
    scaled = [_scaled_row_at(row, pt) for row in matrix]
    scales = [s for s, _ in scaled]
    return [[v * s for v, s in zip(row, scales)] for _, row in scaled]


def _leading_minors(rows):
    """The leading principal minors of a square integer matrix, in order, up
    to the first that is not positive.

    Fraction-free elimination without pivoting (Bareiss, Math. Comp. 22,
    1968): each update is divided exactly by the previous pivot, and the
    k-th pivot is the k-th leading minor.  ``rows`` is consumed.
    """
    n = len(rows)
    prev = 1
    for k in range(n):
        row_k = rows[k]
        pivot = row_k[k]
        yield pivot
        if pivot <= 0:
            return
        for i in range(k + 1, n):
            row_i = rows[i]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
        prev = pivot


class ChristoffelTable:
    """Contravariant connection coefficients: D_{dx_i} dx_j = sum_k G[i][j][k] dx_k."""

    __slots__ = ("chart", "pi", "gamma")

    def __init__(self, chart, pi, gamma):
        self.chart = chart
        self.pi = pi
        self.gamma = tuple(tuple(tuple(row) for row in plane) for plane in gamma)

    def basis_derivative(self, i, j):
        """D_{dx_i} dx_j as a OneForm."""
        return OneForm(self.chart, self.gamma[i][j])

    def derivative(self, alpha, beta):
        """D_alpha beta for arbitrary 1-forms, by the contravariant Leibniz rule."""
        chart = self.chart
        n = chart.dim
        zero = ScalarField.zero(chart)
        comps = [zero] * n
        for i in range(n):
            a = alpha.comps[i]
            if a.is_zero:
                continue
            sharp_i = self.pi.sharp_basis(i)
            for j in range(n):
                b = beta.comps[j]
                if not b.is_zero:
                    for k in range(n):
                        g = self.gamma[i][j][k]
                        if not g.is_zero:
                            comps[k] = comps[k] + a * b * g
                db = sharp_i.apply_to(b)
                if not db.is_zero:
                    comps[j] = comps[j] + a * db
        return OneForm(chart, comps)


def levi_civita(pi, g):
    """Solve the Koszul-type formula for the contravariant Christoffel table.

    Raises SingularMetric when the cometric matrix is symbolically singular.
    """
    chart = pi.chart
    if g.chart != chart:
        raise PoisgeoError("bivector and cometric on different charts")
    n = chart.dim
    sharp = [pi.sharp_basis(i) for i in range(n)]
    # dg[a][b][c] = pi(dx_a).<dx_b, dx_c>, symmetric in (b, c)
    dg = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(b, n):
                dg[a][b][c] = dg[a][c][b] = sharp[a].apply_to(g.entry(b, c))
    # P[i][j][k] = <[dx_i, dx_j]_pi, dx_k>, antisymmetric in (i, j)
    zero = ScalarField.zero(chart)
    P = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            P[i][j] = g.sharp(pi.koszul_coordinate(i, j)).comps
            P[j][i] = [-v for v in P[i][j]]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    rhs_cols = [
        [
            dg[i][j][k] + dg[j][i][k] - dg[k][i][j] + P[i][j][k] + P[k][i][j] + P[k][j][i]
            for k in range(n)
        ]
        for i, j in pairs
    ]
    rhs = FieldMatrix(chart, list(zip(*rhs_cols)))
    rank, sols = g.field_matrix().solve_with_rank(rhs)
    if rank < n:
        raise SingularMetric("cometric matrix is singular")
    half = ScalarField.constant(chart, Fraction(1, 2))
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for col, (i, j) in enumerate(pairs):
        for k in range(n):
            gamma[i][j][k] = half * sols.entry(k, col)
    return ChristoffelTable(chart, pi, gamma)


def torsion_defect(D, pi, alpha, beta):
    """D_a b - D_b a - [a, b]_pi; identically zero for the Levi-Civita table."""
    return D.derivative(alpha, beta) - D.derivative(beta, alpha) - pi.koszul(alpha, beta)


def _pairing_defect(D, pi, pairing, alpha, beta, gamma_form):
    """pi(a).T(b,c) - T(D_a b, c) - T(b, D_a c) for the pairing T of two 1-forms."""
    lead = pi.sharp(alpha).apply_to(pairing(beta, gamma_form))
    return (
        lead
        - pairing(D.derivative(alpha, beta), gamma_form)
        - pairing(beta, D.derivative(alpha, gamma_form))
    )


def metric_defect(D, g, pi, alpha, beta, gamma_form):
    """pi(a).<b,c> - <D_a b, c> - <b, D_a c>; identically zero for Levi-Civita."""
    return _pairing_defect(D, pi, g.pairing, alpha, beta, gamma_form)


def d_pi_tensor(D, pi, alpha, beta, gamma_form):
    """The covariant derivative of pi as a 3-tensor:

    Dpi(a,b,c) = pi(a).pi(b,c) - pi(D_a b, c) - pi(b, D_a c).
    """
    return _pairing_defect(D, pi, pi.pairing, alpha, beta, gamma_form)


def _coordinate_defect(D, pi, matrix, i, j, k):
    """pi(dx_i).T_jk - sum_l G_ijl T_lk - sum_l T_jl G_ikl for a matrix T of fields."""
    out = pi.sharp_basis(i).apply_to(matrix[j][k])
    gij, gik = D.gamma[i][j], D.gamma[i][k]
    for l in range(pi.chart.dim):
        if not (gij[l].is_zero or matrix[l][k].is_zero):
            out = out - gij[l] * matrix[l][k]
        if not (gik[l].is_zero or matrix[j][l].is_zero):
            out = out - matrix[j][l] * gik[l]
    return out


def torsion_defect_coordinate(D, pi, i, j):
    """torsion_defect on the coordinate pair (dx_i, dx_j)."""
    return D.basis_derivative(i, j) - D.basis_derivative(j, i) - pi.koszul_coordinate(i, j)


def metric_defect_coordinate(D, g, pi, i, j, k):
    """metric_defect on the coordinate triple (dx_i, dx_j, dx_k)."""
    return _coordinate_defect(D, pi, g.matrix, i, j, k)


def d_pi_tensor_coordinate(D, pi, i, j, k):
    """Dpi on the coordinate triple (dx_i, dx_j, dx_k)."""
    return _coordinate_defect(D, pi, pi.matrix, i, j, k)


def riemann_poisson_defect(pi, g, D=None):
    """First nonzero Dpi coordinate component, or None when Dpi vanishes.

    Returns ((i, j, k), ScalarField) scanning triples in lexicographic order,
    so the reported witness is deterministic.  Dpi is antisymmetric in (j, k),
    so the first nonzero triple has j < k and only those are scanned.
    """
    if D is None:
        D = levi_civita(pi, g)
    n = pi.chart.dim
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                val = d_pi_tensor_coordinate(D, pi, i, j, k)
                if not val.is_zero:
                    return (i, j, k), val
    return None


def is_riemann_poisson(pi, g):
    """True iff pi is Poisson and Dpi vanishes on all coordinate triples."""
    if not pi.is_poisson():
        return False
    return riemann_poisson_defect(pi, g) is None


def cyclic_d_pi(D, pi, alpha, beta, gamma_form):
    """Dpi(a,b,c) + Dpi(b,c,a) + Dpi(c,a,b).

    Metric-independent, and proportional to the jacobiator on exact forms;
    vanishes identically exactly when pi is Poisson.
    """
    return (
        d_pi_tensor(D, pi, alpha, beta, gamma_form)
        + d_pi_tensor(D, pi, beta, gamma_form, alpha)
        + d_pi_tensor(D, pi, gamma_form, alpha, beta)
    )


def prop_elementary_report(split, D):
    """The three elementary closure properties of the Levi-Civita connection
    D of the splitting's pi and g.

    1. pi(b) = 0 implies pi(D_a b) = 0 for every coordinate a;
    2. pi(a) = 0 implies D_a = 0 (checked on coordinate forms);
    3. the g-orthogonal complement of ker pi is closed under D and the bracket.

    Returns {"kernel_stays_kernel": bool, "kernel_kills": bool,
    "perp_closed": bool} evaluated on the split frames.
    """
    pi, g = split.pi, split.g
    chart = pi.chart
    n = chart.dim
    coords = [OneForm.basis(chart, i) for i in range(n)]
    item1 = True
    for kappa in split.kernel_frame:
        for a in coords:
            if not pi.sharp(D.derivative(a, kappa)).is_zero:
                item1 = False
    item2 = True
    for kappa in split.kernel_frame:
        for b in coords:
            if not D.derivative(kappa, b).is_zero:
                item2 = False
    item3 = True
    for a in split.perp_frame:
        for b in split.perp_frame:
            for kappa in split.kernel_frame:
                if not g.pairing(D.derivative(a, b), kappa).is_zero:
                    item3 = False
                if not g.pairing(pi.koszul(a, b), kappa).is_zero:
                    item3 = False
    return {
        "kernel_stays_kernel": item1,
        "kernel_kills": item2,
        "perp_closed": item3,
    }
