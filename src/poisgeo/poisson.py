"""Poisson bivectors: sharp map, brackets, Jacobi test, Casimirs, d_pi.

d_pi is ``tensor.ce_differential`` for the cotangent Lie algebroid, whose
anchor is pi_sharp and whose bracket is the Koszul bracket.

Sign conventions follow beta(pi_sharp(alpha)) = pi(alpha, beta), so for the
standard plane structure pi = dd_x ^ dd_y one gets pi_sharp(dx) = dd_y and
pi_sharp(dy) = -dd_x.  A consequence worth remembering: the degree-0
coboundary is d_pi f = -pi_sharp(df).

A Bivector is the antisymmetric ``linalg.BilinearForm``: its constructor,
``from_upper``, equality and ``pairing`` pi(alpha, beta) are the ones the
metrics share.
"""

from itertools import combinations

from .errors import DegreeOverflow, InternalInconsistency
from .linalg import BilinearForm
from .scalar import ScalarField
from .tensor import (
    OneForm,
    PVector,
    VectorField,
    _alternating,
    _same_chart,
    _sharp,
    ce_differential,
    exterior_d,
    interior_vector,
    lie_bracket,
)


class Bivector(BilinearForm):
    """An antisymmetric ``linalg.BilinearForm`` on T*P: entry(i, j) =
    pi(dx_i, dx_j), and ``pairing(alpha, beta)`` = pi(alpha, beta)."""

    __slots__ = (
        "_koszul_table", "_sharp_table", "_algebroid", "_dpi_complex",
        "_kernel_frame", "basic_verdicts", "_bundle_like_family",
    )
    noun = "bivector matrix"
    symmetry = -1

    def __init__(self, chart, matrix):
        super().__init__(chart, matrix)
        self._koszul_table = None
        self._sharp_table = None
        self._algebroid = None
        self._dpi_complex = None  # cohomology._dpi_complex
        self._kernel_frame = None
        # {1-form: verdict} of foliation.is_basic_one_form, one per distinct form
        self.basic_verdicts = {}
        self._bundle_like_family = None  # foliation._bundle_like_family

    def as_pvector(self):
        n = self.chart.dim
        return PVector(
            self.chart,
            2,
            {(i, j): self.matrix[i][j] for i, j in combinations(range(n), 2)},
        )

    def kernel_frame(self):
        """1-forms spanning ker pi generically, one ``kernel_basis`` built once."""
        if self._kernel_frame is None:
            self._kernel_frame = tuple(
                OneForm(self.chart, v) for v in self.field_matrix().kernel_basis()
            )
        return self._kernel_frame

    def is_polynomial(self):
        return all(e.is_polynomial for row in self.matrix for e in row)

    # -- the bundle map and brackets ----------------------------------------

    def sharp(self, alpha):
        """pi_sharp(alpha): the vector V with beta(V) = pi(alpha, beta)."""
        return _sharp(self, alpha)

    def sharp_basis(self, i):
        """pi_sharp(dx_i), cached."""
        self.chart.check_index(i)
        if self._sharp_table is None:
            self._sharp_table = tuple(
                VectorField(self.chart, self.matrix[i]) for i in range(self.chart.dim)
            )
        return self._sharp_table[i]

    def bracket(self, f, g):
        """Function bracket {f, g} = pi(df, dg)."""
        out = ScalarField.zero(self.chart)
        n = self.chart.dim
        for i in range(n):
            dfi = f.diff(i)
            if dfi.is_zero:
                continue
            for j in range(n):
                p = self.matrix[i][j]
                if p.is_zero:
                    continue
                dgj = g.diff(j)
                if not dgj.is_zero:
                    out = out + dfi * p * dgj
        return out

    def jacobiator(self, f, g, h):
        """Cyclic sum {{f,g},h} + {{g,h},f} + {{h,f},g}; zero iff Jacobi holds."""
        return (
            self.bracket(self.bracket(f, g), h)
            + self.bracket(self.bracket(g, h), f)
            + self.bracket(self.bracket(h, f), g)
        )

    def is_poisson(self):
        """Jacobi identity, checked on coordinate triples (sufficient by the
        Leibniz rule and trilinearity of the jacobiator)."""
        return self.jacobi_witness() is None

    def jacobi_witness(self):
        """First coordinate triple with nonzero jacobiator, or None."""
        n = self.chart.dim
        coords = [ScalarField.coordinate(self.chart, i) for i in range(n)]
        for i, j, k in combinations(range(n), 3):
            val = self.jacobiator(coords[i], coords[j], coords[k])
            if not val.is_zero:
                return (i, j, k), val
        return None

    def koszul(self, alpha, beta):
        """The 1-form bracket [alpha, beta]_pi.

        Both classical expressions are evaluated:

            line 1: L_{pi(alpha)} beta - L_{pi(beta)} alpha - d(pi(alpha, beta))
            line 2: i_{pi(alpha)} d beta - i_{pi(beta)} d alpha + d(pi(alpha, beta))

        They agree identically (expand the Lie derivatives with Cartan's
        formula and use beta(pi(alpha)) = pi(alpha, beta)).  They share the
        contractions i_{pi(alpha)} d beta and i_{pi(beta)} d alpha, and d is
        linear, so line 1 - line 2 is the one derivative

            d(beta(pi(alpha)) - alpha(pi(beta)) - 2 pi(alpha, beta)),

        with pi(alpha, beta) read from ``pairing``.  When it is not zero the
        two lines disagree and InternalInconsistency is raised; otherwise
        line 2 is returned.
        """
        return next(self.koszul_brackets(alpha, (beta,)))

    def koszul_brackets(self, alpha, betas):
        """[alpha, beta]_pi for each beta in turn, lazily.

        alpha's side (pi_sharp(alpha) and d alpha) is built once; each
        bracket is guarded as in ``koszul``.
        """
        _same_chart(self, alpha)
        pa = self.sharp(alpha)
        da = exterior_d(alpha.as_pform())
        for beta in betas:
            _same_chart(self, beta)
            pb = self.sharp(beta)
            pair = self.pairing(alpha, beta)
            _guard(beta.pair(pa) - alpha.pair(pb) - 2 * pair, alpha, beta)
            line2 = (
                interior_vector(pa, exterior_d(beta.as_pform()))
                - interior_vector(pb, da)
                + exterior_d(pair)
            )
            yield line2.as_oneform()

    def koszul_coordinate(self, i, j):
        """[dx_i, dx_j]_pi, from a table built once.

        On coordinate forms ``koszul`` has a closed form: d(dx_j) = 0 and
        dx_j(pi_sharp(dx_i)) = pi_ij, so line 2 is d(pi(dx_i, dx_j)) and the
        guard is d(pi_ij - pi_ji - 2 pi(dx_i, dx_j)), with pi(dx_i, dx_j)
        read from ``pairing``.  Every table entry is guarded, and a nonzero
        guard raises InternalInconsistency as ``koszul`` does.
        """
        chart = self.chart
        chart.check_index(i)
        chart.check_index(j)
        if self._koszul_table is None:
            m = self.matrix
            table = {}
            for a, b in chart.increasing[2]:
                dxa, dxb = OneForm.basis(chart, a), OneForm.basis(chart, b)
                pair = self.pairing(dxa, dxb)
                _guard(m[a][b] - m[b][a] - 2 * pair, dxa, dxb)
                table[(a, b)] = exterior_d(pair).as_oneform()
            self._koszul_table = table
        if i == j:
            return OneForm.zero(chart)
        if i < j:
            return self._koszul_table[(i, j)]
        return -self._koszul_table[(j, i)]

    def homomorphism_defect(self, alpha, beta):
        """pi_sharp([alpha,beta]_pi) - [pi_sharp(alpha), pi_sharp(beta)].

        Identically zero exactly when the bracket satisfies Jacobi.
        """
        lhs = self.sharp(self.koszul(alpha, beta))
        rhs = lie_bracket(self.sharp(alpha), self.sharp(beta))
        return lhs - rhs

    def is_casimir(self, f):
        """True iff pi_sharp(df) vanishes identically."""
        return self.sharp(exterior_d(f).as_oneform()).is_zero

    # -- the multivector differential ----------------------------------------

    def cotangent_algebroid(self):
        """(anchors, brackets) of the cotangent Lie algebroid on the coframe dx_a,
        as ``tensor.ce_differential`` reads them, built once.

        anchors[a] = pi_sharp(dx_a), and brackets[a][b] holds the components
        of [dx_a, dx_b]_pi for a < b (``()`` otherwise).
        """
        if self._algebroid is None:
            n = self.chart.dim
            anchors = tuple(self.sharp_basis(a) for a in range(n))
            brackets = tuple(
                tuple(self.koszul_coordinate(a, b).comps if a < b else () for b in range(n))
                for a in range(n)
            )
            self._algebroid = anchors, brackets
        return self._algebroid

    def d_pi(self, Q):
        """Degree +1 differential on multivector fields.

        The Chevalley-Eilenberg differential of the cotangent Lie algebroid
        (``tensor.ce_differential``): on (p+1) coordinate 1-forms a_0..a_p,

            sum_j (-1)^j pi(a_j) . Q(..no a_j..)
          + sum_{i<j} (-1)^{i+j} Q([a_i, a_j]_pi, ..no a_i, a_j..)

        Accepts a ScalarField as a 0-vector.  Defined for any bivector;
        d_pi of d_pi vanishes only when the bivector is Poisson.  On a
        top-degree Q the result is the zero (dim + 1)-vector.
        """
        if isinstance(Q, ScalarField):
            Q = PVector(self.chart, 0, {(): Q})
        if isinstance(Q, VectorField):
            Q = Q.as_pvector()
        _same_chart(self, Q)
        chart = self.chart
        n = chart.dim
        p = Q.degree
        if p > n:
            raise DegreeOverflow(f"d_pi of a degree-{p} multivector in dimension {n}")
        anchors, brackets = self.cotangent_algebroid()
        comps = ce_differential(chart, anchors, brackets, Q.comps, p, n)
        return _alternating(PVector, chart, p + 1, comps)


def _guard(difference, alpha, beta):
    """Raise unless d(difference), Koszul line 1 - line 2, vanishes."""
    if not exterior_d(difference).is_zero:
        raise InternalInconsistency(
            f"the two Koszul bracket expressions disagree for {alpha!r}, {beta!r}"
        )

