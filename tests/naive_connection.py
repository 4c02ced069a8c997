"""Reference contravariant Levi-Civita solve: the six-term formula entry by entry.

Every right-hand side entry takes its three directional derivatives and three
cometric pairings afresh,

    2 <D_i j, k> = pi(i).<j,k> + pi(j).<i,k> - pi(k).<i,j>
                 + <[i,j]_pi, k> + <[k,i]_pi, j> + <[k,j]_pi, i>,

with no table shared between entries, so it checks the package's
``levi_civita`` (which builds the right-hand side from two tables) on the
same linear solve.  ``perturbed_table`` plants a fault in a table, for the
checks that must catch it.
"""

from fractions import Fraction

from poisgeo import OneForm, ScalarField
from poisgeo.connection import ChristoffelTable
from poisgeo.errors import SingularMatrix, SingularMetric
from poisgeo.linalg import FieldMatrix


def naive_levi_civita(pi, g):
    chart = pi.chart
    n = chart.dim
    gm = g.field_matrix()
    if gm.rank() < n:
        raise SingularMetric("cometric matrix is singular")
    forms = [OneForm.basis(chart, i) for i in range(n)]
    sharp = [pi.sharp_basis(i) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    rhs_cols = []
    for i, j in pairs:
        col = []
        for k in range(n):
            val = sharp[i].apply_to(g.entry(j, k))
            val = val + sharp[j].apply_to(g.entry(i, k))
            val = val - sharp[k].apply_to(g.entry(i, j))
            val = val + g.pairing(pi.koszul(forms[i], forms[j]), forms[k])
            val = val + g.pairing(pi.koszul(forms[k], forms[i]), forms[j])
            val = val + g.pairing(pi.koszul(forms[k], forms[j]), forms[i])
            col.append(val)
        rhs_cols.append(col)
    try:
        sols = gm.solve(FieldMatrix(chart, list(zip(*rhs_cols))))
    except SingularMatrix as exc:
        raise SingularMetric(str(exc)) from exc
    half = ScalarField.constant(chart, Fraction(1, 2))
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for col, (i, j) in enumerate(pairs):
        for k in range(n):
            gamma[i][j][k] = half * sols.entry(k, col)
    return ChristoffelTable(chart, pi, gamma)


def perturbed_table(D, i, j, k, delta=1):
    """Copy of the table D with gamma[i][j][k] shifted by a constant."""
    gamma = [[list(row) for row in plane] for plane in D.gamma]
    gamma[i][j][k] = gamma[i][j][k] + ScalarField.constant(D.chart, delta)
    return ChristoffelTable(D.chart, D.pi, gamma)
