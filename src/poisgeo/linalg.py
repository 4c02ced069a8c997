"""Exact linear algebra over the rational-function field and over Q.

FieldMatrix entries are ScalarFields, and its one elimination is
Gauss–Jordan over the field: every intermediate entry is a canonical
ScalarField, so its common factors cancel as it is built.  Ranks, kernels
and solutions are read off the reduced row echelon form.  RationalMatrix
is the sparse exact-rational matrix behind the cohomology windows: its
ranks and kernels come from a sparse fraction-free row echelon over Z.
"""

import math
from fractions import Fraction

from .errors import ChartMismatch, PoisgeoError, SingularMatrix
from .kernel import poly_mul
from .polyops import poly_div_exact, poly_gcd, poly_lcm, poly_lead
from .scalar import ScalarField, _is_one
from .tensor import _det


class FieldMatrix:
    """Immutable rectangular matrix of ScalarFields over one chart."""

    __slots__ = ("chart", "rows", "cols", "entries")

    def __init__(self, chart, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise PoisgeoError("matrix needs at least one row and one column")
        cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise PoisgeoError("ragged matrix")
            for e in row:
                if e.chart != chart:
                    raise ChartMismatch("matrix entries must share one chart")
        self.chart = chart
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    @classmethod
    def identity(cls, chart, n):
        one = ScalarField.one(chart)
        zero = ScalarField.zero(chart)
        return cls(chart, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        return self.entries[i][j]

    def transpose(self):
        return FieldMatrix(self.chart, list(zip(*self.entries)))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise PoisgeoError("shape mismatch in matrix product")
        zero = ScalarField.zero(self.chart)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not (a.is_zero or b.is_zero):
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return FieldMatrix(self.chart, out)

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.chart == other.chart
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.chart, self.entries))

    def is_zero(self):
        return all(e.is_zero for row in self.entries for e in row)

    def eval_at(self, point):
        return RationalMatrix([[e.eval_at(point) for e in row] for row in self.entries])

    def rank_at(self, pt):
        """The rank at a point normalized by ``chart.as_point``, in ints: each
        row is scaled to integers (``_scaled_row_at``) and ranked by ``sparse_rank``."""
        rows = []
        for fields in self.entries:
            _, row = _scaled_row_at(fields, pt)
            rows.append({j: v for j, v in enumerate(row) if v})
        return sparse_rank(rows, self.cols)

    # -- elimination core ----------------------------------------------------

    def _reduced(self, extra=()):
        """Gauss–Jordan elimination of [M | extra] over the field of fractions.

        ``extra`` holds one sequence of fields per row of M.  Each pivot row
        is divided by its pivot and the pivot column cleared in every other
        row; pivots are taken only in M's columns.  Returns (pivot columns,
        rows): the rows are the reduced row echelon form, which is unique.
        """
        rows = [list(row) for row in self.entries]
        for row, more in zip(rows, extra):
            row.extend(more)
        width = len(rows[0])
        zero, one = self.chart.zero_field, self.chart.one_field
        pivots = []
        for c in range(self.cols):
            r = len(pivots)
            p = next((i for i in range(r, self.rows) if not rows[i][c].is_zero), None)
            if p is None:
                continue
            rows[r], rows[p] = rows[p], rows[r]
            piv = rows[r]
            live = [j for j in range(c + 1, width) if not piv[j].is_zero]
            head = piv[c]
            for j in live:
                piv[j] = piv[j] / head
            piv[c] = one
            for row in rows:
                h = row[c]
                if row is not piv and not h.is_zero:
                    for j in live:
                        row[j] = row[j] - h * piv[j]
                    row[c] = zero
            pivots.append(c)
            if len(pivots) == self.rows:
                break
        return pivots, rows

    def rank(self):
        return len(self._reduced()[0])

    def kernel_basis(self):
        """Columns spanning ker(M) symbolically, canonically normalized.

        The vector of free column f is e_f minus column f of the reduced
        rows, placed at the pivot columns.  Each vector is a list of
        ScalarFields scaled to coprime integer polynomials with the first
        nonzero entry's leading coefficient positive, so frames derived from
        kernels are deterministic.
        """
        pivots, rows = self._reduced()
        chart = self.chart
        basis = []
        for f in range(self.cols):
            if f not in pivots:
                vec = [chart.zero_field] * self.cols
                vec[f] = chart.one_field
                for pc, row in zip(pivots, rows):
                    vec[pc] = -row[f]
                basis.append(_normalize_vector(chart, vec))
        return basis

    def solve_with_rank(self, rhs):
        """(rank of M, X) from one reduction of [M | rhs].

        X solves M X = rhs with free variables (if any) set to zero: the rhs
        columns of the reduced rows, placed at the pivot columns.  It is None
        when the system is inconsistent: a row below the rank keeps a nonzero
        rhs entry.
        """
        if rhs.rows != self.rows:
            raise PoisgeoError("rhs row count mismatch")
        chart = self.chart
        pivots, rows = self._reduced(rhs.entries)
        rank = len(pivots)
        if any(not e.is_zero for row in rows[rank:] for e in row[self.cols:]):
            return rank, None
        sol = [[chart.zero_field] * rhs.cols for _ in range(self.cols)]
        for pc, row in zip(pivots, rows):
            sol[pc] = row[self.cols:]
        return rank, FieldMatrix(chart, sol)

    def solve(self, rhs):
        """Solve M X = rhs; free variables (if any) are set to zero.

        Raises SingularMatrix when the system is inconsistent.
        """
        _, sol = self.solve_with_rank(rhs)
        if sol is None:
            raise SingularMatrix("inconsistent linear system")
        return sol

    def inverse(self):
        if self.rows != self.cols:
            raise PoisgeoError("inverse needs a square matrix")
        rank, inv = self.solve_with_rank(FieldMatrix.identity(self.chart, self.rows))
        if rank < self.rows:
            raise SingularMatrix("matrix has identically zero determinant")
        return inv

    def det(self):
        if self.rows != self.cols:
            raise PoisgeoError("determinant needs a square matrix")
        return _det(self.chart, self.entries)


def annihilator(chart, rows):
    """Component vectors killed by every row (``FieldMatrix.kernel_basis``):
    the annihilator of a frame given by its components.  With no rows it is
    every coordinate direction."""
    if not rows:
        return FieldMatrix.identity(chart, chart.dim).entries
    return FieldMatrix(chart, rows).kernel_basis()


def _cleared_row(fields):
    """The numerators of a row of fields brought to their lcm denominator."""
    if all(_is_one(e._den) for e in fields):
        return [e.num_dict() for e in fields]
    lcm = None
    for e in fields:
        d = e.den_dict()
        lcm = d if lcm is None else poly_lcm(lcm, d)
    return [poly_mul(e.num_dict(), poly_div_exact(lcm, e.den_dict())) for e in fields]


def _scaled_row_at(fields, pt):
    """(s, row): s > 0 the lcm of the fields' denominators at ``pt`` and row
    the integers s * f(pt), from ``ScalarField.parts_at`` with no gcd but the lcm's."""
    parts = [f.parts_at(pt) for f in fields]
    s = math.lcm(*[d for _, d in parts])
    return s, [n * (s // d) for n, d in parts]


def _normalize_vector(chart, vec):
    """Scale a ScalarField vector to coprime integer-polynomial entries."""
    polys = _cleared_row(vec)
    g = None
    for p in polys:
        if p:
            g = p if g is None else poly_gcd(g, p)
    if g is None:
        return list(vec)
    sign = 1
    for p in polys:
        if p:
            sign = 1 if p[poly_lead(p)] > 0 else -1
            break
    out = []
    for p in polys:
        q = poly_div_exact(p, g) if p else {}
        if sign < 0:
            q = {m: -c for m, c in q.items()}
        out.append(ScalarField(chart, q, chart.one_poly))
    return out


def _rational(v):
    """An exact entry: ints and Fractions as they are, anything else via Fraction."""
    return v if type(v) is int or type(v) is Fraction else Fraction(v)


def _int_row(row):
    """A new sparse integer row {col: value}: ``row`` scaled by its denominators' lcm.

    An all-integer row is copied as it is.
    """
    lcm = 1
    ints = True
    for v in row.values():
        if type(v) is not int:
            ints = False
            d = v.denominator
            if d != 1:
                lcm = lcm * d // math.gcd(lcm, d)
    if ints:
        return dict(row)
    return {c: v.numerator * (lcm // v.denominator) for c, v in row.items()}


def _eliminate(row, piv, col):
    """a*row - b*piv, with a and b the two entries at ``col`` over their gcd.

    Both rows are integral and hold ``col``; the result no longer does.
    ``row`` is consumed.
    """
    a = piv[col]
    b = row[col]
    g = math.gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        row = {c: a * v for c, v in row.items()}
    for c, v in piv.items():
        nv = row.get(c, 0) - b * v
        if nv:
            row[c] = nv
        else:
            del row[c]
    return row


def _primitive(row, lead):
    """Divide out the content of an integer row; its leading entry becomes positive."""
    g = math.gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _insert(pivots, row):
    """Reduce an integer row against a sparse echelon and keep it if it survives.

    ``pivots`` maps each leading column to a primitive integer row.  The row
    is consumed; returns True when it was independent of the pivot rows.
    """
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            pivots[lead] = _primitive(row, lead)
            return True
        row = _eliminate(row, piv, lead)
    return False


def _echelon(vectors):
    """The sparse echelon {leading index: primitive integer row} of the vectors."""
    pivots = {}
    for vec in vectors:
        if vec:
            _insert(pivots, _int_row(vec))
    return pivots


def _transpose(vectors, length):
    """The transpose of a list of sparse {index: value} vectors of the given length."""
    out = [{} for _ in range(length)]
    for j, vec in enumerate(vectors):
        for i, v in vec.items():
            out[i][j] = v
    return out


def sparse_rank(vectors, length):
    """The rank of a list of sparse {index: value} vectors of the given length.

    Each of the (#vectors - rank) dependent vectors is reduced all the way
    to zero, so the elimination runs on the side with fewer vectors: the
    vectors themselves when there are no more of them than their length,
    else their transpose.  The vectors are not changed.
    """
    if len(vectors) > length:
        vectors = _transpose(vectors, length)
    return len(_echelon(vectors))


def _back_reduce(pivots):
    """Reduced row echelon form: every pivot column cleared outside its own row.

    Rows are reduced from the last pivot up, so each row only meets pivot
    rows that are already reduced, and clearing one pivot column brings in
    no other.  ``pivots`` is consumed.
    """
    done = {}
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for c in [c for c in row if c in done and c != lead]:
            row = _eliminate(row, done[c], c)
        done[lead] = _primitive(row, lead)
    return done


class RationalMatrix:
    """Sparse exact-rational matrix: one dict of nonzero entries per row.

    Ranks and kernels come from a sparse fraction-free row echelon: rows are
    cleared to integers and inserted one at a time, each pivot row kept
    primitive.  A rank eliminates the rows or the columns, whichever are
    fewer (``sparse_rank``).  Either dimension may be zero.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries):
        """From dense rows; with no rows the matrix is 0 x 0 (see ``zero``)."""
        data = []
        cols = None
        for row in entries:
            row = list(row)
            if cols is None:
                cols = len(row)
            elif len(row) != cols:
                raise PoisgeoError("ragged matrix")
            data.append({j: _rational(e) for j, e in enumerate(row) if e})
        self.rows = len(data)
        self.cols = cols or 0
        self._data = data

    @classmethod
    def _sparse(cls, data, cols):
        mat = cls.__new__(cls)
        mat.rows = len(data)
        mat.cols = cols
        mat._data = data
        return mat

    @classmethod
    def zero(cls, rows, cols):
        return cls._sparse([{} for _ in range(rows)], cols)

    @classmethod
    def from_columns(cls, columns, nrows):
        """The matrix with the given columns, each a length-``nrows`` sequence
        or a sparse {row: value} dict."""
        data = [{} for _ in range(nrows)]
        for j, col in enumerate(columns):
            if isinstance(col, dict):
                items = col.items()
            elif len(col) != nrows:
                raise PoisgeoError("ragged matrix")
            else:
                items = enumerate(col)
            for i, e in items:
                if e:
                    data[i][j] = _rational(e)
        return cls._sparse(data, len(columns))

    @property
    def entries(self):
        """Dense rows of Fractions."""
        zero = Fraction(0)
        out = []
        for row in self._data:
            dense = [zero] * self.cols
            for j, v in row.items():
                dense[j] = Fraction(v)
            out.append(tuple(dense))
        return tuple(out)

    def entry(self, i, j):
        return Fraction(self._data[i].get(j, 0))

    def is_zero(self):
        return not any(self._data)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise PoisgeoError("shape mismatch in matrix product")
        out = []
        for row in self._data:
            acc = {}
            for k, a in row.items():
                for j, b in other._data[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: v for j, v in acc.items() if v})
        return RationalMatrix._sparse(out, other.cols)

    def rank(self):
        return sparse_rank(self._data, self.cols)

    def kernel_basis(self):
        """Fraction vectors spanning the nullspace, one per free column.

        The vector for free column f is 1 at f, 0 at the other free columns,
        and read off the reduced row echelon form at the pivot columns.
        """
        rref = _back_reduce(_echelon(self._data))
        zero = Fraction(0)
        one = Fraction(1)
        basis = {}
        for f in range(self.cols):
            if f not in rref:
                vec = basis[f] = [zero] * self.cols
                vec[f] = one
        for lead, row in rref.items():
            head = row[lead]
            for c, v in row.items():
                if c != lead:
                    basis[c][lead] = Fraction(-v, head)
        return list(basis.values())

    def extend_column_space(self, vectors):
        """The vectors that, taken in order, each enlarge the column space.

        The columns go into one echelon, and each vector (a sequence of
        length ``rows``) is tried against it in turn; a vector that is
        independent is kept, in the echelon and in the result.
        """
        pivots = _echelon(_transpose(self._data, self.cols))
        kept = []
        for vec in vectors:
            if len(vec) != self.rows:
                raise PoisgeoError("vector length does not match the row count")
            if _insert(pivots, _int_row({i: _rational(e) for i, e in enumerate(vec) if e})):
                kept.append(vec)
        return kept
