"""Coordinate tensor fields and the classical operators on them.

Vectors and 1-forms store one ScalarField per coordinate; higher-degree
forms and multivectors store one component per strictly increasing
multi-index, with all sign bookkeeping done by permutation parity.  That
alternating-component code (``_Components``) works on any frame that lists
its increasing index tuples, so leafwise forms on the leaf frame of a
splitting share it.
"""

from itertools import combinations

from .chart import Chart
from .errors import (
    ChartMismatch,
    DegreeOverflow,
    DegreeUnderflow,
    PoisgeoError,
)
from .scalar import ScalarField, _dot


def _same_chart(a, b):
    if a.chart is not b.chart and a.chart != b.chart:
        raise ChartMismatch(f"{a.chart} vs {b.chart}")


def _sort_sign(idx):
    """(sign, sorted tuple) of an index tuple; sign 0 on repeats."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return 0, tuple(idx)
    return sign, tuple(idx)


def ce_differential(chart, anchors, structure, cochain, p, frame_size):
    """The Chevalley-Eilenberg differential of a Lie algebroid on a frame.

    Frame element e_a acts on functions by ``anchors[a]``, and [e_a, e_b] =
    sum_c structure[a][b][c] e_c (read for a < b, and only when p >= 1).
    ``cochain`` maps increasing frame tuples to its nonzero components; the
    result holds the nonzero components of

        (d w)(e_0..e_p) = sum_j (-1)^j e_j . w(..no e_j..)
                        + sum_{i<j} (-1)^{i+j} w([e_i, e_j], ..no e_i, e_j..)
    """
    zero = chart.zero_field
    out = {}
    for idx in combinations(range(frame_size), p + 1):
        val = zero
        for jpos in range(p + 1):
            comp = cochain.get(idx[:jpos] + idx[jpos + 1:])
            if comp is not None:
                term = anchors[idx[jpos]].apply_to(comp)
                val = val + term if jpos % 2 == 0 else val - term
        for apos, bpos in combinations(range(p + 1), 2):
            rest = idx[:apos] + idx[apos + 1:bpos] + idx[bpos + 1:]
            outer = 1 if (apos + bpos) % 2 == 0 else -1
            for c, coeff in enumerate(structure[idx[apos]][idx[bpos]]):
                if coeff.is_zero:
                    continue
                sign, key = _sort_sign((c,) + rest)
                comp = cochain.get(key) if sign else None
                if comp is not None:
                    val = val + coeff * comp if sign * outer == 1 else val - coeff * comp
        if not val.is_zero:
            out[idx] = val
    return out


def _sharp(form, alpha):
    """The vector field sum_ij alpha_i M_ij dd_j: an operand's components
    contracted with the first index of a bilinear form's matrix M
    (``linalg.BilinearForm``), both on one chart."""
    _same_chart(form, alpha)
    chart = form.chart
    return VectorField(chart, [_dot(chart, zip(alpha.comps, col)) for col in zip(*form.matrix)])


def _det(chart, rows):
    """Determinant of a small ScalarField matrix by cofactor expansion."""
    n = len(rows)
    if n == 0:
        return ScalarField.one(chart)
    if n == 1:
        return rows[0][0]
    total = ScalarField.zero(chart)
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = rows[0][j] * _det(chart, minor)
        total = total + term if j % 2 == 0 else total - term
    return total


class _Linear:
    """Shared parts of VectorField and OneForm (n components)."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart, comps):
        comps = tuple(comps)
        if len(comps) != chart.dim:
            raise PoisgeoError(f"need {chart.dim} components, got {len(comps)}")
        for c in comps:
            if c.chart is not chart and c.chart != chart:
                raise ChartMismatch("component chart mismatch")
        self.chart = chart
        self.comps = comps

    @classmethod
    def zero(cls, chart):
        return cls(chart, (chart.zero_field,) * chart.dim)

    @classmethod
    def basis(cls, chart, i):
        chart.check_index(i)
        z, one = chart.zero_field, chart.one_field
        return cls(chart, tuple(one if j == i else z for j in range(chart.dim)))

    @property
    def is_zero(self):
        return all(c.is_zero for c in self.comps)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _same_chart(self, other)
        return type(self)(self.chart, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _same_chart(self, other)
        return type(self)(self.chart, tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self):
        return type(self)(self.chart, tuple(-a for a in self.comps))

    def __mul__(self, f):
        if isinstance(f, int):
            f = ScalarField.constant(self.chart, f)
        if not isinstance(f, ScalarField):
            return NotImplemented
        return type(self)(self.chart, tuple(f * a for a in self.comps))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.chart == other.chart
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((type(self).__name__, self.chart, self.comps))

    def _display(self, symbols):
        parts = [f"({c})*{s}" for c, s in zip(self.comps, symbols) if not c.is_zero]
        return " + ".join(parts) if parts else "0"


class VectorField(_Linear):
    """sum comps[i] * d/dx_i."""

    def apply_to(self, f):
        """Directional derivative X.f."""
        return f.derivative_along(self.comps)

    def as_pvector(self):
        return PVector(self.chart, 1, {(i,): c for i, c in enumerate(self.comps)})

    def __repr__(self):
        return self._display([f"d/d{nm}" for nm in self.chart.names])


class OneForm(_Linear):
    """sum comps[i] * dx_i."""

    def pair(self, X):
        """alpha(X)."""
        _same_chart(self, X)
        return _dot(self.chart, zip(self.comps, X.comps))

    __call__ = pair

    def as_pform(self):
        return PForm(self.chart, 1, {(i,): c for i, c in enumerate(self.comps)})

    def __repr__(self):
        return self._display([f"d{nm}" for nm in self.chart.names])


def _alternating(cls, owner, degree, components, chart=None):
    """A tensor from {increasing index tuple: ScalarField on the chart}.

    The trusted constructor of operator results, whose keys come from
    ``_sort_sign``, from validated operands or from ``owner.increasing``: it
    drops zero components and checks nothing else.  ``chart`` defaults to
    ``owner``, as for PForm and PVector.
    """
    out = cls.__new__(cls)
    out.owner = owner
    out.chart = owner if chart is None else chart
    out.degree = degree
    out.comps = {k: v for k, v in components.items() if not v.is_zero}
    return out


def _pullback(cls, form, rows):
    """The ``cls`` tensor (PForm or PVector) on form's chart whose component
    at each increasing coordinate tuple I is form evaluated on the arguments
    with component rows ``rows[i]``, i in I.  A degree-0 form's component is
    its scalar, the empty evaluation."""
    chart = form.chart
    comps = {idx: form._apply([rows[i] for i in idx]) for idx in chart.increasing[form.degree]}
    return _alternating(cls, chart, form.degree, comps)


class _Components:
    """An alternating tensor on a frame of size k, stored as ``comps``: its
    nonzero ScalarField components on increasing k-frame index tuples.

    ``owner`` is the frame: a chart (k = dim) for the coordinate tensors
    below, a ``foliation.FoliationSplit`` (k = rank, ts_frame tuples) for
    ``foliation.LeafwiseForm``.  It holds the index tuples per degree as
    ``increasing`` and ``increasing_set``; the components live on ``chart``.
    Degrees run over 0..k + 1; degree k + 1 is the zero space, which is where
    a bivector on a 1-dimensional chart lives.  Tensors of one kind combine
    only on equal owners (``ChartMismatch``); two splittings are equal only
    when they are the same object.
    """

    __slots__ = ("owner", "chart", "degree", "comps")

    def __init__(self, owner, degree, components):
        chart = owner if isinstance(owner, Chart) else owner.chart
        k = len(owner.increasing) - 2
        if not 0 <= degree <= k + 1:
            raise DegreeOverflow(f"degree {degree} outside 0..{k + 1}")
        comps = {}
        if isinstance(components, dict):
            increasing = owner.increasing_set[degree]
            for idx, val in components.items():
                idx = tuple(idx)
                if idx not in increasing:
                    raise PoisgeoError(f"index {idx} is not increasing in range")
                if not val.is_zero:
                    comps[idx] = val
        else:
            idxs = owner.increasing[degree]
            vals = list(components)
            if len(vals) != len(idxs):
                raise PoisgeoError("wrong component count")
            for idx, val in zip(idxs, vals):
                if not val.is_zero:
                    comps[idx] = val
        for v in comps.values():
            if v.chart is not chart and v.chart != chart:
                raise ChartMismatch("component chart mismatch")
        self.owner = owner
        self.chart = chart
        self.degree = degree
        self.comps = comps

    @classmethod
    def zero(cls, owner, degree):
        """The zero tensor of this degree on ``owner`` (a chart, or a splitting)."""
        return cls(owner, degree, {})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.owner is not other.owner and self.owner != other.owner:
            raise ChartMismatch(f"{self.owner} vs {other.owner}")
        if self.degree != other.degree:
            raise PoisgeoError("degree mismatch")
        out = dict(self.comps)
        for k, v in other.comps.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return _alternating(type(self), self.owner, self.degree, out, self.chart)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        comps = {k: -v for k, v in self.comps.items()}
        return _alternating(type(self), self.owner, self.degree, comps, self.chart)

    def __mul__(self, f):
        if isinstance(f, int):
            f = ScalarField.constant(self.chart, f)
        if not isinstance(f, ScalarField):
            return NotImplemented
        comps = {k: f * v for k, v in self.comps.items()}
        return _alternating(type(self), self.owner, self.degree, comps, self.chart)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.owner == other.owner
            and self.degree == other.degree
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash(
            (type(self).__name__, self.owner, self.degree, tuple(sorted(self.comps.items(), key=lambda kv: kv[0])))
        )

    def component(self, idx):
        """Component at a strictly increasing index tuple."""
        return self.comps.get(tuple(idx), self.chart.zero_field)

    def component_signed(self, idx):
        """Component at an arbitrary index tuple (0 on repeats)."""
        sign, key = _sort_sign(idx)
        z = self.chart.zero_field
        if sign == 0:
            return z
        c = self.comps.get(key, z)
        return c if sign == 1 else -c

    @property
    def is_zero(self):
        return not self.comps

    def _apply(self, rows):
        """Multilinear alternating evaluation given the argument component rows."""
        chart = self.chart
        dets = (
            (c, _det(chart, [[row[i] for i in idx] for row in rows]))
            for idx, c in self.comps.items()
        )
        return _dot(chart, dets)


class _Alternating(_Components):
    """Shared parts of PForm / PVector: alternating tensors on the coordinate frame."""

    __slots__ = ()

    def wedge(self, other):
        if type(other) is not type(self):
            raise PoisgeoError("wedge needs two objects of the same kind")
        _same_chart(self, other)
        p, q = self.degree, other.degree
        if p + q > self.chart.dim:
            raise DegreeOverflow(f"wedge degree {p + q} exceeds dimension {self.chart.dim}")
        out = {}
        for ia, ca in self.comps.items():
            for ib, cb in other.comps.items():
                sign, key = _sort_sign(ia + ib)
                if sign == 0:
                    continue
                term = ca * cb if sign == 1 else -(ca * cb)
                s = out.get(key)
                out[key] = term if s is None else s + term
        return _alternating(type(self), self.chart, p + q, out)

    __xor__ = wedge

    def contract_first(self, cov, rest_indices):
        """Evaluate with a general object in slot 0 and coordinate slots after.

        ``cov`` is a OneForm for PVector, a VectorField for PForm.
        """
        sign, key = _sort_sign(rest_indices)
        if sign == 0:
            return self.chart.zero_field
        terms = (
            (cm, self.component_signed((m,) + key))
            for m, cm in enumerate(cov.comps)
            if not cm.is_zero
        )
        out = _dot(self.chart, terms)
        return out if sign == 1 else -out

    def _interior_first(self, cov):
        """Contraction in the first slot with a OneForm/VectorField."""
        if self.degree == 0:
            raise DegreeUnderflow("cannot contract a degree-0 object")
        out = {}
        for idx, c in self.comps.items():
            for t, i in enumerate(idx):
                w = cov.comps[i]
                if w.is_zero:
                    continue
                key = idx[:t] + idx[t + 1:]
                term = w * c if t % 2 == 0 else -(w * c)
                s = out.get(key)
                out[key] = term if s is None else s + term
        return _alternating(type(self), self.chart, self.degree - 1, out)

    def _repr_symbols(self, fmt):
        names = self.chart.names
        parts = []
        for idx in self.chart.increasing[self.degree]:
            c = self.comps.get(idx)
            if c is None:
                continue
            sym = "^".join(fmt.format(names[i]) for i in idx) or "1"
            parts.append(f"({c})*{sym}")
        return " + ".join(parts) if parts else "0"


class PForm(_Alternating):
    """Differential p-form in coordinates."""

    def apply(self, vectors):
        vectors = list(vectors)
        if len(vectors) != self.degree:
            raise PoisgeoError("argument count must match the degree")
        return self._apply([X.comps for X in vectors])

    def as_oneform(self):
        if self.degree != 1:
            raise PoisgeoError("not a 1-form")
        return OneForm(self.chart, tuple(self.component((i,)) for i in range(self.chart.dim)))

    def __repr__(self):
        return self._repr_symbols("d{}")


class PVector(_Alternating):
    """p-multivector field in coordinates."""

    def apply(self, forms):
        forms = list(forms)
        if len(forms) != self.degree:
            raise PoisgeoError("argument count must match the degree")
        return self._apply([a.comps for a in forms])

    def as_vector(self):
        if self.degree != 1:
            raise PoisgeoError("not a 1-vector")
        return VectorField(self.chart, tuple(self.component((i,)) for i in range(self.chart.dim)))

    def __repr__(self):
        return self._repr_symbols("d/d{}")


def scalar_as_pform(f):
    return PForm(f.chart, 0, {(): f})


def wedge(a, b):
    """Graded-antisymmetric product of two forms or two multivectors."""
    return a.wedge(b)


def interior_vector(X, omega):
    """i_X omega: contraction of a p-form with a vector field in slot one."""
    _same_chart(X, omega)
    if not isinstance(omega, PForm):
        raise PoisgeoError("interior_vector expects a PForm")
    return omega._interior_first(X)


def interior_form(alpha, Q):
    """i_alpha Q: contraction of a p-multivector with a 1-form in slot one."""
    _same_chart(alpha, Q)
    if not isinstance(Q, PVector):
        raise PoisgeoError("interior_form expects a PVector")
    return Q._interior_first(alpha)


def exterior_d(omega):
    """Coordinate exterior derivative; accepts a ScalarField as a 0-form.

    d of a top-degree form is the zero (dim + 1)-form, the zero space, so
    every contraction of it is the zero form of omega's degree.
    """
    if isinstance(omega, ScalarField):
        omega = scalar_as_pform(omega)
    chart = omega.chart
    n = chart.dim
    if omega.degree > n:
        raise DegreeOverflow(f"d of a degree-{omega.degree} form in dimension {n}")
    out = {}
    for idx, c in omega.comps.items():
        for m in range(n):
            if m in idx:
                continue
            dc = c.diff(m)
            if dc.is_zero:
                continue
            sign, key = _sort_sign((m,) + idx)
            term = dc if sign == 1 else -dc
            s = out.get(key)
            out[key] = term if s is None else s + term
    return _alternating(PForm, chart, omega.degree + 1, out)


def interior_d(X, omega):
    """i_X d omega; zero when omega has top degree, so that d omega vanishes."""
    return interior_vector(X, exterior_d(omega))


def lie_bracket(X, Y):
    """Commutator [X, Y] of vector fields."""
    _same_chart(X, Y)
    return VectorField(
        X.chart,
        tuple(X.apply_to(yc) - Y.apply_to(xc) for xc, yc in zip(X.comps, Y.comps)),
    )


def lie_derivative(X, omega):
    """L_X omega for a p-form, via Cartan's formula i_X d + d i_X."""
    if isinstance(omega, ScalarField):
        return X.apply_to(omega)
    _same_chart(X, omega)
    if omega.degree == 0:
        return scalar_as_pform(X.apply_to(omega.component(())))
    return exterior_d(interior_vector(X, omega)) + interior_d(X, omega)


def lie_derivative_oneform(X, alpha):
    return lie_derivative(X, alpha.as_pform()).as_oneform()


def lie_derivative_bivector(X, B):
    """L_X B for a bivector, by the Leibniz expansion on coordinate forms.

    Componentwise: (L_X B)(dx_i, dx_j) = X.B(dx_i, dx_j)
                    - B(L_X dx_i, dx_j) - B(dx_i, L_X dx_j),
    with L_X dx_i = d(X^i).
    """
    _same_chart(X, B)
    if not (isinstance(B, PVector) and B.degree == 2):
        raise PoisgeoError("lie_derivative_bivector expects a bivector PVector")
    chart = X.chart
    n = chart.dim
    dX = [exterior_d(X.comps[i]).as_oneform() for i in range(n)]
    out = {}
    for i, j in chart.increasing[2]:
        val = X.apply_to(B.component((i, j)))
        val = val - B.contract_first(dX[i], (j,))
        out[(i, j)] = val + B.contract_first(dX[j], (i,))
    return _alternating(PVector, chart, 2, out)
