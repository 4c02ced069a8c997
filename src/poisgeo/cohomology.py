"""Truncated Poisson cohomology and the cochain-level comparison maps.

All dimensions here are windowed: multivector coefficients are polynomials
of bounded total degree, the differential is assembled as a sparse exact
rational matrix between such windows, and ranks come from sparse
fraction-free elimination over Z.  Results are therefore exact integers,
reproducible from the window parameters, and never claims about the smooth
cohomology.
"""

from itertools import combinations
from operator import add

from .errors import (
    InternalInconsistency,
    NonPolynomialBivector,
    NotBasic,
    PoisgeoError,
    WindowTooSmall,
)
from .foliation import (
    LeafwiseForm,
    _ts_structure_coefficients,
    basic_form_family,
    casimir_monomials,
    leafwise_d,
)
from .kernel import grlex_key
from .linalg import RationalMatrix
from .polyops import monomials_upto
from .scalar import ScalarField
from .tensor import OneForm, PForm, PVector, interior_d, interior_form, interior_vector


def _monomials_upto(n, d):
    """Exponent tuples of total degree <= d in graded-lex order."""
    return sorted(monomials_upto(n, d), key=grlex_key)


class GradedBasis:
    """Ordered basis of p-multivectors with polynomial coefficients <= degree d.

    Elements are (monomial, multi-index) pairs ordered by graded-lex monomial
    then multi-index; size C(n, p) * C(n + d, d).
    """

    __slots__ = ("chart", "degree", "coeff_bound", "elements", "_index")

    def __init__(self, chart, degree, coeff_bound):
        n = chart.dim
        if not 0 <= degree <= n:
            raise PoisgeoError(f"degree {degree} outside 0..{n}")
        if coeff_bound < 0:
            raise PoisgeoError("coefficient degree bound must be >= 0")
        idxs = list(combinations(range(n), degree))
        self.chart = chart
        self.degree = degree
        self.coeff_bound = coeff_bound
        self.elements = [
            (mono, idx) for mono in _monomials_upto(n, coeff_bound) for idx in idxs
        ]
        self._index = {elt: k for k, elt in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def index_of(self, mono, idx):
        return self._index[(mono, idx)]

    def element_pvector(self, k):
        mono, idx = self.elements[k]
        f = ScalarField(self.chart, {mono: 1}, self.chart.one_poly)
        return PVector(self.chart, self.degree, {idx: f})

    def coordinates_of(self, Q):
        """Column of Q in this basis; raises WindowTooSmall on overflow."""
        col = [0] * len(self.elements)
        for k, coef in self.sparse_coordinates_of(Q).items():
            col[k] = coef
        return col

    def sparse_coordinates_of(self, Q):
        """The nonzero coordinates of Q in this basis, as {index: coefficient}."""
        if Q.degree != self.degree:
            raise PoisgeoError("degree mismatch")
        for field in Q.comps.values():
            if not field.is_polynomial:
                raise NonPolynomialBivector(
                    "windowed cohomology needs polynomial coefficients"
                )
        return self.sparse_column(_terms(Q))

    def sparse_column(self, terms):
        """{(monomial, multi-index): coefficient} as {index: coefficient}, zeros dropped."""
        col = {}
        for key, coef in terms.items():
            if coef:
                k = self._index.get(key)
                if k is None:
                    raise WindowTooSmall(
                        f"coefficient degree {sum(key[0])} exceeds the window bound "
                        f"{self.coeff_bound}"
                    )
                col[k] = coef
        return col

    def from_coordinates(self, col):
        comps = {}
        for k, c in enumerate(col):
            if c:
                mono, idx = self.elements[k]
                f = ScalarField(
                    self.chart, {mono: c.numerator}, {(0,) * self.chart.dim: c.denominator}
                )
                comps[idx] = comps.get(idx, ScalarField.zero(self.chart)) + f
        return PVector(self.chart, self.degree, comps)


def degree_shift(pi):
    """Worst-case increase in coefficient degree under d_pi, cached on pi."""
    if pi._degree_shift is None:
        if not pi.is_polynomial():
            raise NonPolynomialBivector("d_pi windows need polynomial bivector entries")
        pi._degree_shift = pi.max_entry_degree() - 1
    return pi._degree_shift


def _terms(Q):
    """{(monomial, multi-index): coefficient} of a polynomial multivector."""
    return {
        (mono, idx): coef
        for idx, field in Q.comps.items()
        for mono, coef in field.poly_terms().items()
    }


def _add_shifted(acc, mono, factor, terms):
    """acc += factor * x^mono * terms."""
    for (tmono, idx), coef in terms.items():
        key = (tuple(map(add, mono, tmono)), idx)
        acc[key] = acc.get(key, 0) + factor * coef


def assemble_dpi_matrix(pi, p, d_in, d_out):
    """Matrix of d_pi from the (p, d_in) window into the (p+1, d_out) window.

    Columns come from the Leibniz rule

        d_pi(x^m dd_I) = x^m d_pi(dd_I) + sum_a m_a x^(m - e_a) d_pi(x_a) ^ dd_I,

    which holds for every bivector, Poisson or not: in d_pi's formula the
    anchor term is a derivation in the coefficient and the bracket term is
    linear over functions.  So d_pi runs only on the C(n, p) constant frame
    multivectors dd_I and on the n coordinates, and each column is a sum of
    their terms shifted by monomials.
    """
    chart = pi.chart
    n = chart.dim
    shift = degree_shift(pi)
    if d_out < d_in + shift:
        raise WindowTooSmall(
            f"target degree bound {d_out} cannot hold the image (need {d_in + shift})"
        )
    source = GradedBasis(chart, p, d_in)
    target = GradedBasis(chart, p + 1, d_out)
    one = ScalarField.one(chart)
    frames = {idx: PVector(chart, p, {idx: one}) for idx in combinations(range(n), p)}
    d_coords = [pi.d_pi(ScalarField.coordinate(chart, a)) for a in range(n)]
    d_frames = {idx: _terms(pi.d_pi(F)) for idx, F in frames.items()}
    leibniz = {idx: [_terms(V.wedge(F)) for V in d_coords] for idx, F in frames.items()}
    cols = []
    for mono, idx in source.elements:
        acc = {}
        _add_shifted(acc, mono, 1, d_frames[idx])
        for a, m_a in enumerate(mono):
            if m_a:
                lower = mono[:a] + (m_a - 1,) + mono[a + 1:]
                _add_shifted(acc, lower, m_a, leibniz[idx][a])
        cols.append(target.sparse_column(acc))
    return RationalMatrix.from_columns(cols, len(target)), source, target


def truncated_betti(pi, p, d, with_representatives=False):
    """dim ker(d_pi | degree p, coeffs <= d) minus the matching image rank.

    The image is taken from the (p-1)-window whose d_pi lands exactly inside
    coefficient degree d, so kernel and image live in the same space.
    Returns a report dict with the window bookkeeping.  The kernel is only
    counted (columns minus rank) unless its representatives are asked for.
    """
    chart = pi.chart
    shift = degree_shift(pi)
    if p == chart.dim:
        # top degree: d_pi lands in the zero space, so every column is a cocycle
        basis = GradedBasis(chart, p, d)
        mat = RationalMatrix.zero(0, len(basis))
    else:
        mat, basis, _ = assemble_dpi_matrix(pi, p, d, max(d + shift, 0))
    if with_representatives:
        kernel_cols = mat.kernel_basis()
        kernel_dim = len(kernel_cols)
    else:
        kernel_dim = mat.cols - mat.rank()
    d_pre = d - shift
    if p == 0 or d_pre < 0:
        image_rank = 0
        image_matrix = None
    else:
        image_matrix, _, _ = assemble_dpi_matrix(pi, p - 1, d_pre, d)
        image_rank = image_matrix.rank()
    report = {
        "p": p,
        "window_degree": d,
        "preimage_degree": None if p == 0 else d_pre,
        "kernel_dim": kernel_dim,
        "image_rank": image_rank,
        "betti": kernel_dim - image_rank,
    }
    if with_representatives:
        report["representatives"] = _representatives(basis, kernel_cols, image_matrix)
    return report


def _representatives(basis, kernel_cols, image_matrix):
    """Kernel vectors extending the image to a basis of the cocycles."""
    if image_matrix is None:
        image_matrix = RationalMatrix.zero(len(basis), 0)
    return [basis.from_coordinates(v) for v in image_matrix.extend_column_space(kernel_cols)]


def dpi_squared_matrix(pi, p, d):
    """The composed matrix d_pi . d_pi out of the (p, d) window (exact product)."""
    shift = degree_shift(pi)
    mid = max(d + shift, 0)
    outer = max(mid + shift, 0)
    m1, _, _ = assemble_dpi_matrix(pi, p, d, mid)
    m2, _, _ = assemble_dpi_matrix(pi, p + 1, mid, outer)
    return m2 @ m1


# -- the splitting of multivectors -------------------------------------------


def split_multivector(Q, split):
    """Q = Q0 + Q1 with i_kappa Q0 = 0 for kernel kappa and Q1 zero on perp tuples."""
    chart = split.chart
    n = chart.dim
    r = split.rank
    p = Q.degree
    if p == 0:
        return Q, PVector.zero(chart, 0)
    co = split.coframe()
    frame = [X.as_pvector() for X in split.ts_frame + split.h_frame]
    part0 = PVector.zero(chart, p)
    part1 = PVector.zero(chart, p)
    for idx in combinations(range(n), p):
        coeff = Q.apply([co[i] for i in idx])
        if coeff.is_zero:
            continue
        term = frame[idx[0]]
        for i in idx[1:]:
            term = term.wedge(frame[i])
        term = coeff * term
        if all(i < r for i in idx):
            part0 = part0 + term
        else:
            part1 = part1 + term
    if part0 + part1 != Q:
        raise InternalInconsistency("multivector splitting does not add back up")
    return part0, part1


def split_residuals(Q0, Q1, split):
    """Verification data: kernel contractions of Q0 and perp evaluations of Q1."""
    res0 = [interior_form(kappa, Q0) for kappa in split.kernel_frame]
    res1 = []
    p = Q1.degree
    for idx in combinations(range(split.rank), p):
        res1.append(Q1.apply([split.perp_frame[i] for i in idx]))
    return res0, res1


def dpi_preserves_split(pi, g, split, p, d):
    """Check d_pi maps each summand of the (p, d) window into itself.

    Returns {"preserved": bool, "witness": (mono, idx, side) or None}.
    At p = dim the differential lands in the zero space, so preservation
    is trivial.
    """
    if p >= split.chart.dim:
        return {"preserved": True, "witness": None}
    basis = GradedBasis(split.chart, p, d)
    for k in range(len(basis)):
        B = basis.element_pvector(k)
        B0, B1 = split_multivector(B, split)
        if not B0.is_zero:
            _, bad = split_multivector(pi.d_pi(B0), split)
            if not bad.is_zero:
                return {"preserved": False, "witness": (*basis.elements[k], "part0")}
        if not B1.is_zero:
            good, _ = split_multivector(pi.d_pi(B1), split)
            if not good.is_zero:
                return {"preserved": False, "witness": (*basis.elements[k], "part1")}
    return {"preserved": True, "witness": None}


# -- comparison maps ----------------------------------------------------------


def pi_pushforward(split, omega):
    """Leafwise form -> multivector: (pi w)(a_1..a_p) = w(pi(a_1), .., pi(a_p))."""
    chart = split.chart
    n = chart.dim
    r = split.rank
    p = omega.degree
    if p == 0:
        return PVector(chart, 0, {(): omega.component(())})
    sharp_rows = []
    for i in range(n):
        coeffs = split.decompose_vector(split.pi.sharp_basis(i))
        for extra in coeffs[r:]:
            if not extra.is_zero:
                raise InternalInconsistency("pi image leaves the leaf tangents")
        sharp_rows.append(coeffs[:r])
    comps = {}
    for idx in combinations(range(n), p):
        val = omega.apply_frame_coeffs([sharp_rows[i] for i in idx])
        if not val.is_zero:
            comps[idx] = val
    return PVector(chart, p, comps)


def pushforward_naturality_residual(split, omega):
    """pi(d_F w) - d_pi(pi(w)); identically zero by construction of d_pi."""
    lhs = pi_pushforward(split, leafwise_d(split, omega))
    rhs = split.pi.d_pi(pi_pushforward(split, omega))
    return lhs - rhs


def is_basic_pform(split, omega):
    """i_X w = 0 and i_X dw = 0 for X in the leaf frame; returns a witness."""
    if omega.degree == 0:
        f = omega.component(())
        for t in split.ts_frame:
            if not t.apply_to(f).is_zero:
                return False, f"X.f != 0 for X = {t!r}"
        return True, None
    for t in split.ts_frame:
        if not interior_vector(t, omega).is_zero:
            return False, f"i_X omega != 0 for X = {t!r}"
        if not interior_d(t, omega).is_zero:
            return False, f"i_X d omega != 0 for X = {t!r}"
    return True, None


def sharp_basic(split, omega):
    """Basic p-form -> multivector via the metric: (#w)(a_1..) = w(#a_1, ..)."""
    ok, witness = is_basic_pform(split, omega)
    if not ok:
        raise NotBasic(witness)
    chart = split.chart
    n = chart.dim
    p = omega.degree
    if p == 0:
        return PVector(chart, 0, {(): omega.component(())})
    sharps = [split.g.sharp(OneForm.basis(chart, i)) for i in range(n)]
    comps = {}
    for idx in combinations(range(n), p):
        val = omega.apply([sharps[i] for i in idx])
        if not val.is_zero:
            comps[idx] = val
    return PVector(chart, p, comps)


def basic_pform_family(pi, g, p, max_degree):
    """Wedges of p kernel-frame forms times Casimir monomials, filtered basic.

    The p = 0 family is the Casimir monomials themselves (as 0-forms).
    """
    chart = pi.chart
    monos = casimir_monomials(pi, max_degree)
    if p == 0:
        return [PForm(chart, 0, {(): m}) for m in monos]
    kernel_vecs = pi.field_matrix().kernel_basis()
    kappas = [OneForm(chart, v).as_pform() for v in kernel_vecs]
    out = []
    for combo in combinations(range(len(kappas)), p):
        w = kappas[combo[0]]
        for i in combo[1:]:
            w = w.wedge(kappas[i])
        for m in monos:
            out.append(m * w)
    return out


def leafwise_degree_shift(split, structure):
    """Worst-case coefficient degree increase of d_F on polynomial windows."""
    tdeg = 0
    for t in split.ts_frame:
        for c in t.comps:
            if not c.is_polynomial:
                raise NonPolynomialBivector("leafwise windows need a polynomial leaf frame")
            tdeg = max(tdeg, c.total_degree())
    cdeg = -1
    for row in structure:
        for cell in row:
            for c in cell:
                if not c.is_polynomial:
                    raise NonPolynomialBivector(
                        "leafwise windows need polynomial structure functions"
                    )
                cdeg = max(cdeg, c.total_degree())
    return max(tdeg - 1, cdeg)


class LeafBasis:
    """Windowed basis of leafwise p-forms: monomial x increasing frame tuple."""

    __slots__ = ("split", "degree", "coeff_bound", "elements", "_index")

    def __init__(self, split, degree, coeff_bound):
        r = split.rank
        idxs = list(combinations(range(r), degree))
        self.split = split
        self.degree = degree
        self.coeff_bound = coeff_bound
        self.elements = [
            (mono, idx)
            for mono in _monomials_upto(split.chart.dim, coeff_bound)
            for idx in idxs
        ]
        self._index = {elt: k for k, elt in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def element(self, k):
        mono, idx = self.elements[k]
        f = ScalarField(self.split.chart, {mono: 1}, self.split.chart.one_poly)
        return LeafwiseForm(self.split, self.degree, {idx: f})

    def coordinates_of(self, omega):
        col = [0] * len(self.elements)
        for idx, field in omega.comps.items():
            if not field.is_polynomial:
                raise NonPolynomialBivector("leafwise window needs polynomial coefficients")
            for mono, coef in field.poly_terms().items():
                key = (mono, idx)
                if key not in self._index:
                    raise WindowTooSmall(
                        f"leafwise coefficient degree {sum(mono)} exceeds {self.coeff_bound}"
                    )
                col[self._index[key]] = coef
        return col

    def from_coordinates(self, col):
        comps = {}
        chart = self.split.chart
        for k, c in enumerate(col):
            if c:
                mono, idx = self.elements[k]
                f = ScalarField(chart, {mono: c.numerator}, {(0,) * chart.dim: c.denominator})
                comps[idx] = comps.get(idx, ScalarField.zero(chart)) + f
        return LeafwiseForm(self.split, self.degree, comps)


def _leafwise_matrix(split, structure, p, d_in, d_out):
    """Matrix of d_F from the (p, d_in) leafwise window into (p+1, d_out), and its source."""
    source = LeafBasis(split, p, d_in)
    target = LeafBasis(split, p + 1, d_out)
    cols = [
        target.coordinates_of(leafwise_d(split, source.element(k), structure))
        for k in range(len(source))
    ]
    return RationalMatrix.from_columns(cols, len(target)), source


def leafwise_truncated_betti(split, p, d, structure=None):
    """Windowed leafwise cohomology dimension, mirroring truncated_betti."""
    if structure is None:
        structure = _ts_structure_coefficients(split)
    shift = leafwise_degree_shift(split, structure)

    if p == split.rank:
        kernel_dim = len(LeafBasis(split, p, d))
    else:
        mat, _ = _leafwise_matrix(split, structure, p, d, max(d + shift, 0))
        kernel_dim = mat.cols - mat.rank()
    d_pre = d - shift
    if p == 0 or d_pre < 0:
        image_rank = 0
    else:
        mat0, _ = _leafwise_matrix(split, structure, p - 1, d_pre, d)
        image_rank = mat0.rank()
    return {
        "p": p,
        "window_degree": d,
        "kernel_dim": kernel_dim,
        "image_rank": image_rank,
        "betti": kernel_dim - image_rank,
    }


def thm31_cochain_report(pi, g, split, p, d):
    """Cochain-level evidence for the basic+leafwise embedding into H_pi.

    (a) every enumerated basic p-form maps to a d_pi-closed multivector
        through the metric identification;
    (b) every d_F-closed windowed leafwise p-form pushes forward to a
        d_pi-closed multivector;
    (c) for p = 1, the windowed dimensions: betti_pi == dim(basic window)
        + betti_leafwise.  Reported as a flag, not asserted, so windows
        where truncation effects break the count are visible.
    """
    report = {"p": p, "window_degree": d}
    closed = []
    for omega in basic_pform_family(pi, g, p, d):
        image = sharp_basic(split, omega)
        closed.append(pi.d_pi(image).is_zero)
    report["basic_count"] = len(closed)
    report["basic_forms_closed"] = all(closed)

    structure = _ts_structure_coefficients(split)
    shift = leafwise_degree_shift(split, structure)
    if p == split.rank:
        source = LeafBasis(split, p, d)
        mat = RationalMatrix.zero(0, len(source))
    else:
        mat, source = _leafwise_matrix(split, structure, p, d, max(d + shift, 0))
    kernel_cols = mat.kernel_basis()
    pushed_closed = []
    for vec in kernel_cols:
        omega = source.from_coordinates(vec)
        image = pi_pushforward(split, omega)
        pushed_closed.append(pi.d_pi(image).is_zero)
    report["leaf_cocycle_count"] = len(pushed_closed)
    report["pushforwards_closed"] = all(pushed_closed)

    if p == 1:
        betti_pi = truncated_betti(pi, 1, d)["betti"]
        betti_leaf = leafwise_truncated_betti(split, 1, d, structure)["betti"]
        family = [
            f
            for f in basic_form_family(pi, g, d)
            if all(c.is_polynomial and c.total_degree() <= d for c in f.comps)
        ]
        if family:
            rows = []
            monos = _monomials_upto(pi.chart.dim, d)
            mono_index = {m: i for i, m in enumerate(monos)}
            n = pi.chart.dim
            for f in family:
                row = [0] * (n * len(monos))
                for i, c in enumerate(f.comps):
                    if not c.is_zero:
                        for mono, coef in c.poly_terms().items():
                            row[i * len(monos) + mono_index[mono]] = coef
                rows.append(row)
            basic_dim = RationalMatrix(rows).rank()
        else:
            basic_dim = 0
        report["betti_pi"] = betti_pi
        report["betti_leafwise"] = betti_leaf
        report["basic_window_dim"] = basic_dim
        report["dimension_match"] = betti_pi == basic_dim + betti_leaf
    else:
        report["dimension_match"] = None
    return report
