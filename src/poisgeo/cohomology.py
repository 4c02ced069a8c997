"""Truncated Poisson cohomology and the cochain-level comparison maps.

All dimensions here are windowed: multivector coefficients are polynomials
of bounded total degree, the differential is assembled as a sparse exact
rational matrix between such windows, and ranks come from sparse
fraction-free elimination over Z.  Results are therefore exact integers,
reproducible from the window parameters, and never claims about the smooth
cohomology.

d_pi and the leafwise d_F are one Chevalley-Eilenberg differential, so both
complexes share one window basis (``GradedBasis`` and ``LeafBasis`` only say
what a coordinate vector stands for), one Leibniz-rule assembler and one
kernel-minus-image count (``WindowComplex``).  A complex is built from its
Lie algebroid's anchors and brackets: pi_sharp(dx_a) and the Koszul
brackets of the coordinate coframe (``Bivector.cotangent_algebroid``) for
d_pi, the leaf frame and its structure functions for d_F.  The d_pi complex
depends on pi alone, so each bivector keeps one, and every d_pi window on it
reuses the frame differentials already taken: a memo bounded by the frame
tuples of the windows asked for.
"""

from functools import lru_cache
from itertools import combinations
from math import comb
from operator import add

from .errors import (
    InternalInconsistency,
    NonPolynomialBivector,
    NotBasic,
    PoisgeoError,
    WindowTooLarge,
    WindowTooSmall,
)
from .foliation import (
    LeafwiseForm,
    _ts_structure_coefficients,
    basic_form_family,
    basic_pform_family,
    leafwise_d,
)
from .kernel import grlex_key
from .linalg import RationalMatrix, sparse_rank
from .polyops import monomials_upto
from .scalar import ScalarField
from .tensor import (
    PVector,
    _pullback,
    _sort_sign,
    ce_differential,
    interior_d,
    interior_form,
    interior_vector,
)


# The most elements a window may have.  The largest window of the tests and
# the benchmark (6-D, degree 3, coefficient degree 4) has 4,200; a window
# this size holds about 28 MB of shape before any matrix is assembled.
MAX_WINDOW = 200_000

# Window shapes kept: a pass of the benchmark's windows uses 37, and a 6-D
# degree-8 shape (about 60k elements) takes about 8.5 MB.
_SHAPE_CACHE_SIZE = 64


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _window_shape(dim, frame_size, degree, coeff_bound):
    """(frames, elements, index) of a window, shared by every window of its shape."""
    frames = tuple(combinations(range(frame_size), degree))
    monos = sorted(monomials_upto(dim, coeff_bound), key=grlex_key)
    elements = tuple((mono, idx) for mono in monos for idx in frames)
    return frames, elements, {elt: k for k, elt in enumerate(elements)}


class _Window:
    """Ordered basis of a window of polynomial cochains on a frame.

    Elements are (monomial, increasing frame tuple) pairs, ordered by
    graded-lex monomial of total degree <= coeff_bound, then frame tuple;
    size C(frame size, degree) * C(n + d, d).  ``_cochain`` wraps components.
    Degree frame size + 1 is the zero space, the target of the differential
    at the top degree.  ``frames``, ``elements`` and the index depend only on
    the shape and are shared between windows (``_window_shape``).
    """

    __slots__ = ("chart", "degree", "coeff_bound", "frames", "elements", "_index")

    def __init__(self, chart, frame_size, degree, coeff_bound):
        if coeff_bound < 0:
            raise PoisgeoError("coefficient degree bound must be >= 0")
        if not 0 <= degree <= frame_size + 1:
            raise PoisgeoError(f"degree {degree} outside 0..{frame_size + 1}")
        n = chart.dim
        size = comb(frame_size, degree) * comb(n + coeff_bound, n)
        if size > MAX_WINDOW:
            raise WindowTooLarge(
                f"the degree-{degree} window of coefficient degree {coeff_bound} has "
                f"C({frame_size}, {degree}) * C({n + coeff_bound}, {n}) = {size} elements, "
                f"more than {MAX_WINDOW}"
            )
        self.chart = chart
        self.degree = degree
        self.coeff_bound = coeff_bound
        self.frames, self.elements, self._index = _window_shape(
            chart.dim, frame_size, degree, coeff_bound
        )

    def __len__(self):
        return len(self.elements)

    def element(self, k):
        mono, idx = self.elements[k]
        return self._cochain({idx: ScalarField(self.chart, {mono: 1}, self.chart.one_poly)})

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
        return self.sparse_column(_terms(Q.comps))

    def sparse_column(self, terms):
        """{(monomial, frame tuple): coefficient} as {index: coefficient}, zeros dropped."""
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
        chart = self.chart
        comps = {}
        for k, c in enumerate(col):
            if c:
                mono, idx = self.elements[k]
                f = ScalarField(chart, {mono: c.numerator}, {(0,) * chart.dim: c.denominator})
                comps[idx] = comps.get(idx, ScalarField.zero(chart)) + f
        return self._cochain(comps)


class GradedBasis(_Window):
    """Window of p-multivectors with polynomial coefficients <= degree d."""

    __slots__ = ()

    def __init__(self, chart, degree, coeff_bound):
        super().__init__(chart, chart.dim, degree, coeff_bound)

    def _cochain(self, comps):
        return PVector(self.chart, self.degree, comps)

    element_pvector = _Window.element


class LeafBasis(_Window):
    """Window of leafwise p-forms: monomial x increasing ts_frame tuple."""

    __slots__ = ("split",)

    def __init__(self, split, degree, coeff_bound):
        self.split = split
        super().__init__(split.chart, split.rank, degree, coeff_bound)

    def _cochain(self, comps):
        return LeafwiseForm(self.split, self.degree, comps)


def _terms(comps):
    """{(monomial, frame tuple): coefficient} of polynomial cochain components."""
    return {
        (mono, idx): coef
        for idx, field in comps.items()
        for mono, coef in field.poly_terms().items()
    }


def _add_shifted(acc, mono, factor, terms):
    """acc += factor * x^mono * terms."""
    for (tmono, idx), coef in terms.items():
        key = (tuple(map(add, mono, tmono)), idx)
        acc[key] = acc.get(key, 0) + factor * coef


def _wedge_frame(terms, idx):
    """The terms of V ^ e_idx for a degree-1 cochain V given by its terms."""
    out = {}
    for (mono, (c,)), coef in terms.items():
        sign, key = _sort_sign((c,) + idx)
        if sign:
            out[(mono, key)] = sign * coef
    return out


class WindowComplex:
    """The windowed CE complex of a Lie algebroid with polynomial data.

    The algebroid is given on a frame e_0..e_{k-1} as ``tensor.ce_differential``
    reads it: e_a acts on functions by ``anchors[a]`` and [e_a, e_b] has the
    coefficients ``structure[a][b]`` (a < b).  ``basis(p, bound)`` builds a
    window and ``shift`` is the worst-case increase in coefficient degree
    (``_ce_shift``), read off the anchors and brackets.
    The differentials of the coordinates are read off the anchors, the p = 0
    case of the CE formula: d(x_a)(e_b) = anchors[b] . x_a, the a-th
    component of the b-th anchor.  ``columns`` keeps, per frame tuple I of
    the windows asked for, d(e_I) and the wedges d(x_a) ^ e_I, so a complex
    computes each once over its lifetime; they are read, never mutated.
    """

    __slots__ = ("chart", "basis", "anchors", "structure", "shift", "d_coords", "_frame_terms")

    def __init__(self, chart, basis, anchors, structure):
        self.chart = chart
        self.basis = basis
        self.anchors = anchors
        self.structure = structure
        self.shift = _ce_shift(anchors, structure)
        self.d_coords = [
            _terms({(b,): X.comps[a] for b, X in enumerate(anchors) if not X.comps[a].is_zero})
            for a in range(chart.dim)
        ]
        # {frame tuple I: (terms of d(e_I), [terms of d(x_a) ^ e_I for each a])}
        self._frame_terms = {}

    def d_frame(self, idx):
        """The terms of d(e_idx), the CE formula on a constant frame cochain."""
        e_idx = {idx: self.chart.one_field}
        k = len(self.anchors)
        return _terms(ce_differential(self.chart, self.anchors, self.structure, e_idx, len(idx), k))

    def columns(self, source, target):
        """The columns of d between two windows, as sparse {index: value} dicts,
        from the Leibniz rule

            d(x^m e_I) = x^m d(e_I) + sum_a m_a x^(m - e_a) d(x_a) ^ e_I,

        which holds for every anchor and bracket, Jacobi or not: the anchor
        term is a derivation in the coefficient and the bracket term is
        linear over functions.  So the CE formula runs only on the C(k, p)
        constant frame cochains e_I, where its anchor terms vanish.
        """
        memo = self._frame_terms
        for idx in source.frames:
            if idx not in memo:
                memo[idx] = self.d_frame(idx), [_wedge_frame(t, idx) for t in self.d_coords]
        cols = []
        for mono, idx in source.elements:
            d_frame, leibniz = memo[idx]
            acc = {}
            _add_shifted(acc, mono, 1, d_frame)
            for a, m_a in enumerate(mono):
                if m_a:
                    lower = mono[:a] + (m_a - 1,) + mono[a + 1:]
                    _add_shifted(acc, lower, m_a, leibniz[a])
            cols.append(target.sparse_column(acc))
        return cols

    def matrix(self, source, target):
        """Matrix of d between two windows (``columns``)."""
        return RationalMatrix.from_columns(self.columns(source, target), len(target))

    def assemble(self, p, d_in, d_out):
        """(matrix, source, target) of d from the (p, d_in) window into (p+1, d_out)."""
        if d_out < d_in + self.shift:
            raise WindowTooSmall(
                f"target degree bound {d_out} cannot hold the image (need {d_in + self.shift})"
            )
        source = self.basis(p, d_in)
        target = self.basis(p + 1, d_out)
        return self.matrix(source, target), source, target

    def image_window(self, basis):
        """The window that holds d of every element of ``basis``."""
        return self.basis(basis.degree + 1, max(basis.coeff_bound + self.shift, 0))

    def cocycle_matrix(self, basis):
        """d out of a window into the window that holds its image."""
        return self.matrix(basis, self.image_window(basis))

    def betti(self, p, d, with_representatives=False):
        """dim ker(d | degree p, coeffs <= d) minus the matching image rank.

        The image is taken from the (p-1)-window whose d lands exactly inside
        coefficient degree d, so kernel and image live in the same space.  The
        kernel is only counted (columns minus rank) unless its representatives,
        the cocycles completing the image, are asked for; the counts take the
        ranks of the assembled columns as they are (``linalg.sparse_rank``).
        """
        k = len(self.anchors)
        if not 0 <= p <= k:
            raise PoisgeoError(f"p = {p} outside 0..{k}")
        basis = self.basis(p, d)
        d_pre = d - self.shift
        pre = None if p == 0 or d_pre < 0 else self.basis(p - 1, d_pre)
        if with_representatives:
            kernel_cols = self.cocycle_matrix(basis).kernel_basis()
            kernel_dim = len(kernel_cols)
            image = RationalMatrix.zero(len(basis), 0) if pre is None else self.matrix(pre, basis)
            image_rank = image.rank()
        else:
            target = self.image_window(basis)
            kernel_dim = len(basis) - sparse_rank(self.columns(basis, target), len(target))
            image_rank = 0 if pre is None else sparse_rank(self.columns(pre, basis), len(basis))
        report = {
            "p": p,
            "window_degree": d,
            "preimage_degree": None if p == 0 else d_pre,
            "kernel_dim": kernel_dim,
            "image_rank": image_rank,
            "betti": kernel_dim - image_rank,
        }
        if with_representatives:
            kept = image.extend_column_space(kernel_cols)
            report["representatives"] = [basis.from_coordinates(v) for v in kept]
        return report


def _ce_shift(anchors, structure):
    """Worst-case increase in coefficient degree under a CE differential with
    polynomial data: max(anchor degree - 1, bracket degree), and -1 when both
    vanish.  The anchor term differentiates a coefficient and multiplies it by
    an anchor component; the bracket term multiplies it by a structure
    function.  For d_pi that is pi's largest entry degree - 1, the brackets
    d(pi_ab) having one degree less than the entries."""
    anchor_fields = [c for X in anchors for c in X.comps]
    bracket_fields = [c for row in structure for cell in row for c in cell]
    if not all(c.is_polynomial for c in anchor_fields + bracket_fields):
        raise NonPolynomialBivector("windowed cohomology needs polynomial anchors and brackets")
    return max(
        [-1]
        + [c.total_degree() - 1 for c in anchor_fields]
        + [c.total_degree() for c in bracket_fields]
    )


def degree_shift(pi):
    """Worst-case increase in coefficient degree under d_pi."""
    return _dpi_complex(pi).shift


def _dpi_complex(pi):
    """The windowed complex of d_pi, the cotangent Lie algebroid's differential,
    built once per bivector and kept on it."""
    if pi._dpi_complex is None:
        chart = pi.chart
        anchors, brackets = pi.cotangent_algebroid()
        pi._dpi_complex = WindowComplex(
            chart, lambda p, bound: GradedBasis(chart, p, bound), anchors, brackets
        )
    return pi._dpi_complex


def assemble_dpi_matrix(pi, p, d_in, d_out):
    """(matrix, source, target) of d_pi from the (p, d_in) window into (p+1, d_out)."""
    return _dpi_complex(pi).assemble(p, d_in, d_out)


def truncated_betti(pi, p, d, with_representatives=False):
    """The windowed dimension of H^p_pi, a report dict (``WindowComplex.betti``)."""
    return _dpi_complex(pi).betti(p, d, with_representatives)


def dpi_squared_matrix(pi, p, d):
    """The composed matrix d_pi . d_pi out of the (p, d) window (exact product)."""
    complex_ = _dpi_complex(pi)
    mid = max(d + complex_.shift, 0)
    outer = max(mid + complex_.shift, 0)
    m1, _, _ = complex_.assemble(p, d, mid)
    m2, _, _ = complex_.assemble(p + 1, mid, outer)
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


def dpi_preserves_split(split, p, d):
    """Check d_pi maps each summand of the (p, d) window into itself.

    Returns {"preserved": bool, "witness": (mono, idx, side) or None}.
    At p = dim the differential lands in the zero space, so preservation
    is trivial.
    """
    if p >= split.chart.dim:
        return {"preserved": True, "witness": None}
    pi = split.pi
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
    """Leafwise form -> multivector: (pi w)(a_1..a_p) = w(pi(a_1), .., pi(a_p)),
    along the splitting's kept leaf rows of pi_sharp(dx_i)."""
    return _pullback(PVector, omega, split.sharp_leaf_rows())


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
    # row i of the cometric matrix holds the components of g_sharp(dx_i)
    return _pullback(PVector, omega, split.g.matrix)


def leafwise_degree_shift(split, structure):
    """Worst-case coefficient degree increase of d_F on polynomial windows."""
    return _ce_shift(split.ts_frame, structure)


def _leaf_complex(split, structure):
    """The windowed complex of d_F (the Lie algebroid of the leaf tangents)."""
    return WindowComplex(
        split.chart, lambda p, bound: LeafBasis(split, p, bound), split.ts_frame, structure
    )


def leafwise_truncated_betti(split, p, d):
    """Windowed leafwise cohomology dimension: truncated_betti's count for d_F."""
    return _leaf_complex(split, _ts_structure_coefficients(split)).betti(p, d)


def thm31_cochain_report(split, p, d):
    """Cochain-level evidence for the basic+leafwise embedding into H_pi.

    (a) every enumerated basic p-form maps to a d_pi-closed multivector
        through the metric identification;
    (b) every d_F-closed windowed leafwise p-form pushes forward to a
        d_pi-closed multivector;
    (c) for p = 1, the windowed dimensions: betti_pi == dim(basic window)
        + betti_leafwise.  Reported as a flag, not asserted, so windows
        where truncation effects break the count are visible.
    """
    pi = split.pi
    report = {"p": p, "window_degree": d}
    closed = []
    for omega in basic_pform_family(pi, p, d):
        image = sharp_basic(split, omega)
        closed.append(pi.d_pi(image).is_zero)
    report["basic_count"] = len(closed)
    report["basic_forms_closed"] = all(closed)

    # leafwise p-forms above the leaf rank are zero: no cocycles, no cohomology
    leaf = _leaf_complex(split, _ts_structure_coefficients(split))
    pushed_closed = []
    if p <= split.rank:
        source = leaf.basis(p, d)
        for vec in leaf.cocycle_matrix(source).kernel_basis():
            image = pi_pushforward(split, source.from_coordinates(vec))
            pushed_closed.append(pi.d_pi(image).is_zero)
    report["leaf_cocycle_count"] = len(pushed_closed)
    report["pushforwards_closed"] = all(pushed_closed)

    if p == 1:
        betti_pi = truncated_betti(pi, 1, d)["betti"]
        betti_leaf = leaf.betti(1, d)["betti"] if split.rank else 0
        window = GradedBasis(pi.chart, 1, d)
        cols = [
            window.sparse_coordinates_of(f.as_pform())
            for f in basic_form_family(pi, d)
            if all(c.is_polynomial and c.total_degree() <= d for c in f.comps)
        ]
        basic_dim = RationalMatrix.from_columns(cols, len(window)).rank()
        report["betti_pi"] = betti_pi
        report["betti_leafwise"] = betti_leaf
        report["basic_window_dim"] = basic_dim
        report["dimension_match"] = betti_pi == basic_dim + betti_leaf
    else:
        report["dimension_match"] = None
    return report
