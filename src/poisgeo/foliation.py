"""The regular symplectic foliation of a Poisson structure with a cometric.

Splits the cotangent bundle into ker pi and its metric orthogonal, builds
dual tangent frames for the leaves and their normal directions, and houses
everything that lives on those frames: the leafwise symplectic form, the
induced tangent metric, the leaf connection, basic forms, foliate fields,
invariance checks, the bundle-like test, and the leafwise differential
d_F, which is ``tensor.ce_differential`` with the leaf frame as anchor and
its structure functions as bracket (the same formula as d_pi).

The leaf frame reuses the coordinate machinery.  Leafwise forms are the
coordinate tensors' alternating components (``tensor._Components``) with
the splitting as their frame, and every frame coefficient is a pairing with
the one memoised coframe dual to (ts_frame, h_frame).
"""

from functools import reduce
from itertools import chain, combinations, combinations_with_replacement

from .chart import as_point, increasing_tuples
from .errors import (
    ChartMismatch,
    DegreeOverflow,
    Inconclusive,
    InternalInconsistency,
    NotTangent,
    PoisgeoError,
    RankNotConstant,
    RankOdd,
    SingularLeafwiseForm,
)
from .connection import SymmetricForm
from .linalg import FieldMatrix, annihilator
from .polyops import monomials_upto
from .scalar import ScalarField
from .tensor import (
    OneForm,
    PForm,
    VectorField,
    _alternating,
    _Components,
    _pullback,
    ce_differential,
    exterior_d,
    interior_vector,
    lie_bracket,
    lie_derivative_bivector,
)


# The largest Casimir-coefficient degree of the bundle-like test's basic forms
BUNDLE_LIKE_DEGREE = 2


class TangentMetric(SymmetricForm):
    """Metric on TP: entry(i, j) = g(dd_i, dd_j), pairing(X, Y) = g(X, Y)."""

    __slots__ = ()
    noun = "tangent metric"

    def sharp_form(self, alpha):
        """The vector v with g(v, u) = alpha(u) for all u (solves g v = alpha)."""
        gm = self.field_matrix()
        rhs = FieldMatrix(self.chart, [[c] for c in alpha.comps])
        sol = gm.solve(rhs)
        return VectorField(self.chart, [sol.entry(i, 0) for i in range(self.chart.dim)])


class FoliationSplit:
    """Frames realizing T*P = ker pi + perp and TP = TS + H.

    kernel_frame : 1-forms spanning ker pi (pi_sharp of each is zero)
    perp_frame   : 1-forms spanning the cometric-orthogonal of ker pi
    ts_frame     : pi_sharp of the perp frame (spans the leaf tangents)
    h_frame      : cometric-sharp of the kernel frame (spans the normals)

    As the owner of leafwise forms it holds, like a chart, the increasing
    ts_frame index tuples per degree (``increasing``, ``increasing_set``).
    """

    __slots__ = (
        "pi",
        "g",
        "rank",
        "samples",
        "increasing",
        "increasing_set",
        "kernel_frame",
        "perp_frame",
        "ts_frame",
        "h_frame",
        "_frame_matrix",
        "_frame_inverse",
        "_tangent_metric",
        "_pi_lie",
        "_sharp_rows",
    )

    def __init__(self, pi, g, rank, samples, kernel_frame, perp_frame, ts_frame, h_frame):
        self.pi = pi
        self.g = g
        self.rank = rank
        self.samples = tuple(tuple(p) for p in samples)
        self.increasing, self.increasing_set = increasing_tuples(rank)
        self.kernel_frame = tuple(kernel_frame)
        self.perp_frame = tuple(perp_frame)
        self.ts_frame = tuple(ts_frame)
        self.h_frame = tuple(h_frame)
        self._frame_matrix = None
        self._frame_inverse = None
        self._tangent_metric = None
        self._pi_lie = {}
        self._sharp_rows = None

    @property
    def chart(self):
        return self.pi.chart

    def frame_matrix(self):
        """Columns ts_frame then h_frame, as an n x n FieldMatrix."""
        if self._frame_matrix is None:
            cols = [X.comps for X in self.ts_frame + self.h_frame]
            self._frame_matrix = FieldMatrix(self.chart, list(zip(*cols)))
        return self._frame_matrix

    def frame_inverse(self):
        """Rows M^-1 perp_frame, then N^-1 kernel_frame: the coframe dual to
        (ts_frame, h_frame), with M[c][d] = perp_c(ts_d) and N[a][b] = kappa_a(h_b).

        The inverse is block diagonal on these frames because perp kills h
        (g-orthogonality) and kappa kills ts (pi_sharp(kappa) = 0), which
        split_cotangent checks exactly.
        """
        if self._frame_inverse is None:
            rows = []
            for forms, fields in (
                (self.perp_frame, self.ts_frame),
                (self.kernel_frame, self.h_frame),
            ):
                if forms:
                    chart = self.chart
                    pairing = FieldMatrix(chart, [[a.pair(X) for X in fields] for a in forms])
                    frame = FieldMatrix(chart, [a.comps for a in forms])
                    rows.extend((pairing.inverse() @ frame).entries)
            self._frame_inverse = FieldMatrix(self.chart, rows)
        return self._frame_inverse

    def tangent_metric(self):
        """The induced tangent metric of (pi, g), built once per split."""
        if self._tangent_metric is None:
            self._tangent_metric = induced_tangent_metric(self)
        return self._tangent_metric

    def pi_lie_derivative(self, X):
        """L_X pi of the splitting's bivector, taken once per vector field: the
        frame fields' serve both ``invariance_report`` and ``foliate_report``."""
        lie = self._pi_lie.get(X)
        if lie is None:
            lie = self._pi_lie[X] = lie_derivative_bivector(X, self.pi.as_pvector())
        return lie

    def coframe(self):
        """Dual 1-forms of (ts_frame, h_frame), rows of the inverse frame matrix."""
        inv = self.frame_inverse()
        return [OneForm(self.chart, inv.entries[i]) for i in range(self.chart.dim)]

    def decompose_vector(self, X):
        """Coefficients of X in the (ts_frame, h_frame) basis: its pairings
        with the dual coframe."""
        return [a.pair(X) for a in self.coframe()]

    def leaf_coefficients(self, X):
        """X's ts_frame coefficients, or None when X has a normal (h_frame) part."""
        coeffs = self.decompose_vector(X)
        if any(not c.is_zero for c in coeffs[self.rank:]):
            return None
        return coeffs[: self.rank]

    def sharp_leaf_rows(self):
        """The ts_frame coefficients of pi_sharp(dx_i), one row per
        coordinate, taken once per split; InternalInconsistency when one of
        them leaves the leaf tangents."""
        if self._sharp_rows is None:
            rows = []
            for i in range(self.chart.dim):
                coeffs = self.leaf_coefficients(self.pi.sharp_basis(i))
                if coeffs is None:
                    raise InternalInconsistency("pi image leaves the leaf tangents")
                rows.append(coeffs)
            self._sharp_rows = tuple(rows)
        return self._sharp_rows


def split_cotangent(pi, g, declared_rank, samples):
    """Compute the cotangent splitting frames and verify regularity.

    Raises RankOdd for odd declared rank, RankNotConstant when the rank of
    the bivector matrix at a sample (or generically) differs from the
    declared one.
    """
    chart = pi.chart
    if g.chart != chart:
        raise ChartMismatch("bivector and cometric on different charts")
    n = chart.dim
    r = declared_rank
    if r % 2:
        raise RankOdd(f"declared rank {r} is odd")
    if not 0 <= r <= n:
        raise PoisgeoError(f"declared rank {r} outside 0..{n}")
    if not samples:
        raise PoisgeoError("need at least one sample point")
    pts = [as_point(chart, p) for p in samples]
    pim = pi.field_matrix()
    for pt in pts:
        found = pim.rank_at(pt)
        if found != r:
            raise RankNotConstant(pt, found, r)
    kernel_frame = pi.kernel_frame()
    generic = n - len(kernel_frame)
    if generic != r:
        raise RankNotConstant(None, generic, r)

    kg_rows = [g.sharp(kappa).comps for kappa in kernel_frame]
    perp_frame = [OneForm(chart, v) for v in annihilator(chart, kg_rows)]
    if len(kernel_frame) != n - r or len(perp_frame) != r:
        raise InternalInconsistency("frame dimensions disagree with the declared rank")

    ts_frame = [pi.sharp(rho) for rho in perp_frame]
    h_frame = [g.sharp(kappa) for kappa in kernel_frame]
    for kappa in kernel_frame:
        if not pi.sharp(kappa).is_zero:
            raise InternalInconsistency("kernel frame element not killed by pi")
        for rho in perp_frame:
            if not g.pairing(kappa, rho).is_zero:
                raise InternalInconsistency("kernel and perp frames not orthogonal")

    split = FoliationSplit(pi, g, r, pts, kernel_frame, perp_frame, ts_frame, h_frame)
    fm = split.frame_matrix()
    for pt in pts:
        found = fm.rank_at(pt)
        if found != n:
            raise RankNotConstant(pt, found, n)
    return split


class LeafwiseForm(_Components):
    """Alternating form on the leaf tangents, components on ts_frame tuples.

    Its owner is the splitting (``split``), a frame of size rank; the
    constructor, arithmetic and equality are the coordinate tensors' own
    (``tensor._Components``).  So degree rank + 1 is the zero space, and the
    leafwise differential of a top-degree form is representable.
    """

    __slots__ = ()

    @property
    def split(self):
        return self.owner

    def apply(self, vectors):
        """Evaluate on leaf-tangent vector fields (decomposed into ts_frame)."""
        rows = []
        for X in vectors:
            coeffs = self.split.leaf_coefficients(X)
            if coeffs is None:
                raise NotTangent(f"{X!r} is not tangent to the leaves")
            rows.append(coeffs)
        return self._apply(rows)

    def as_coordinate_form(self):
        """Extend to a coordinate p-form killed by the normal frame: dd_i has
        the leaf coefficients of the leaf coframe at coordinate i."""
        r = self.split.rank
        rows = [col[:r] for col in self.split.frame_inverse().transpose().entries]
        return _pullback(PForm, self, rows)


def leafwise_symplectic(split):
    """The leaf symplectic form: omega(u, v) = pi(pi^{-1} u, pi^{-1} v).

    On the frames this is omega(ts_b, ts_c) = pi(perp_b, perp_c); the result
    must be nondegenerate at every sample (SingularLeafwiseForm otherwise).
    """
    r = split.rank
    comps = {}
    gram = [[None] * r for _ in range(r)]
    for b in range(r):
        for c in range(r):
            val = split.pi.pairing(split.perp_frame[b], split.perp_frame[c])
            gram[b][c] = val
            if b < c and not val.is_zero:
                comps[(b, c)] = val
    if r:
        gm = FieldMatrix(split.chart, gram)
        for pt in split.samples:
            if gm.rank_at(pt) != r:
                raise SingularLeafwiseForm(pt)
    return LeafwiseForm(split, 2, comps) if r >= 2 else LeafwiseForm.zero(split, min(2, r))


def induced_tangent_metric(split):
    """The tangent metric with TS and H orthogonal:

    g(u, v)       = <pi^{-1} u, pi^{-1} v>   on the leaf tangents,
    g(#a, #b)     = <a, b>                   on the normals,
    mixed block 0.

    Built blockwise on the frames and converted to coordinates; this is not
    the inverse cometric matrix in general.
    """
    chart = split.chart
    n = chart.dim
    r = split.rank
    zero = ScalarField.zero(chart)
    block = [[zero] * n for _ in range(n)]
    for b in range(r):
        for c in range(r):
            block[b][c] = split.g.pairing(split.perp_frame[b], split.perp_frame[c])
    for a in range(n - r):
        for b in range(n - r):
            block[r + a][r + b] = split.g.pairing(split.kernel_frame[a], split.kernel_frame[b])
    inv = split.frame_inverse()
    m = inv.transpose() @ FieldMatrix(chart, block) @ inv
    return TangentMetric(chart, m.entries)


def leaf_connection(D, split):
    """Leaf Levi-Civita structure coefficients via nabla_{pi(a)} pi(b) = pi(D_a b).

    Returns nabla[b][c] = coefficients of nabla_{ts_b} ts_c in ts_frame.
    """
    r = split.rank
    out = []
    for b in range(r):
        row = []
        for c in range(r):
            v = split.pi.sharp(D.derivative(split.perp_frame[b], split.perp_frame[c]))
            coeffs = split.leaf_coefficients(v)
            if coeffs is None:
                raise InternalInconsistency("leaf connection leaves the leaf tangents")
            row.append(coeffs)
        out.append(row)
    return out


def parallel_omega_residuals(split, nabla, omega=None):
    """u.omega(v,w) - omega(nabla_u v, w) - omega(v, nabla_u w) on frame triples."""
    if omega is None:
        omega = leafwise_symplectic(split)
    r = split.rank
    res = {}
    for a in range(r):
        ta = split.ts_frame[a]
        for b in range(r):
            for c in range(r):
                val = ta.apply_to(omega.component_signed((b, c)))
                for d in range(r):
                    nb = nabla[a][b][d]
                    if not nb.is_zero:
                        val = val - nb * omega.component_signed((d, c))
                    nc = nabla[a][c][d]
                    if not nc.is_zero:
                        val = val - nc * omega.component_signed((b, d))
                res[(a, b, c)] = val
    return res


def basic_one_form_routes(pi, alpha):
    """The two equivalent characterizations of a basic 1-form.

    Route A is the definition: pi_sharp(alpha) = 0 and i_{pi(beta)} d alpha = 0
    for all beta (coordinate beta suffice by tensoriality).  Route B asks the
    Koszul bracket [alpha, beta]_pi to vanish for all beta.  By the Leibniz
    rule [alpha, f beta]_pi = f [alpha, beta]_pi + (pi(alpha).f) beta, the 2n
    generators dx_i and x_j dx_0 capture that quantifier: once [alpha, dx_0]
    vanishes, [alpha, x_j dx_0]_pi = (pi(alpha).x_j) dx_0, so they vanish
    for all j exactly when pi(alpha) does.  The 2n brackets share alpha's
    side (``Bivector.koszul_brackets``) and stop at the first nonzero one.
    """
    chart = pi.chart
    n = chart.dim
    route_a = pi.sharp(alpha).is_zero
    if route_a:
        d_alpha = exterior_d(alpha.as_pform())
        route_a = all(interior_vector(pi.sharp_basis(i), d_alpha).is_zero for i in range(n))
    dx0 = OneForm.basis(chart, 0)
    generators = chain(
        (OneForm.basis(chart, i) for i in range(n)),
        (ScalarField.coordinate(chart, j) * dx0 for j in range(n)),
    )
    route_b = all(br.is_zero for br in pi.koszul_brackets(alpha, generators))
    return route_a, route_b


def is_basic_one_form(pi, alpha):
    """Whether alpha is basic, with both routes computed and compared once
    per distinct form and the verdict kept on the bivector."""
    verdict = pi.basic_verdicts.get(alpha)
    if verdict is None:
        a, b = basic_one_form_routes(pi, alpha)
        if a != b:
            raise InternalInconsistency(
                f"basic-form routes disagree on {alpha!r}: definition={a}, bracket={b}"
            )
        verdict = pi.basic_verdicts[alpha] = a
    return verdict


def is_foliate(X, split):
    """True iff [X, Y] stays tangent to the leaves for every leaf-tangent Y."""
    for t in split.ts_frame:
        br = lie_bracket(X, t)
        for kappa in split.kernel_frame:
            if not kappa.pair(br).is_zero:
                return False
    return True


def foliate_report(split, alpha, D):
    """The four equivalent predicates for a kernel-valued 1-form, D the
    splitting's Levi-Civita connection.

    Returns {"basic", "parallel", "foliate", "invariant"}; on a structure
    with vanishing Dpi they agree, otherwise the report just records them.
    """
    pi, g = split.pi, split.g
    chart = pi.chart
    basic = is_basic_one_form(pi, alpha)
    parallel = all(
        D.derivative(OneForm.basis(chart, i), alpha).is_zero for i in range(chart.dim)
    )
    sharp_alpha = g.sharp(alpha)
    foliate = is_foliate(sharp_alpha, split)
    invariant = split.pi_lie_derivative(sharp_alpha).is_zero
    return {
        "basic": basic,
        "parallel": parallel,
        "foliate": foliate,
        "invariant": invariant,
    }


def invariance_report(split, riemann_poisson):
    """Frame-level invariance checks.

    * bracket_vs_lie: [a, b]_pi(X) = (L_X pi)(a, b) for a, b in the perp
      frame and X in the normal frame.  In that regime the contractions
      a(X), b(X) vanish identically, which makes the relation an
      unconditional identity for any bivector with a valid splitting; for
      other argument shapes it picks up pi(a).(b(X)) - pi(b).(a(X)).
      The coordinate-pair residuals against all frame fields are reported
      alongside, since they vanish on the bundled structures but are not
      an identity.
    * perp_invariance: (L_X pi)(perp_b, perp_c) = 0 for X in the normal
      frame; asserted only on structures with vanishing Dpi, reported
      otherwise.

    Each L_X pi is the splitting's memo.
    """
    pi = split.pi
    n = pi.chart.dim
    lie = [split.pi_lie_derivative(X) for X in split.ts_frame + split.h_frame]
    pairs = list(combinations(range(split.rank), 2))
    # (L_X pi)(perp_b, perp_c) is both the bracket check's right-hand side
    # and the perp residual
    brackets = []
    if split.h_frame:
        brackets = [pi.koszul(split.perp_frame[b], split.perp_frame[c]) for b, c in pairs]
    bracket_vs_lie = []
    perp_residuals = []
    for X, lx in zip(split.h_frame, lie[split.rank:]):
        for (b, c), br in zip(pairs, brackets):
            rhs = lx.apply([split.perp_frame[b], split.perp_frame[c]])
            bracket_vs_lie.append(((b, c), br.pair(X) - rhs))
            perp_residuals.append(rhs)
    eq13_ok = all(res.is_zero for _, res in bracket_vs_lie)
    coordinate_residuals = []
    for X, lx in zip(split.ts_frame + split.h_frame, lie):
        for i, j in combinations(range(n), 2):
            lhs = pi.koszul_coordinate(i, j).pair(X)
            coordinate_residuals.append(((i, j), lhs - lx.component((i, j))))
    eq12_ok = all(res.is_zero for res in perp_residuals)
    return {
        "bracket_vs_lie_ok": eq13_ok,
        "bracket_vs_lie_residuals": bracket_vs_lie,
        "coordinate_bracket_ok": all(r.is_zero for _, r in coordinate_residuals),
        "coordinate_bracket_residuals": coordinate_residuals,
        "perp_invariance_ok": eq12_ok,
        "perp_invariance_asserted": riemann_poisson,
        "perp_invariance_residuals": perp_residuals,
    }


def casimir_monomials(pi, max_degree):
    """Monomials of total degree <= max_degree that are Casimir functions."""
    chart = pi.chart
    monos = (
        ScalarField(chart, {m: 1}, chart.one_poly) for m in monomials_upto(chart.dim, max_degree)
    )
    return [f for f in monos if pi.is_casimir(f)]


def basic_pform_family(pi, p, max_degree):
    """Candidate basic p-forms, unfiltered: each Casimir monomial times each
    wedge of p kernel-frame forms, monomial by monomial (the p = 0 family is
    the Casimir monomials as 0-forms).  ``cohomology.sharp_basic`` raises
    NotBasic on a candidate that is not basic."""
    chart = pi.chart
    monos = casimir_monomials(pi, max_degree)
    if p == 0:
        return [PForm(chart, 0, {(): m}) for m in monos]
    kappas = [k.as_pform() for k in pi.kernel_frame()]
    wedges = [reduce(PForm.wedge, combo) for combo in combinations(kappas, p)]
    return [m * w for m in monos for w in wedges]


def basic_form_family(pi, max_degree):
    """Kernel-frame forms times Casimir monomials, filtered to basic forms."""
    candidates = (w.as_oneform() for w in basic_pform_family(pi, 1, max_degree))
    return [alpha for alpha in candidates if is_basic_one_form(pi, alpha)]


def _bundle_like_family(pi):
    """The basic 1-forms of degree ``BUNDLE_LIKE_DEGREE`` that the bundle-like
    test pairs: they depend on pi alone, so the family is built once per
    bivector and kept on it."""
    if pi._bundle_like_family is None:
        pi._bundle_like_family = tuple(basic_form_family(pi, BUNDLE_LIKE_DEGREE))
    return pi._bundle_like_family


def bundle_like_report(split):
    """Reinhart-style test: pairings of basic forms must be Casimir.

    For the enumerated family of basic 1-forms alpha, beta (Casimir
    coefficients up to degree ``BUNDLE_LIKE_DEGREE``, each unordered pair
    once) the function g(#alpha, #beta) = <alpha, beta> must be a
    Casimir; the report also cross-checks that the induced tangent metric
    reproduces the pairing.  The family is the bivector's kept one, and
    each #alpha is taken once.
    Raises Inconclusive when the family is empty.
    """
    pi, g = split.pi, split.g
    family = _bundle_like_family(pi)
    if not family:
        raise Inconclusive("no basic 1-forms found in the enumerated family")
    tangent = split.tangent_metric()
    members = [(alpha, g.sharp(alpha)) for alpha in family]
    failures = []
    # both pairings are symmetric, so each unordered pair is checked once
    for (a, sharp_a), (b, sharp_b) in combinations_with_replacement(members, 2):
        pairing = g.pairing(a, b)
        if tangent.pairing(sharp_a, sharp_b) != pairing:
            failures.append(("pairing_mismatch", a, b))
        if not pi.is_casimir(pairing):
            failures.append(("not_casimir", a, b))
    return {"family_size": len(family), "ok": not failures, "failures": failures}


def _ts_structure_coefficients(split):
    """[ts_b, ts_c] = sum_d C[b][c][d] ts_d for b < c, the cells
    ``ce_differential`` reads; the others are ``()``.  Requires an involutive
    leaf frame."""
    r = split.rank
    C = [[()] * r for _ in range(r)]
    for b in range(r):
        for c in range(b + 1, r):
            coeffs = split.leaf_coefficients(lie_bracket(split.ts_frame[b], split.ts_frame[c]))
            if coeffs is None:
                raise NotTangent("leaf frame is not involutive (bivector not Poisson?)")
            C[b][c] = coeffs
    return C


def leafwise_d(split, omega, structure=None):
    """The leafwise exterior differential on ts_frame tuples.

    The Chevalley-Eilenberg differential of the leaf algebroid
    (``tensor.ce_differential``, anchors the leaf frame):

    (d_F w)(X_0..X_p) = sum_j (-1)^j X_j . w(..no X_j..)
                      + sum_{i<j} (-1)^{i+j} w([X_i, X_j], ..no X_i, X_j..)
    """
    r = split.rank
    p = omega.degree
    if p > r:
        raise DegreeOverflow(f"leafwise degree {p} exceeds the rank {r}")
    if p == r:
        return _alternating(LeafwiseForm, split, r + 1, {}, split.chart)
    if structure is None:
        structure = _ts_structure_coefficients(split)
    comps = ce_differential(split.chart, split.ts_frame, structure, omega.comps, p, r)
    return _alternating(LeafwiseForm, split, p + 1, comps, split.chart)
