"""Converse construction: foliation + bundle-like metric + leaf symplectic
form  ->  Poisson bivector + cotangent metric.

Given an involutive frame F, a tangent metric g, and a 2-form omega that is
leafwise symplectic, closed along the leaves, killed by the g-orthogonal of
F, and invariant under perpendicular foliate fields, the construction

    pi(a, b) = omega(omega^{-1} a, omega^{-1} b)   on the annihilator of F',
               0 when either argument annihilates F;
    <a, b>   = g(omega^{-1} a, omega^{-1} b)       on the annihilator of F',
               g(#a, #b)                           on the annihilator of F,
               0 mixed

yields a structure whose symplectic foliation is F and whose connection
leaves pi parallel.  ``certify`` re-verifies all of that on the output.
"""

from itertools import combinations

from fractions import Fraction

from .chart import as_point
from .errors import (
    CertificationFailed,
    DegenerateOmegaAt,
    Inconclusive,
    InternalInconsistency,
    InvarianceFails,
    NotBundleLike,
    NotInvolutive,
    NotLeafwiseClosed,
    PoisgeoError,
    SingularMatrix,
    _fmt_point,
)
from .connection import CoMetric, is_riemann_poisson
from .foliation import leafwise_symplectic, split_cotangent
from .linalg import FieldMatrix, RationalMatrix, _cleared_row, annihilator
from .poisson import Bivector
from .polyops import monomials_upto
from .scalar import ScalarField
from .tensor import (
    OneForm,
    VectorField,
    _sharp,
    interior_d,
    interior_vector,
    lie_bracket,
    lie_derivative,
)


class FoliationInput:
    """Chart-level data (F, g, omega) for the converse construction."""

    __slots__ = (
        "chart", "f_frame", "tangent_metric", "omega", "samples", "_omega_gram", "_orth", "_f_ann",
    )

    def __init__(self, chart, f_frame, tangent_metric, omega, samples):
        f_frame = tuple(f_frame)
        if not f_frame:
            raise PoisgeoError("foliation frame must be nonempty")
        if tangent_metric.chart != chart or omega.chart != chart:
            raise PoisgeoError("foliation input pieces on different charts")
        if omega.degree != 2:
            raise PoisgeoError("omega must be a 2-form")
        if not samples:
            raise PoisgeoError("need at least one sample point")
        self.chart = chart
        self.f_frame = f_frame
        self.tangent_metric = tangent_metric
        self.omega = omega
        self.samples = tuple(as_point(chart, p) for p in samples)
        self._orth = None
        self._f_ann = None

        r = len(f_frame)
        fm = FieldMatrix(chart, [X.comps for X in f_frame])
        for pt in self.samples:
            if fm.rank_at(pt) != r:
                raise PoisgeoError(f"foliation frame drops rank at {_fmt_point(pt)}")
        # the omega Gram matrix on F: entry (u, v) is omega(f_u, f_v)
        self._omega_gram = FieldMatrix(
            chart, [[omega.apply([u, v]) for v in f_frame] for u in f_frame]
        )
        self._check_omega()

    @property
    def rank(self):
        return len(self.f_frame)

    def _check_omega(self):
        """Raise DegenerateOmegaAt at the first sample where omega degenerates on F."""
        for pt in self.samples:
            if self._omega_gram.rank_at(pt) != self.rank:
                raise DegenerateOmegaAt(pt)

    def orthogonal_frame(self):
        """Frame of the g-orthogonal distribution F'."""
        if self._orth is None:
            g = self.tangent_metric.matrix
            rows = [_sharp(self.chart, g, X).comps for X in self.f_frame]
            self._orth = tuple(VectorField(self.chart, v) for v in annihilator(self.chart, rows))
        return self._orth

    def annihilator_of_f(self):
        """Forms killing the foliation frame, built once."""
        if self._f_ann is None:
            vecs = annihilator(self.chart, [X.comps for X in self.f_frame])
            self._f_ann = tuple(OneForm(self.chart, v) for v in vecs)
        return self._f_ann

    def annihilator_of_orth(self):
        """Forms killing the orthogonal frame (whole cotangent space if F' = 0)."""
        vecs = annihilator(self.chart, [X.comps for X in self.orthogonal_frame()])
        return [OneForm(self.chart, v) for v in vecs]


def perpendicular_foliate_family(inp, ansatz_degree=2):
    """Perpendicular foliate fields with polynomial coefficients.

    Solves, over the rationals, for constants c in X = sum_t c_t m_t w_a
    (monomials m up to ansatz_degree times the orthogonal frame) such that
    [X, f_j] stays in the span of the foliation frame.  Raises Inconclusive
    when only X = 0 satisfies the conditions.
    """
    chart = inp.chart
    orth = inp.orthogonal_frame()
    if not orth:
        return []
    monos = [
        ScalarField(chart, {m: 1}, chart.one_poly) for m in monomials_upto(chart.dim, ansatz_degree)
    ]
    candidates = [m * w for m in monos for w in orth]
    ann = inp.annihilator_of_f()
    condition_fields = []
    for w in candidates:
        fields = []
        for f in inp.f_frame:
            br = lie_bracket(w, f)
            for kappa in ann:
                fields.append(kappa.pair(br))
        condition_fields.append(fields)
    ncond = len(condition_fields[0])
    rows = []
    for c in range(ncond):
        rows.extend(_coefficient_rows([fields[c] for fields in condition_fields]))
    if not rows:
        coeff_basis = [
            [Fraction(1 if i == t else 0) for t in range(len(candidates))]
            for i in range(len(candidates))
        ]
    else:
        coeff_basis = RationalMatrix(rows).kernel_basis()
    family = []
    for coeffs in coeff_basis:
        X = VectorField.zero(chart)
        for c, w in zip(coeffs, candidates):
            if c:
                X = X + ScalarField.constant(chart, c) * w
        if not X.is_zero:
            family.append(X)
    if not family:
        raise Inconclusive(
            "no perpendicular foliate field found with the polynomial ansatz"
        )
    return family


def _coefficient_rows(fields):
    """Rows of the linear system 'sum_t c_t fields[t] == 0 identically'.

    Brings the fields to a common denominator and emits one row per
    monomial of the numerators.
    """
    numerators = _cleared_row(fields)
    monos = sorted({m for p in numerators for m in p})
    return [[Fraction(p.get(m, 0)) for p in numerators] for m in monos]


def validate_input(inp, ansatz_degree=2):
    """Check the construction hypotheses; raises on the first failure.

    (a) involutivity of the frame, (b) leafwise closedness of omega,
    (c) leafwise nondegeneracy at the samples (already enforced by the
    input type, re-run here), (d) invariance of omega under perpendicular
    foliate fields, (e) the bundle-like property of g.  Returns a dict of
    the evidence gathered (perpendicular family size etc.).
    """
    r = inp.rank
    ann = inp.annihilator_of_f()
    for i in range(r):
        for j in range(i + 1, r):
            br = lie_bracket(inp.f_frame[i], inp.f_frame[j])
            for kappa in ann:
                if not kappa.pair(br).is_zero:
                    raise NotInvolutive(i, j)
    for w in inp.orthogonal_frame():
        if not interior_vector(w, inp.omega).is_zero:
            raise PoisgeoError(
                "omega must be killed by the g-orthogonal of the foliation"
            )
    frame = inp.f_frame
    for a, b, c in combinations(range(r), 3):
        # d omega(f_a, f_b, f_c), as (i_{f_a} d omega)(f_b, f_c)
        if not interior_d(frame[a], inp.omega).apply([frame[b], frame[c]]).is_zero:
            raise NotLeafwiseClosed(f"d omega nonzero on frame triple {(a, b, c)}")
    inp._check_omega()
    family = perpendicular_foliate_family(inp, ansatz_degree)
    for s, X in enumerate(family):
        lx = lie_derivative(X, inp.omega)
        for i in range(r):
            for j in range(i + 1, r):
                val = lx.apply([inp.f_frame[i], inp.f_frame[j]])
                if not val.is_zero:
                    raise InvarianceFails(s, i, j, str(val))
    g = inp.tangent_metric
    for X in family:
        for Y in family:
            pairing = g.pairing(X, Y)
            for f in inp.f_frame:
                if not f.apply_to(pairing).is_zero:
                    raise NotBundleLike(
                        f"g of perpendicular foliate fields is not basic: {pairing}"
                    )
    return {"perpendicular_family_size": len(family)}


def build_structure(inp):
    """Assemble (pi, cometric) from the input data.

    Does not re-run validate_input; callers decide whether to validate
    first (the hypothesis-necessity tests deliberately skip it).
    """
    chart = inp.chart
    n = chart.dim
    r = inp.rank
    f_ann = inp.annihilator_of_f()          # forms vanishing on F
    orth_ann = inp.annihilator_of_orth()    # forms vanishing on F'
    if len(f_ann) != n - r or len(orth_ann) != r:
        raise InternalInconsistency("annihilator dimensions are off")

    # decompose each dx_i over the two annihilators
    basis_cols = [list(k.comps) for k in f_ann] + [list(p.comps) for p in orth_ann]
    B = FieldMatrix(chart, list(zip(*basis_cols)))
    coeffs = B.solve(FieldMatrix.identity(chart, n))

    # leafwise inverse of omega on the orth annihilator frame: omega(X_b, f_v) = phi_b(f_v)
    rhs = FieldMatrix(chart, [[phi.pair(v) for phi in orth_ann] for v in inp.f_frame])
    try:
        inv_coeffs = inp._omega_gram.transpose().solve(rhs)
    except SingularMatrix:
        raise DegenerateOmegaAt(inp.samples[0]) from None
    omega_inverse = []
    for b in range(r):
        X = VectorField.zero(chart)
        for s in range(r):
            c = inv_coeffs.entry(s, b)
            if not c.is_zero:
                X = X + c * inp.f_frame[s]
        omega_inverse.append(X)
    for b, phi in enumerate(orth_ann):
        reproduced = [inp.omega.apply([omega_inverse[b], f]) for f in inp.f_frame]
        wanted = [phi.pair(f) for f in inp.f_frame]
        if reproduced != wanted:
            raise InternalInconsistency("omega inverse solve failed to reproduce")

    # the non-annihilator part of dx_i mapped through omega^{-1}
    v_parts = []
    a_parts = []
    for i in range(n):
        X = VectorField.zero(chart)
        for b in range(r):
            c = coeffs.entry(n - r + b, i)
            if not c.is_zero:
                X = X + c * omega_inverse[b]
        v_parts.append(X)
        a = OneForm.zero(chart)
        for k in range(n - r):
            c = coeffs.entry(k, i)
            if not c.is_zero:
                a = a + c * f_ann[k]
        a_parts.append(a)

    g = inp.tangent_metric
    sharp_a = [g.sharp_form(a) for a in a_parts]
    upper_pi = {}
    upper_g = {}
    for i in range(n):
        for j in range(i, n):
            val_g = g.pairing(v_parts[i], v_parts[j]) + g.pairing(sharp_a[i], sharp_a[j])
            upper_g[(i, j)] = val_g
            if j > i:
                val_pi = inp.omega.apply([v_parts[i], v_parts[j]])
                if not val_pi.is_zero:
                    upper_pi[(i, j)] = val_pi
    pi = Bivector.from_upper(chart, upper_pi)
    cometric = CoMetric.from_upper(chart, upper_g)
    cometric.validate(inp.samples)
    return pi, cometric


def certify(pi, cometric, inp):
    """Verify the construction output is what the theory promises.

    Checks: pi satisfies Jacobi; (pi, cometric) has vanishing Dpi; ker pi
    equals the annihilator of F as a symbolic span.  Raises
    CertificationFailed naming the first broken identity.
    """
    if not pi.is_poisson():
        raise CertificationFailed("jacobi", "constructed bivector is not Poisson")
    if not is_riemann_poisson(pi, cometric):
        raise CertificationFailed("d_pi_parallel", "Dpi does not vanish")
    f_ann = [k.comps for k in inp.annihilator_of_f()]
    kernel = [k.comps for k in pi.kernel_frame()]
    # both are kernel bases, so each has full rank: they span one space
    # exactly when they have one size and stacking them adds no rank
    stacked = f_ann + kernel
    rank = FieldMatrix(pi.chart, stacked).rank() if stacked else 0
    if not len(f_ann) == len(kernel) == rank:
        raise CertificationFailed("kernel_matches_foliation")
    return {
        "poisson": True,
        "riemann_poisson": True,
        "kernel_matches_foliation": True,
    }


def extract_foliation_input(pi, g, declared_rank, samples):
    """The forward direction packaged for the round trip:

    F = leaf tangents, g = induced tangent metric, omega = leafwise
    symplectic form extended by zero on the normals.
    """
    split = split_cotangent(pi, g, declared_rank, samples)
    tangent = split.tangent_metric()
    omega = leafwise_symplectic(pi, split).as_coordinate_form()
    return FoliationInput(pi.chart, split.ts_frame, tangent, omega, samples), split


def round_trip(pi, g, declared_rank, samples, validate=True):
    """Extract (F, g, omega), rebuild (pi', <,>'), compare exactly."""
    inp, _ = extract_foliation_input(pi, g, declared_rank, samples)
    evidence = validate_input(inp) if validate else None
    pi2, g2 = build_structure(inp)
    return {
        "input": inp,
        "validation": evidence,
        "pi_equal": pi2 == pi,
        "cometric_equal": g2 == g,
        "rebuilt": (pi2, g2),
    }
