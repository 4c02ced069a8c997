"""Correctness oracles that do not use poisgeo.

* hand-written expectations for the bundled corpus;
* sympy re-evaluation of every failing check's witness;
* a sympy jacobiator for the generated specs;
* an independent truncated-Betti computation: the Chevalley-Eilenberg
  differential of the cotangent Lie algebroid, written from its formula with
  sympy polynomials, and exact ranks over QQ.
"""

import re
from itertools import combinations
from math import comb

import sympy
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix


class OracleFailure(AssertionError):
    """An output of poisgeo disagrees with an oracle."""


# Checks expected to fail on each manifold spec of the corpus; every other
# check must pass or be skipped.  Reasons, from the mathematics:
#   nonpoisson_jacobi: pi = y dx^dy - x dx^dz has a nonzero jacobiator, so
#     it is not Poisson and cannot be Riemann-Poisson either;
#   r3_quadratic_nonparallel: (1+z^2) dx^dy is Poisson, but its coefficient
#     varies along z under a flat metric, so D pi != 0;
#   so3_star: the linear so(3)* bracket vanishes at the origin sample, so its
#     rank is not constant there, and D pi = d pi != 0 under the flat metric;
#   the three flat specs are Riemann-Poisson and pass everything.
CORPUS_FAILS = {
    "nonpoisson_jacobi": {"poisson_jacobi", "riemann_poisson"},
    "r2_flat": set(),
    "r3_flat": set(),
    "r3_flat_zmetric": set(),
    "r3_quadratic_nonparallel": {"riemann_poisson"},
    "so3_star": {"rank_constant", "riemann_poisson"},
}
FOLIATION_CHECKS = {
    "rank_constant", "leafwise_symplectic_nondegenerate", "induced_metric_positive",
    "bracket_vs_lie_on_frames", "perp_invariance", "foliate_predicates",
    "bundle_like", "leaf_connection_parallel",
}
# construct --verify: exit code, and a fragment stderr must contain
CONSTRUCT_EXPECT = {
    "foliation_flat_zmetric": (0, "cometric_positive_definite: pass"),
    # L_X omega = 2z dx^dy != 0 for the leaf field d/dz direction
    "foliation_invariance_fails": (1, "validation failed: InvarianceFails"),
}


def expected_exit(fails):
    return 1 if fails else 0


def so3_betti(p, d):
    """Closed form on so(3)*: b0 = b3 = floor(d/2)+1 and b1 = b2 = 0."""
    return d // 2 + 1 if p in (0, 3) else 0


# -- sympy evaluation of witnesses -------------------------------------------

_SYMBOLS = {}


def _symbols(coords):
    key = tuple(coords)
    if key not in _SYMBOLS:
        _SYMBOLS[key] = sympy.symbols(" ".join(coords), seq=True)
    return _SYMBOLS[key]


def parse_expr(text, coords):
    syms = _symbols(coords)
    local = {name: s for name, s in zip(coords, syms)}
    return sympy.sympify(text.replace("^", "**"), locals=local, rational=True)


def witness_value(witness, point, coords):
    """Exact value of a witness expression at a point given as strings."""
    syms = _symbols(coords)
    expr = parse_expr(witness, coords)
    return expr.subs({s: sympy.Rational(v) for s, v in zip(syms, point)})


def check_report(report, rc, coords, expect_fails=None, subset=None):
    """Contract checks on one JSON report from ``check``/``report``/``foliation``.

    * the exit code is 1 exactly when some verdict fails;
    * every failing witness is nonzero where the report says it is;
    * both connection checks pass whenever the cometric is valid;
    * with ``expect_fails``, the failing checks are exactly those (restricted
      to ``subset`` when the command reports only some checks).
    """
    checks = {c["name"]: c for c in report["checks"]}
    fails = {n for n, c in checks.items() if c["status"] == "fail"}
    if rc != expected_exit(fails):
        raise OracleFailure(f"exit code {rc} with failing checks {sorted(fails)}")
    for name in fails:
        c = checks[name]
        if c["witness"] is not None and c["witness_nonzero_at"] is not None:
            if witness_value(c["witness"], c["witness_nonzero_at"], coords) == 0:
                raise OracleFailure(f"{name}: witness vanishes at {c['witness_nonzero_at']}")
    if checks.get("cometric_positive_definite", {}).get("status") == "pass":
        for name in ("connection_torsion_free", "connection_metric"):
            if checks[name]["status"] != "pass":
                raise OracleFailure(f"{name} is {checks[name]['status']} on a valid cometric")
    if expect_fails is not None:
        want = set(expect_fails) if subset is None else set(expect_fails) & subset
        if fails != want:
            raise OracleFailure(f"failing checks {sorted(fails)}, expected {sorted(want)}")
    return fails


def jacobiator_nonzero(spec):
    """sympy: v . curl v != 0 for the vector field dual to a 3-D bivector."""
    coords = spec["coordinates"]
    x = _symbols(coords)
    pi = [[sympy.Integer(0)] * 3 for _ in range(3)]
    for i, j, text in spec["pi"]:
        pi[i][j] = parse_expr(text, coords)
        pi[j][i] = -pi[i][j]
    v = [pi[1][2], pi[2][0], pi[0][1]]
    curl = [sympy.diff(v[(k + 2) % 3], x[(k + 1) % 3]) - sympy.diff(v[(k + 1) % 3], x[(k + 2) % 3])
            for k in range(3)]
    return sympy.expand(sum(v[k] * curl[k] for k in range(3))) != 0


# -- independent truncated Betti numbers --------------------------------------


def _sorted_sign(idx):
    """(sign, sorted tuple) of an index sequence; sign 0 on a repeat."""
    idx = list(idx)
    if len(set(idx)) < len(idx):
        return 0, None
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return sign, tuple(idx)


def _monomials(n, d):
    out = []
    for total in range(d + 1):
        for combo in combinations(range(n + total - 1), n - 1):
            prev, exps = -1, []
            for c in combo:
                exps.append(c - prev - 1)
                prev = c
            exps.append(n + total - 2 - prev)
            out.append(tuple(exps))
    return out


class SympyPoisson:
    """A polynomial bivector and its differential on multivector fields.

    For a p-vector Q and coordinate 1-forms,
    (dQ)(dx_k0..dx_kp) = sum_i (-1)^i pi#(dx_ki) Q(..omit i..)
                       + sum_{i<j} (-1)^(i+j) Q(d pi^{ki kj}, ..omit i, j..),
    the Chevalley-Eilenberg differential of the cotangent Lie algebroid.
    """

    def __init__(self, coords, pi_upper):
        self.coords = list(coords)
        self.x = _symbols(coords)
        n = self.n = len(coords)
        zero = sympy.Poly(0, *self.x, domain=QQ)
        self.pi = [[zero] * n for _ in range(n)]
        for i, j, text in pi_upper:
            p = sympy.Poly(parse_expr(text, coords), *self.x, domain=QQ)
            self.pi[i][j] = p
            self.pi[j][i] = -p
        self.shift = max(p.total_degree() for row in self.pi for p in row if not p.is_zero) - 1
        self.zero = zero

    def _q(self, Q, idx):
        sign, key = _sorted_sign(idx)
        if not sign or key not in Q:
            return self.zero
        return Q[key] if sign > 0 else -Q[key]

    def d(self, Q, p):
        """d_pi of a p-vector {sorted index tuple: Poly}."""
        n, x, pi = self.n, self.x, self.pi
        out = {}
        for K in combinations(range(n), p + 1):
            acc = self.zero
            for i in range(p + 1):
                rest = K[:i] + K[i + 1:]
                q = self._q(Q, rest)
                if not q.is_zero:
                    term = sum((pi[K[i]][b] * q.diff(x[b]) for b in range(n)), self.zero)
                    acc = acc + term if i % 2 == 0 else acc - term
            for i in range(p + 1):
                for j in range(i + 1, p + 1):
                    rest = tuple(K[m] for m in range(p + 1) if m not in (i, j))
                    dpij = pi[K[i]][K[j]]
                    term = self.zero
                    for m in range(n):
                        c = dpij.diff(x[m])
                        if not c.is_zero:
                            term = term + c * self._q(Q, (m,) + rest)
                    acc = acc + term if (i + j) % 2 == 0 else acc - term
            if not acc.is_zero:
                out[K] = acc
        return out

    def basis(self, p, d):
        """The p-vectors x^m dx_I with total degree |m| <= d."""
        for mono in _monomials(self.n, d):
            term = sympy.Mul(*[xi**e for xi, e in zip(self.x, mono)])
            for idx in combinations(range(self.n), p):
                yield {idx: sympy.Poly(term, *self.x, domain=QQ)}

    def matrix_rank(self, p, d):
        """Rank of d_pi on the p-vectors with coefficients of degree <= d."""
        if p < 0 or p >= self.n or d < 0:
            return 0
        rows = {}  # (target index tuple, monomial) -> row number
        sdm = {}
        cols = 0
        for j, Q in enumerate(self.basis(p, d)):
            for K, poly in self.d(Q, p).items():
                for m, c in poly.terms():
                    sdm.setdefault(rows.setdefault((K, m), len(rows)), {})[j] = QQ.convert(c)
            cols = j + 1
        if not rows:
            return 0
        return DomainMatrix(sdm, (len(rows), cols), QQ).rank()

    def betti(self, p, d):
        """dim ker on (p, <=d) minus the rank of d_pi from (p-1, <=d-shift)."""
        kernel = comb(self.n, p) * comb(self.n + d, d) - self.matrix_rank(p, d)
        image = self.matrix_rank(p - 1, d - self.shift) if p > 0 else 0
        return kernel - image

    def squared_is_zero(self, p, d):
        """d_pi o d_pi on every basis element of the (p, <=d) window."""
        return not any(self.d(self.d(Q, p), p + 1) for Q in self.basis(p, d))


_BETTI_LINE = re.compile(r"^b(\d+)\(window d=(\d+)\) = (-?\d+)", re.M)


def parse_betti_text(text):
    """(p, d, betti) from the text output of ``poisgeo cohomology``."""
    m = _BETTI_LINE.search(text)
    if not m:
        raise OracleFailure(f"no Betti line in {text!r}")
    return tuple(int(g) for g in m.groups())
