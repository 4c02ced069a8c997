"""Recursive-descent parser for scalar expressions.

Grammar (UTF-8 text, whitespace insignificant):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          -- right associative
    atom    := INT | NAME | '(' expr ')'

'^' binds tighter than unary minus, '*'/'/' bind tighter than '+'/'-'; all
binary operators associate left except '^'.  Exponents must reduce to a
nonnegative integer constant.  Rational literals like 3/4 come out of the
ordinary division rule.

Every '^', '*' and '/' is sized before it is expanded: from its operands the
parser bounds the numerator and denominator of the result (total degree,
number of terms, bits of the largest coefficient) and refuses it with
ExprSyntaxError, at the operator's offset, when a bound exceeds MAX_DEGREE,
MAX_TERMS or MAX_COEFF_BITS.  An exponent above MAX_DEGREE is refused
whatever its base.  So "x^(10^9)" or "(1+x+y+z)^60" fails at once instead
of expanding for minutes.
"""

from math import comb

from .errors import ExprSyntaxError, UnknownIdentifier
from .scalar import ScalarField

_TOK_INT = "int"
_TOK_NAME = "name"
_TOK_OP = "op"
_TOK_END = "end"

_OPS = set("+-*/^()")

# Deepest nesting of parentheses, unary minus and exponents; each level costs
# a few Python frames, so this keeps parsing far from the recursion limit.
MAX_DEPTH = 100

# Size caps for the result of one '^', '*' or '/'; see the module docstring.
# (1+x)^200 and (1+x+y+z)^20, with 1771 terms, fit.
MAX_DEGREE = 200
MAX_TERMS = 5000
MAX_COEFF_BITS = 10000


def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append((_TOK_INT, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((_TOK_NAME, text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            toks.append((_TOK_OP, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i, expected="token")
    toks.append((_TOK_END, "", n))
    return toks


class _Parser:
    def __init__(self, text, chart):
        self.text = text
        self.chart = chart
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, val, off = self.peek()
        what = "end of input" if kind == _TOK_END else repr(val)
        raise ExprSyntaxError(f"unexpected {what}", off, expected=expected)

    def expect_op(self, op):
        kind, val, _ = self.peek()
        if kind != _TOK_OP or val != op:
            self.fail(repr(op))
        return self.advance()

    def parse(self):
        value = self.expr()
        if self.peek()[0] != _TOK_END:
            self.fail("end of input")
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, val, off = self.peek()
            if kind == _TOK_OP and val in "*/":
                self.advance()
                rhs = self.unary()
                num, den = rhs.num_dict(), rhs.den_dict()
                if val == "/":
                    num, den = den, num
                _check_product(value.num_dict(), num, self.chart, off)
                _check_product(value.den_dict(), den, self.chart, off)
                value = value * rhs if val == "*" else value / rhs
            else:
                return value

    def unary(self):
        kind, val, off = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested more than {MAX_DEPTH} levels deep",
                                  off, expected="shallower nesting")
        if kind == _TOK_OP and val == "-":
            self.advance()
            value = -self.unary()
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self):
        base = self.atom()
        kind, val, off = self.peek()
        if kind == _TOK_OP and val == "^":
            self.advance()
            exp_off = self.peek()[2]
            exponent = self.unary()
            k = _as_nonneg_int(exponent, exp_off)
            if k > MAX_DEGREE:
                _too_large(f"exponent {k}", MAX_DEGREE, off)
            _check_power(base.num_dict(), k, self.chart, off)
            _check_power(base.den_dict(), k, self.chart, off)
            return base ** k
        return base

    def atom(self):
        kind, val, off = self.peek()
        if kind == _TOK_INT:
            self.advance()
            return ScalarField.constant(self.chart, int(val))
        if kind == _TOK_NAME:
            self.advance()
            if val not in self.chart.names:
                raise UnknownIdentifier(val, off, self.chart.names)
            return ScalarField.coordinate(self.chart, self.chart.index(val))
        if kind == _TOK_OP and val == "(":
            self.advance()
            value = self.expr()
            self.expect_op(")")
            return value
        self.fail("integer, coordinate, or '('")


def _as_nonneg_int(field, offset):
    if not field.is_constant:
        raise ExprSyntaxError("exponent must be a constant", offset,
                              expected="nonnegative integer exponent")
    q = field.constant_value()
    if q.denominator != 1 or q < 0:
        raise ExprSyntaxError(f"exponent {q} is not a nonnegative integer", offset,
                              expected="nonnegative integer exponent")
    return int(q)


def _size(poly):
    """(total degree, terms, bits of the largest coefficient) of a nonzero dict."""
    return (
        max(sum(m) for m in poly),
        len(poly),
        max(abs(c).bit_length() for c in poly.values()),
    )


def _too_large(what, cap, offset):
    raise ExprSyntaxError(f"{what} exceeds the cap of {cap}", offset,
                          expected="a smaller expression")


def _check_bounds(degree, terms, bits, chart, offset):
    """Refuse a predicted result; terms are also bounded by the monomial count."""
    if degree > MAX_DEGREE:
        _too_large(f"result of total degree {degree}", MAX_DEGREE, offset)
    terms = min(terms, comb(chart.dim + degree, degree))
    if terms > MAX_TERMS:
        _too_large(f"result of up to {terms} terms", MAX_TERMS, offset)
    if bits > MAX_COEFF_BITS:
        _too_large(f"result with coefficients of up to {bits} bits", MAX_COEFF_BITS, offset)


def _check_product(p, q, chart, offset):
    """Bound p*q: degrees add, terms multiply, coefficients are at most
    min(terms) products of one coefficient from each."""
    if not (p and q):
        return
    dp, tp, bp = _size(p)
    dq, tq, bq = _size(q)
    _check_bounds(dp + dq, tp * tq, bp + bq + min(tp, tq).bit_length(), chart, offset)


def _check_power(p, k, chart, offset):
    """Bound p^k: k times the degree, C(t+k-1, k) monomial products, and
    coefficients below (t * max|c|)^k."""
    if not p or k < 2:
        return
    d, t, b = _size(p)
    _check_bounds(k * d, comb(t + k - 1, k), k * (b + t.bit_length()), chart, offset)


def parse_scalar(text, chart):
    """Parse an expression into a canonical ScalarField.

    Raises ExprSyntaxError (with 0-based offset and expected-token hint),
    UnknownIdentifier for names outside the chart, and DivisionByZeroField
    when the text divides by an identically zero subexpression.
    """
    return _Parser(text, chart).parse()
