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
"""

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
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val in "*/":
                self.advance()
                rhs = self.unary()
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


def parse_scalar(text, chart):
    """Parse an expression into a canonical ScalarField.

    Raises ExprSyntaxError (with 0-based offset and expected-token hint),
    UnknownIdentifier for names outside the chart, and DivisionByZeroField
    when the text divides by an identically zero subexpression.
    """
    return _Parser(text, chart).parse()
