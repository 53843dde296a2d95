"""Expression language for symbols: the CLI exchange format.

Grammar (ASCII; a few unicode aliases are normalized away on input):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' ['-'] INT]
    atom   := NAME | INT | '(' expr ')'

NAME is one of t, tau, xi1, xi2, eta1, eta2, alpha, beta, h.  Negative
exponents are only legal on t and tau; exterior generators only take
exponents 0 and 1; beta and h powers are nonnegative; a divisor must be a
nonzero pure-coefficient expression (no t, tau, exterior generators, beta
or h).  The printer in ``symbols`` emits exactly this grammar, so
parse(str(symbol)) round-trips.
"""

from __future__ import annotations

from .scalars import ALPHA, Scalar
from .symbols import Symbol

GENERATORS = ("t", "tau", "xi1", "xi2", "eta1", "eta2", "alpha", "beta", "h")

_UNICODE_ALIASES = (
    ("τ", "tau"),
    ("ξ", "xi"),
    ("η", "eta"),
    ("α", "alpha"),
    ("β", "beta"),
    ("ħ", "h"),
    ("ℏ", "h"),
    ("₁", "1"),
    ("₂", "2"),
    ("·", "*"),
    ("−", "-"),
)


class ExprError(ValueError):
    """Syntax or semantic error, annotated with a source position."""

    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__("%s (at position %d)" % (message, pos))


def _normalize(text: str) -> str:
    for src, dst in _UNICODE_ALIASES:
        if src in text:
            text = text.replace(src, dst)
    return text


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name not in GENERATORS:
                raise ExprError("unknown name %r" % (name,), i)
            tokens.append(("name", name, i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprError("unexpected character %r" % (ch,), i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.take()
        if kind != "op" or value != op:
            raise ExprError("expected %r" % (op,), pos)

    # atom -> (symbol, tag); tag is the generator name, "num" or "expr"
    def atom(self):
        kind, value, pos = self.take()
        if kind == "int":
            return Symbol.constant(value), "num"
        if kind == "name":
            if value == "alpha":
                return Symbol.constant(ALPHA), value
            if value == "beta":
                return Symbol.monomial(beta=1), value
            if value == "h":
                return Symbol.monomial(h=1), value
            return Symbol.generator(value), value
        if kind == "op" and value == "(":
            sym = self.expr()
            self.expect_op(")")
            return sym, "expr"
        raise ExprError("expected a value", pos)

    def factor(self):
        sym, tag = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.take()
            sign = 1
            kind, value, pos = self.peek()
            if kind == "op" and value == "-":
                self.take()
                sign = -1
            kind, value, pos = self.take()
            if kind != "int":
                raise ExprError("expected an integer exponent", pos)
            exp = sign * value
            return self._power(sym, tag, exp, pos)
        return sym

    def _power(self, sym: Symbol, tag: str, exp: int, pos: int) -> Symbol:
        if tag in ("t", "tau"):
            return Symbol.monomial(t=exp) if tag == "t" else Symbol.monomial(tau=exp)
        if tag in ("xi1", "xi2", "eta1", "eta2"):
            if exp == 0:
                return Symbol.constant(1)
            if exp == 1:
                return sym
            raise ExprError("%s^%d: exterior generators square to zero" % (tag, exp), pos)
        if exp < 0:
            raise ExprError("negative exponents are only allowed on t and tau", pos)
        return sym ** exp

    def term(self):
        sym = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.take()
                sym = sym * self.factor()
            elif kind == "op" and value == "/":
                self.take()
                divisor = self.factor()
                sym = sym * _as_coefficient(divisor, pos).inv()
            else:
                return sym

    def expr(self):
        kind, value, _pos = self.peek()
        negate = False
        if kind == "op" and value == "-":
            self.take()
            negate = True
        sym = self.term()
        if negate:
            sym = -sym
        while True:
            kind, value, _pos = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                sym = sym + rhs if value == "+" else sym - rhs
            else:
                return sym


def _as_coefficient(sym: Symbol, pos: int) -> Scalar:
    if not sym:
        raise ExprError("division by zero", pos)
    if len(sym.terms) == 1:
        ((key, coeff),) = sym.terms.items()
        if key == (0, 0, 0, 0, 0):
            return coeff
    raise ExprError("divisor must be a pure coefficient expression", pos)


def parse(text: str) -> Symbol:
    """Parse an expression into a symbol."""
    parser = _Parser(_normalize(text))
    sym = parser.expr()
    kind, _value, pos = parser.peek()
    if kind != "end":
        raise ExprError("trailing input", pos)
    return sym


def parse_scalar(text: str) -> Scalar:
    """Parse a pure-coefficient expression into a scalar."""
    sym = parse(text)
    if not sym:
        return Scalar.from_fraction(0)
    if len(sym.terms) == 1:
        ((key, coeff),) = sym.terms.items()
        if key == (0, 0, 0, 0, 0):
            return coeff
    raise ExprError("not a pure coefficient expression", 0)
