"""Expression front end: AST, tokenizer, recursive-descent parser, printer,
and evaluation of an expression into a real.

Grammar, loosest binding first:

    expr   :=  term (('+' | '-') term)*
    term   :=  factor (('*' | '/') factor)*
    factor :=  '-' factor | atom
    atom   :=  NUMBER ('/' NUMBER)?            rational literal, see below
             | 'max' '(' expr ',' expr ')'
             | 'min' '(' expr ',' expr ')'
             | 'abs' '(' expr ')'
             | 'below' '(' signed literal ')'
             | '(' expr ')'

NUMBER is an integer or an exact decimal (3.14 is the rational 157/50) in
ASCII digits; names are ASCII letters.  Two integer literals joined by '/'
form a single rational literal, so 1/3 + 1/6 adds two literals rather than
dividing; '/' anywhere else is real division, which must certify its
denominator apart from zero when evaluated.  A literal with denominator 0
falls back to division, so 1/0 fails at evaluation, not at parse time.
"""

from dataclasses import dataclass
from fractions import Fraction
from string import ascii_letters, digits

from .rational import format_rat, parse_int
from .reals import (absolute, add, find_apart_witness, from_below, from_rat,
                    join, meet, mul, neg, recip_witnessed, sub)


@dataclass(frozen=True)
class RatLit:
    value: Fraction


@dataclass(frozen=True)
class FromBelow:
    """The canonical strictly-increasing approximation of a rational:
    the limit of eps -> value - eps.  Denotes value, but never reports it
    exactly, which makes it the stock generic-path test subject."""
    value: Fraction


@dataclass(frozen=True)
class _Unary:
    operand: object


@dataclass(frozen=True)
class _Binary:
    left: object
    right: object


class Neg(_Unary):
    """-operand"""


class Abs(_Unary):
    """|operand|"""


class Add(_Binary):
    """left + right"""


class Sub(_Binary):
    """left - right"""


class Mul(_Binary):
    """left * right"""


class Div(_Binary):
    """left / right"""


class Max(_Binary):
    """max(left, right)"""


class Min(_Binary):
    """min(left, right)"""


class ParseError(ValueError):
    """Syntax error with the 0-based offset of the offending token."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class WitnessSearchError(ArithmeticError):
    """A division could not certify its denominator apart from zero."""

    def __init__(self, fuel):
        super().__init__(
            "no apartness witness for a denominator within fuel %d; "
            "it may be zero or too close to zero" % fuel)
        self.fuel = fuel


_SYMBOLS = "+-*/(),"


def tokenize(text):
    """Split text into (kind, value, position) tokens.

    Kinds: 'int' carries an int and 'dec' an exact Fraction, of any length,
    and the distinction lets the parser fold p/q literals; 'name' carries an
    identifier; 'sym' one of + - * / ( ) ,; 'end' marks exhaustion.
    """
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append(("sym", c, i))
            i += 1
            continue
        if c in digits:
            start = i
            while i < n and text[i] in digits:
                i += 1
            if i < n and text[i] == "." and i + 1 < n and text[i + 1] in digits:
                point = i
                i += 1
                while i < n and text[i] in digits:
                    i += 1
                value = Fraction(parse_int(text[start:point] + text[point + 1:i]),
                                 10 ** (i - point - 1))
                tokens.append(("dec", value, start))
            else:
                tokens.append(("int", parse_int(text[start:i]), start))
            continue
        if c in ascii_letters:
            start = i
            while i < n and text[i] in ascii_letters:
                i += 1
            tokens.append(("name", text[start:i], start))
            continue
        raise ParseError("unexpected character %r" % c, i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok):
        kind, value, position = tok
        if kind == "end":
            raise ParseError("unexpected end of input", position)
        shown = value if kind in ("name", "sym") else format_rat(value)
        raise ParseError("unexpected token '%s'" % shown, position)

    def expect(self, symbol):
        tok = self.advance()
        if tok[0] != "sym" or tok[1] != symbol:
            self.fail(tok)

    def expr(self):
        node = self.term()
        while self.peek()[0] == "sym" and self.peek()[1] in "+-":
            op = self.advance()[1]
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "sym" and self.peek()[1] in "*/":
            op = self.advance()[1]
            right = self.factor()
            node = Mul(node, right) if op == "*" else Div(node, right)
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] == "sym" and tok[1] == "-":
            self.advance()
            return Neg(self.factor())
        return self.atom()

    def literal(self):
        # A number, folding integer/integer into one rational (nonzero
        # denominators only; p/0 stays a division and fails at evaluation).
        tok = self.advance()
        if tok[0] not in ("int", "dec"):
            self.fail(tok)
        if (tok[0] == "int"
                and self.peek()[0] == "sym" and self.peek()[1] == "/"
                and self.tokens[self.pos + 1][0] == "int"
                and self.tokens[self.pos + 1][1] != 0):
            self.advance()
            den = self.advance()[1]
            return RatLit(Fraction(tok[1], den))
        return RatLit(Fraction(tok[1]))

    def signed_literal(self):
        if self.peek()[0] == "sym" and self.peek()[1] == "-":
            self.advance()
            return RatLit(-self.literal().value)
        return self.literal()

    def atom(self):
        tok = self.peek()
        if tok[0] in ("int", "dec"):
            return self.literal()
        if tok[0] == "name":
            self.advance()
            name = tok[1]
            if name == "max" or name == "min":
                self.expect("(")
                left = self.expr()
                self.expect(",")
                right = self.expr()
                self.expect(")")
                return Max(left, right) if name == "max" else Min(left, right)
            if name == "abs":
                self.expect("(")
                operand = self.expr()
                self.expect(")")
                return Abs(operand)
            if name == "below":
                self.expect("(")
                lit = self.signed_literal()
                self.expect(")")
                return FromBelow(lit.value)
            raise ParseError("unknown function '%s'" % name, tok[2])
        if tok[0] == "sym" and tok[1] == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        self.fail(tok)


def parse(text):
    """Parse an expression; raises ParseError with a position on bad input."""
    parser = _Parser(tokenize(text))
    node = parser.expr()
    tail = parser.peek()
    if tail[0] != "end":
        parser.fail(tail)
    return node


def _divide(numer, denom, witness_fuel):
    witness = find_apart_witness(denom, witness_fuel)
    if witness is None:
        raise WitnessSearchError(witness_fuel)
    return mul(numer, recip_witnessed(denom, witness))


# Node class -> (print template, reals operation).  A literal's operation
# takes its rational; the others take their operands' reals, and division
# also the witness budget.  Binary operations print fully parenthesized, and
# a division's right operand gets its own parentheses so an integer/integer
# pair is not re-folded into a literal.
_NODES = {
    RatLit: ("%s", from_rat),
    FromBelow: ("below(%s)", from_below),
    Neg: ("-%s", neg),
    Abs: ("abs(%s)", absolute),
    Add: ("(%s + %s)", add),
    Sub: ("(%s - %s)", sub),
    Mul: ("(%s * %s)", mul),
    Div: ("(%s / (%s))", _divide),
    Max: ("max(%s, %s)", join),
    Min: ("min(%s, %s)", meet),
}


def _row(node):
    try:
        return _NODES[type(node)]
    except KeyError:
        raise TypeError("not an expression node: %r" % (node,)) from None


def format_expr(node):
    """Print an expression so that parsing the output reproduces the AST.

    That holds for every AST the parser makes.  The parser makes negative
    literals only inside below(...); elsewhere a negative RatLit prints as
    -p/q, which parses as Neg of the positive literal, the same value.
    """
    template = _row(node)[0]
    if isinstance(node, _Binary):
        return template % (format_expr(node.left), format_expr(node.right))
    if isinstance(node, _Unary):
        return template % format_expr(node.operand)
    return template % format_rat(node.value)


def build_real(node, witness_fuel=64):
    """Evaluate an AST into a real.

    Division searches an apartness witness for its denominator within
    witness_fuel stages; a failed search raises WitnessSearchError rather
    than returning a bogus real.

    Equal subexpressions become one point, so its approximations and its
    witness search are done once.  A table that lives for this call maps a
    leaf's (class, numerator, denominator) and an operation's (class, ids
    of its operands' reals) to the real built for it; it holds every real
    whose id it uses, so no id is reused while it lives.  A key costs O(1)
    per node, where hashing the AST would cost its size.
    """
    return _build(node, witness_fuel, {})


def _build(node, witness_fuel, shared):
    # a module-level function, not a closure over shared: a recursive
    # closure is a reference cycle, which would keep every point in shared
    # alive until the cycle collector runs
    operation = _row(node)[1]
    if isinstance(node, _Binary):
        operands = (_build(node.left, witness_fuel, shared),
                    _build(node.right, witness_fuel, shared))
        key = (type(node), id(operands[0]), id(operands[1]))
    elif isinstance(node, _Unary):
        operands = (_build(node.operand, witness_fuel, shared),)
        key = (type(node), id(operands[0]))
    else:
        operands = (node.value,)
        key = (type(node), node.value.numerator, node.value.denominator)
    real = shared.get(key)
    if real is None:
        if operation is _divide:
            real = _divide(*operands, witness_fuel)
        else:
            real = operation(*operands)
        shared[key] = real
    return real
