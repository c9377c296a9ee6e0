"""Expression front end: AST, tokenizer, parser, printer, and evaluation of
an expression into a real.

The parser reads the token list in one loop, with pending operators and open
frames on an explicit stack (shunting-yard), and the printer and build_real
walk the tree in post-order on an explicit stack.  So parsing, printing and
building have no depth limit.  build_real makes a left-deep chain of + and -
one signed sum of all its terms, so a sum of any length evaluates in one
frame.  Approximating other nesting still recurses, one frame per level
(CompletionPoint.scaled reads an operation's operands), so about 990 levels
of it evaluate at the default recursion limit.

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

import re

from dataclasses import dataclass
from fractions import Fraction
from string import ascii_letters, digits

from .rational import format_rat, parse_int
from .reals import (absolute, add, find_apart_witness, from_below, from_rat,
                    join, meet, mul, neg, recip_witnessed, signed_sum, sub)


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
_NUMBER = re.compile("[0-9]+(?:[.][0-9]+)?")   # a number token as typed


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


def _fail(text, tok):
    """Raise the ParseError for tok, showing a number as it was typed."""
    kind, value, position = tok
    if kind == "end":
        raise ParseError("unexpected end of input", position)
    shown = value if kind in ("name", "sym") else _NUMBER.match(text, position).group()
    raise ParseError("unexpected token '%s'" % shown, position)


def _literal(text, tokens, i):
    """The number at tokens[i] as a Fraction, and the index after it.
    integer/integer folds into one rational, for nonzero denominators only:
    p/0 stays a division and fails at evaluation."""
    kind, value, _ = tokens[i]
    if kind == "int":
        if tokens[i + 1][1] == "/" and tokens[i + 2][0] == "int" and tokens[i + 2][1]:
            return Fraction(value, tokens[i + 2][1]), i + 3
        return Fraction(value), i + 1
    if kind != "dec":
        _fail(text, tokens[i])
    return value, i + 1


# Only 'sym' tokens carry a str of punctuation, so the parser tells symbols
# apart by the token's value alone.  The pending stack holds Neg, pairs
# (binding, node class) for binary operators, which associate left, and
# triples (0, builder, closer) for open frames, whose binding 0 stops every
# reduction.  max and min close their first argument with ',' and then
# reopen as (0, Max, ')').
_BINARY = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}
_GROUP = (0, None, ")")
_FUNCTIONS = {"max": (0, Max, ","), "min": (0, Min, ","), "abs": (0, Abs, ")")}


def parse(text):
    """Parse an expression; raises ParseError with a position on bad input.

    The AST, and the failing token and message, are the grammar's recursive
    descent's; the left operands wait on a second stack."""
    tokens = tokenize(text)
    operands = []
    pending = []
    i = 0
    while True:
        # Prefix minuses and frame openers, up to one operand.
        tok = tokens[i]
        kind, value, _ = tok
        if kind == "sym":
            i += 1
            if value == "-":
                pending.append(Neg)
            elif value == "(":
                pending.append(_GROUP)
            else:
                _fail(text, tok)
            continue
        if kind == "name":
            frame = _FUNCTIONS.get(value)
            if frame is None and value != "below":
                raise ParseError("unknown function '%s'" % value, tok[2])
            if tokens[i + 1][1] != "(":
                _fail(text, tokens[i + 1])
            i += 2
            if frame is not None:
                pending.append(frame)
                continue
            negative = tokens[i][1] == "-"
            if negative:
                i += 1
            q, i = _literal(text, tokens, i)
            if tokens[i][1] != ")":
                _fail(text, tokens[i])
            i += 1
            node = FromBelow(-q if negative else q)
        else:
            q, i = _literal(text, tokens, i)
            node = RatLit(q)
        # node is an operand: apply its prefix minuses, then reduce what the
        # next token closes, until that token needs another operand.  Once
        # the minuses are applied no Neg is on top, and none ever lies right
        # under an operator, so pending[-1][0] reads only tuples.
        while True:
            while pending and pending[-1] is Neg:
                pending.pop()
                node = Neg(node)
            tok = tokens[i]
            i += 1
            binary = _BINARY.get(tok[1]) if tok[0] == "sym" else None
            if binary is not None:
                binding = binary[0]
                while pending and pending[-1][0] >= binding:
                    node = pending.pop()[1](operands.pop(), node)
                operands.append(node)
                pending.append(binary)
                break
            while pending and pending[-1][0]:
                node = pending.pop()[1](operands.pop(), node)
            if not pending:
                if tok[0] != "end":
                    _fail(text, tok)
                return node
            _, builder, closer = pending.pop()
            if tok[1] != closer:
                _fail(text, tok)
            if closer == ",":
                operands.append(node)
                pending.append((0, builder, ")"))
                break
            if builder is Abs:
                node = Abs(node)
            elif builder is not None:
                node = builder(operands.pop(), node)


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


# Markers of the post-order walks: the node under a marker has the results
# of its two (one) operands on top of the result stack.  Under _SUM_DONE
# lies the list of a sum chain's signs, one per term result on the stack.
_TWO_DONE = object()
_ONE_DONE = object()
_SUM_DONE = object()

# The sign of the right operand of each node of a sum chain.
_SIGNS = {Add: True, Sub: False}


def format_expr(node):
    """Print an expression so that parsing the output reproduces the AST.

    That holds for every AST the parser makes.  The parser makes negative
    literals only inside below(...); elsewhere a negative RatLit prints as
    -p/q, which parses as Neg of the positive literal, the same value.
    """
    texts = []
    todo = [node]
    while todo:
        node = todo.pop()
        if node is _TWO_DONE:
            node = todo.pop()
            right = texts.pop()
            texts[-1] = _NODES[type(node)][0] % (texts[-1], right)
        elif node is _ONE_DONE:
            node = todo.pop()
            texts[-1] = _NODES[type(node)][0] % texts[-1]
        elif type(node) not in _NODES:
            raise TypeError("not an expression node: %r" % (node,))
        elif isinstance(node, _Binary):
            todo += (node, _TWO_DONE, node.right, node.left)
        elif isinstance(node, _Unary):
            todo += (node, _ONE_DONE, node.operand)
        else:
            texts.append(_NODES[type(node)][0] % format_rat(node.value))
    return texts[0]


def build_real(node, witness_fuel=64):
    """Evaluate an AST into a real.

    Division searches an apartness witness for its denominator within
    witness_fuel stages; a failed search raises WitnessSearchError rather
    than returning a bogus real.

    A + or - whose left operand is also a + or - heads a chain of three or
    more terms, as the parser makes a left-deep sum; the whole chain becomes
    one signed sum (reals.signed_sum), which reads each term at k + e + 1
    for n <= 2**e terms and evaluates in one frame however long it is.  A
    lone + or - stays a two-term sum.

    Equal subexpressions become one point, so its approximations and its
    witness search are done once.  A table that lives for this call maps a
    leaf's (class, numerator, denominator), an operation's (class, ids of
    its operands' reals) and a chain's (marker, signs, ids of its terms'
    reals) to the real built for it; it holds every real whose id it uses,
    so no id is reused while it lives.  A key costs O(1) per node, where
    hashing the AST would cost its size.

    Left operands, and so their witness searches, are built first.
    """
    shared = {}
    reals = []
    todo = [node]
    while todo:
        node = todo.pop()
        if node is _TWO_DONE:
            node = todo.pop()
            right = reals.pop()
            operands = (reals.pop(), right)
            key = (type(node), id(operands[0]), id(right))
        elif node is _ONE_DONE:
            node = todo.pop()
            operands = (reals.pop(),)
            key = (type(node), id(operands[0]))
        elif type(node) not in _NODES:
            # The sum marker is looked for only here, off the nodes' path.
            if node is not _SUM_DONE:
                raise TypeError("not an expression node: %r" % (node,))
            signs = tuple(todo.pop())
            terms = reals[-len(signs):]
            del reals[-len(signs):]
            key = (_SUM_DONE, signs, *map(id, terms))
            real = shared.get(key)
            if real is None:
                real = shared[key] = signed_sum(terms, signs)
            reals.append(real)
            continue
        elif isinstance(node, _Binary):
            plus = _SIGNS.get(type(node))
            if plus is None or type(node.left) not in _SIGNS:
                todo += (node, _TWO_DONE, node.right, node.left)
                continue
            # Down the left spine, the right operands from the last term
            # back, so that the first term is built first.
            signs = []
            todo += (signs, _SUM_DONE)
            while plus is not None:
                signs.append(plus)
                todo.append(node.right)
                node = node.left
                plus = _SIGNS.get(type(node))
            signs.append(True)
            signs.reverse()
            todo.append(node)
            continue
        elif isinstance(node, _Unary):
            todo += (node, _ONE_DONE, node.operand)
            continue
        else:
            operands = (node.value,)
            key = (type(node), node.value.numerator, node.value.denominator)
        real = shared.get(key)
        if real is None:
            operation = _NODES[type(node)][1]
            if operation is _divide:
                real = _divide(*operands, witness_fuel)
            else:
                real = operation(*operands)
            shared[key] = real
        reals.append(real)
    return reals[0]
