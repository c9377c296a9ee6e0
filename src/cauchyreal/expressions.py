"""Expression front end: AST, tokenizer, parser, printer, and evaluation of
an expression, or of its text, into a real.

Text becomes tokens, and the tokens one postfix order: a triple (class,
numerator, denominator) for each literal and below(...), its integers in
lowest terms, and each operation's node class after its operands.  A
shunting-yard loop makes that order, with pending operators and open frames
on an explicit stack, and one post-order walk, also on an explicit stack,
makes the same order from an AST.  parse, format_expr and build_real are
three folds of the order on a stack of results: AST nodes, text and reals.
So parsing, printing and building have no depth limit, and building from
text makes no AST.  A literal's triple is build_real's key for sharing it,
so a Fraction is made only for the first leaf of each value.  build_real
makes a chain of + and - one signed sum of all its terms, so a sum of any
length evaluates in one frame.  Approximating other nesting still recurses,
one frame per level (CompletionPoint.scaled reads an operation's operands),
so about 990 levels of it evaluate at the default recursion limit.

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
from math import gcd
from string import ascii_letters, digits

from .rational import _coprime, format_rat, parse_int
from .reals import (absolute, add, find_apart_witness, from_below, from_rat,
                    join, meet, mul, neg, recip_witnessed, signed_sum, sub)


@dataclass(frozen=True)
class RatLit:
    value: Fraction


@dataclass(frozen=True)
class FromBelow:
    """The canonical strictly-increasing approximation of a rational:
    the limit of eps -> value - eps.  Denotes value, and carries no exact
    tag, which makes it the stock generic-path test subject.  Its own
    approximate never reports value; its integer answers, and what an
    operation computes from them, may (see reals.from_below)."""
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
    """The number at tokens[i] as a pair (numerator, denominator) in lowest
    terms, and the index after it.  integer/integer folds into one rational,
    for nonzero denominators only: p/0 stays a division and fails at
    evaluation."""
    kind, value, _ = tokens[i]
    if kind == "int":
        if tokens[i + 1][1] == "/" and tokens[i + 2][0] == "int" and tokens[i + 2][1]:
            d = tokens[i + 2][1]
            g = gcd(value, d)
            return value // g, d // g, i + 3
        return value, 1, i + 1
    if kind != "dec":
        _fail(text, tokens[i])
    return value.numerator, value.denominator, i + 1


# Only 'sym' tokens carry a str of punctuation, so the parser tells symbols
# apart by the token's value alone.  The pending stack holds Neg, pairs
# (binding, node class) for binary operators, which associate left, and
# triples (0, node class, closer) for open frames, whose binding 0 stops
# every reduction.  A group's frame has no class.  max and min close their
# first argument with ',' and then reopen as (0, Max, ')').
_BINARY = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}
_FUNCTIONS = {"max": (0, Max, ","), "min": (0, Min, ","), "abs": (0, Abs, ")")}


def _postfix(text):
    """The postfix order of an expression's text: a triple (class,
    numerator, denominator), in lowest terms, for each literal and
    below(...), and each operation's node class after its operands.
    Raises ParseError with a position on bad input.

    The order, and the failing token and message, are the grammar's
    recursive descent's: an operator leaves the pending stack when the next
    token closes it."""
    tokens = tokenize(text)
    order = []
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
                pending.append((0, None, ")"))
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
            n, d, i = _literal(text, tokens, i)
            if tokens[i][1] != ")":
                _fail(text, tokens[i])
            i += 1
            order.append((FromBelow, -n if negative else n, d))
        else:
            n, d, i = _literal(text, tokens, i)
            order.append((RatLit, n, d))
        # An operand is done: apply its prefix minuses, then reduce what the
        # next token closes, until that token needs another operand.  Once
        # the minuses are applied no Neg is on top, and none ever lies right
        # under an operator, so pending[-1][0] reads only tuples.
        while True:
            while pending and pending[-1] is Neg:
                order.append(pending.pop())
            tok = tokens[i]
            i += 1
            binary = _BINARY.get(tok[1]) if tok[0] == "sym" else None
            if binary is not None:
                binding = binary[0]
                while pending and pending[-1][0] >= binding:
                    order.append(pending.pop()[1])
                pending.append(binary)
                break
            while pending and pending[-1][0]:
                order.append(pending.pop()[1])
            if not pending:
                if tok[0] != "end":
                    _fail(text, tok)
                return order
            _, cls, closer = pending.pop()
            if tok[1] != closer:
                _fail(text, tok)
            if closer == ",":
                pending.append((0, cls, ")"))
                break
            if cls is not None:
                order.append(cls)


# The marker of the AST walk: the node class under it follows its operands.
_DONE = object()


def _postorder(node):
    """The postfix order of an AST, as _postfix gives it for the text the
    AST was parsed from.  Raises TypeError for anything that is not a node,
    so before any fold reads an operand."""
    order = []
    todo = [node]
    while todo:
        node = todo.pop()
        if node is _DONE:
            order.append(todo.pop())
        elif type(node) not in _NODES:
            raise TypeError("not an expression node: %r" % (node,))
        elif isinstance(node, _Binary):
            todo += (type(node), _DONE, node.right, node.left)
        elif isinstance(node, _Unary):
            todo += (type(node), _DONE, node.operand)
        else:
            q = node.value
            order.append((type(node), q.numerator, q.denominator))
    return order


def _fold(order, leaf, operation):
    """Reduce a postfix order on a stack of results: leaf(cls, n, d) for
    each literal n/d, and operation(cls, *results) of each operation's
    operands.  Results are made left to right, so a left operand's before a
    right."""
    results = []
    for item in order:
        if type(item) is tuple:
            results.append(leaf(*item))
        elif item is Neg or item is Abs:
            results[-1] = operation(item, results[-1])
        else:
            right = results.pop()
            results[-1] = operation(item, results[-1], right)
    return results[0]


def _node(cls, *operands):
    return cls(*operands)


def _node_leaf(cls, n, d):
    return cls(_coprime(n, d))


def parse(text):
    """Parse an expression into its AST; raises ParseError with a position
    on bad input."""
    return _fold(_postfix(text), _node_leaf, _node)


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

# The sign of the right operand of a + or -.
_SIGNS = {Add: True, Sub: False}


def _print_leaf(cls, n, d):
    return _NODES[cls][0] % format_rat(_coprime(n, d))


def _print_operation(cls, *texts):
    return _NODES[cls][0] % texts


def format_expr(node):
    """Print an expression so that parsing the output reproduces the AST.

    That holds for every AST the parser makes.  The parser makes negative
    literals only inside below(...); elsewhere a negative RatLit prints as
    -p/q, which parses as Neg of the positive literal, the same value.
    """
    return _fold(_postorder(node), _print_leaf, _print_operation)


def build_real(expr, witness_fuel=64):
    """Evaluate an expression, an AST or its text, into a real.

    Division searches an apartness witness for its denominator within
    witness_fuel stages; a failed search raises WitnessSearchError rather
    than returning a bogus real.  Text is read into its postfix order whole
    before anything is built, so a ParseError anywhere in it comes before
    every witness search; it builds no AST.

    A + or - makes an open list of signs and terms, such as the parser's
    a + b - c makes one of three, and each + or - whose left operand it is
    appends to it.  Any other use of it, as the operand of another
    operation or the right operand of a + or -, and the end of the build
    close it.  A chain of three or more terms closes to one signed sum
    (reals.signed_sum), which reads each term at k + e + 1 for n <= 2**e
    terms and evaluates in one frame however long it is.  A lone + or -
    stays a two-term sum.

    Equal subexpressions become one point, so its approximations and its
    witness search are done once.  A table that lives for this call maps a
    leaf's (class, numerator, denominator), an operation's (class, ids of
    its operands' reals) and a chain's (signs, ids of its terms' reals) to
    the real built for it; it holds every real whose id it uses, so no id
    is reused while it lives.  A leaf's key is its triple in the postfix
    order, and its Fraction is made only when the key is new.  A key costs
    O(1) per node, where hashing the AST would cost its size.

    Left operands, and so their witness searches, are built first.
    """
    return _build(_postfix(expr) if isinstance(expr, str) else _postorder(expr),
                  witness_fuel)


def _build(order, witness_fuel):
    """The real of a postfix order, as build_real describes it."""
    shared = {}

    def leaf(*key):
        real = shared.get(key)
        if real is None:
            cls, n, d = key
            real = shared[key] = _NODES[cls][1](_coprime(n, d))
        return real

    def built(cls, *operands):
        # The shared real of the operation cls on its operands' reals.
        key = (cls, *map(id, operands))
        real = shared.get(key)
        if real is None:
            make = _NODES[cls][1]
            real = shared[key] = (make(*operands, witness_fuel) if make is _divide
                                  else make(*operands))
        return real

    def close(result):
        # The real of a result: an open chain [signs, term, term, ...] is
        # closed, and two terms make the binary operation, not a chain.
        if type(result) is not list:
            return result
        signs, *terms = result
        if len(terms) == 2:
            return built(Add if signs[1] else Sub, *terms)
        signs = tuple(signs)
        key = (signs, tuple(map(id, terms)))
        real = shared.get(key)
        if real is None:
            real = shared[key] = signed_sum(terms, signs)
        return real

    def operation(cls, *operands):
        plus = _SIGNS.get(cls)
        if plus is None:
            return built(cls, *map(close, operands))
        left, right = operands
        if type(left) is not list:
            return [[True, plus], left, close(right)]
        left[0].append(plus)
        left.append(close(right))
        return left

    return close(_fold(order, leaf, operation))
