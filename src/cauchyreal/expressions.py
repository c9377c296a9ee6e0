"""Expression front end: AST, one lexeme scan, parser, printer, and
evaluation of an expression, or of its text, into a real.

Text becomes leaf-level lexemes in one regex scan: each literal, p/q
included, and each well-formed below(...) is one lexeme, as is each symbol
and name.  The lexemes become one postfix order: a triple (class,
numerator, denominator) for each literal and below(...), its integers in
lowest terms, and each operation's node class after its operands.  A
shunting-yard loop makes that order, with pending operators and open frames
on an explicit stack, and one post-order walk, also on an explicit stack,
makes the same order from an AST.  Each distinct leaf lexeme of a text is
read into its triple once, and its repeats share that triple.  parse and
format_expr fold the order on a stack of results, AST nodes and text
(_fold); build_real reads it in a loop of its own on a stack of reals
(_build).  So parsing, printing and building have no depth limit, and
building from text makes no AST.  A literal's triple is build_real's key
for sharing it, and its leaf is made from the integer pair alone, once per
value: a literal's Fraction is its exact tag, and a below(...) leaf is one
object that makes no Fraction (reals._Below).  build_real makes a
chain of + and - one signed sum of all its terms, so a sum of any
length evaluates in one frame.  Approximating other nesting still recurses,
one frame per level (CompletionPoint.scaled reads an operation's operands),
so about 990 levels of it evaluate at the default recursion limit, and
the CLI reports deeper nesting as error=depth.

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

from math import gcd

from .rational import Value, _coprime, format_rat, parse_int
from .reals import (CReal, _Below, absolute, find_apart_witness, join, meet, mul, neg,
                    recip_witnessed, signed_sum)


class RatLit(Value):
    __slots__ = ("value",)


class FromBelow(Value):
    """The canonical strictly-increasing approximation of a rational:
    the limit of eps -> value - eps.  Denotes value, and carries no exact
    tag, which makes it the stock generic-path test subject.  Its own
    approximate never reports value; its integer answers, and what an
    operation computes from them, may (see reals.from_below)."""

    __slots__ = ("value",)


class _Unary(Value):
    __slots__ = ("operand",)


class _Binary(Value):
    __slots__ = ("left", "right")


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

# One lexeme: blanks, then a whole leaf, a symbol or name or stray character,
# or the end of the text.  A leaf is an integer, a decimal or integer/integer,
# alone or inside below( [-] ... ).  The denominator is nonzero with no digit
# or .digit after it, so 1/0, 1/2.5 and 2.5/2 stay divisions.  No two
# quantifiers can match the same characters next to each other, and the end
# takes a trailing blank run whole, so every scan runs in linear time.
_LEXEME = re.compile(r"\s*(?:(?:(below)\s*\(\s*(?:(-)\s*)?)?([0-9]+)"
                     r"(?:\.([0-9]+)|\s*/\s*(0*[1-9][0-9]*)(?![0-9]|\.[0-9]))?(?(1)\s*\))"
                     r"|([-+*/(),]|[A-Za-z]+|.)|\Z)", re.DOTALL)


def _fail(text, index, message="unexpected token '%s'"):
    """Raise the ParseError for lexeme number index of text, found again by
    _LEXEME.finditer.  A stray character anywhere in text is reported
    first, at its position; otherwise the error is message with the
    lexeme's first token as typed, at its position."""
    lexemes = [*_LEXEME.finditer(text)]
    for lexeme in lexemes:
        word = lexeme[6]
        if word and word not in _SYMBOLS and not (word.isascii() and word.isalpha()):
            raise ParseError("unexpected character %r" % word, lexeme.start(6))
    lexeme = lexemes[index]
    position = lexeme.end() - len(lexeme[0].lstrip())
    below, _, whole, decimals, _, word = lexeme.groups("")
    if not (below or whole or word):
        raise ParseError("unexpected end of input", position)
    shown = below or word or (whole + "." + decimals if decimals else whole)
    raise ParseError(message % shown, position)


def _bad_below(text, lexemes, i):
    """Fail at the first lexeme from number i on that breaks ( [-] literal ),
    the rest of a below(...) that _LEXEME could not read whole."""
    if lexemes[i][5] == "(":
        i += 1 + (lexemes[i + 1][5] == "-")
        if lexemes[i][2] and not lexemes[i][0]:
            i += 1
    _fail(text, i)


# A lexeme's word is a symbol, a name or a stray, so the parser tells
# symbols apart by the word alone.  The pending stack holds Neg, pairs
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

    The order, and the failing token and message, are those of a
    recursive descent of the grammar, save that a stray character anywhere
    in the text is reported before anything else, at its position.  The
    recursive-descent parser in tests/oracles.py is the oracle they are
    checked against.  An operator leaves the pending stack when the next
    lexeme closes it.  Lexemes are read by index, each a tuple of _LEXEME's
    groups: (below, minus, integer, decimal digits, denominator, word), ''
    where absent; the end's are all ''.  A leaf's groups hold no blanks and
    key a table that lives for this call, so each distinct leaf lexeme is
    read into its triple once, and its repeats, however blanks space them,
    append that same triple."""
    lexemes = _LEXEME.findall(text)
    leaves = {}
    order = []
    pending = []
    i = 0
    while True:
        # Prefix minuses and frame openers, up to one operand.
        lexeme = lexemes[i]
        below, minus, whole, decimals, den, word = lexeme
        i += 1
        if not whole:
            if word == "-":
                pending.append(Neg)
            elif word == "(":
                pending.append((0, None, ")"))
            elif word in _FUNCTIONS:
                if lexemes[i][5] != "(":
                    _fail(text, i)
                i += 1
                pending.append(_FUNCTIONS[word])
            elif word == "below":
                _bad_below(text, lexemes, i)
            else:
                _fail(text, i - 1, "unknown function '%s'" if word.isalpha()
                      else "unexpected token '%s'")
            continue
        leaf = leaves.get(lexeme)
        if leaf is None:
            if decimals:
                n = parse_int(whole + decimals)
                d = 10 ** len(decimals)
            else:
                n = parse_int(whole)
                d = parse_int(den) if den else 1
            if d != 1:
                g = gcd(n, d)
                n //= g
                d //= g
            leaf = leaves[lexeme] = (FromBelow, -n if minus else n, d) if below else (RatLit, n, d)
        order.append(leaf)
        # An operand is done: apply its prefix minuses, then reduce what the
        # next lexeme closes, until that lexeme needs another operand.  Once
        # the minuses are applied no Neg is on top, and none ever lies right
        # under an operator, so pending[-1][0] reads only tuples.
        while True:
            while pending and pending[-1] is Neg:
                order.append(pending.pop())
            lexeme = lexemes[i]
            word = lexeme[5]
            i += 1
            binary = _BINARY.get(word)
            if binary is not None:
                binding = binary[0]
                while pending and pending[-1][0] >= binding:
                    order.append(pending.pop()[1])
                pending.append(binary)
                break
            while pending and pending[-1][0]:
                order.append(pending.pop()[1])
            if not pending:
                if any(lexeme):  # anything but the end
                    _fail(text, i - 1)
                return order
            _, cls, closer = pending.pop()
            if word != closer:
                _fail(text, i - 1)
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
    right.  parse and format_expr fold with it; they are off the CLI's
    answering path, and _build reads the order in a loop of its own."""
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
    on bad input.  The CLI does not call it: build_real reads text straight
    into its postfix order."""
    return _fold(_postfix(text), _node_leaf, _node)


def _divide(numer, denom, witness_fuel):
    witness = find_apart_witness(denom, witness_fuel)
    if witness is None:
        raise WitnessSearchError(witness_fuel)
    return mul(numer, recip_witnessed(denom, witness))


# Node class -> (print template, reals operation).  A literal's operation
# takes its numerator and denominator in lowest terms; the others take their
# operands' reals, and division also the witness budget.  + and - have only
# a template: _build makes every chain of them one signed sum.  Binary
# operations print fully parenthesized, and a division's right operand gets
# its own parentheses so an integer/integer pair is not re-folded into a
# literal.
_NODES = {
    RatLit: ("%s", lambda n, d: CReal(exact=_coprime(n, d))),
    FromBelow: ("below(%s)", _Below),
    Neg: ("-%s", neg),
    Abs: ("abs(%s)", absolute),
    Add: ("(%s + %s)",),
    Sub: ("(%s - %s)",),
    Mul: ("(%s * %s)", mul),
    Div: ("(%s / (%s))", _divide),
    Max: ("max(%s, %s)", join),
    Min: ("min(%s, %s)", meet),
}

def _print_leaf(cls, n, d):
    return _NODES[cls][0] % format_rat(_coprime(n, d))


def _print_operation(cls, *texts):
    return _NODES[cls][0] % texts


def format_expr(node):
    """Print an expression so that parsing the output reproduces the AST.

    That holds for every AST the parser makes.  The parser makes negative
    literals only inside below(...); elsewhere a negative RatLit prints as
    -p/q, which parses as Neg of the positive literal, the same value.
    Like parse, it is off the CLI's answering path.
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
    close it.  A chain closes to one signed sum (reals.signed_sum), which
    reads each term at k + e + 1 for n <= 2**e terms and evaluates in one
    frame however long it is; a lone + or - is its two-term case, add or
    sub.

    Equal subexpressions become one point, so its approximations and its
    witness search are done once.  A table that lives for this call maps a
    leaf's (class, numerator, denominator), an operation's (class, ids of
    its operands' reals) and a chain's (signs, ids of its terms' reals) to
    the real built for it; it holds every real whose id it uses, so no id
    is reused while it lives.  A leaf's key is its triple in the postfix
    order itself, and its real is made from the triple's integers only when
    the key is new: a literal makes one Fraction, its exact tag, and a
    below(...) leaf none (reals._Below).  A key costs O(1) per node, where
    hashing the AST would cost its size.  _build reads the order in one loop
    of its own, not through _fold's callbacks.

    Left operands, and so their witness searches, are built first.
    """
    return _build(_postfix(expr) if isinstance(expr, str) else _postorder(expr),
                  witness_fuel)


def _close(result, shared):
    """The real of a result of _build: an open chain [signs, term, term,
    ...] is closed into one signed sum, shared by its signs and terms."""
    if type(result) is not list:
        return result
    signs, *terms = result
    signs = tuple(signs)
    key = (signs, tuple(map(id, terms)))
    real = shared.get(key)
    if real is None:
        real = shared[key] = signed_sum(terms, signs)
    return real


def _build(order, witness_fuel):
    """The real of a postfix order, as build_real describes it: _fold's
    loop, on a stack of reals and open chains, with each step written
    inline rather than called."""
    shared = {}
    results = []
    for item in order:
        if type(item) is tuple:
            real = shared.get(item)
            if real is None:
                cls, n, d = item
                real = shared[item] = _NODES[cls][1](n, d)
            results.append(real)
        elif item is Add or item is Sub:
            right = _close(results.pop(), shared)
            left = results[-1]
            if type(left) is list:
                left[0].append(item is Add)
                left.append(right)
            else:
                results[-1] = [[True, item is Add], left, right]
        else:
            if item is Neg or item is Abs:
                operands = (_close(results.pop(), shared),)
            else:
                right = results.pop()
                operands = (_close(results.pop(), shared), _close(right, shared))
            key = (item, *map(id, operands))
            real = shared.get(key)
            if real is None:
                make = _NODES[item][1]
                real = shared[key] = (make(*operands, witness_fuel) if make is _divide
                                      else make(*operands))
            results.append(real)
    return _close(results[0], shared)
