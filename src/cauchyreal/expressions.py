"""Expression front end: one lexeme scan, a parser into postfix order, and
evaluation of that order, or of its text, into a real.

Text becomes leaf-level lexemes in one regex scan: each literal, p/q
included, and each well-formed below(...) is one lexeme, as is each symbol
and name.  parse makes the lexemes one postfix order, by a shunting-yard
loop with pending operators and open frames on an explicit stack.  A
literal or below(...) is a triple (maker, numerator, denominator), its
integers in lowest terms, where maker is _literal or reals._Below, the
function that makes its real from those integers.  An operation is the
reals operation itself, after its operands: neg, absolute, mul, _divide,
join or meet, or add or sub, which mark the links of a chain of + and -
for build_real.  Each distinct leaf lexeme of a text is read into its
triple once, and its repeats share that triple.  build_real reads the
order in one loop, on a stack of reals, so parsing and building have no
depth limit.  A leaf's triple is build_real's key for sharing it, and its
real is made once per value: a literal's Fraction is its exact tag, and a
below(...) leaf is one object that makes no Fraction.  build_real makes a
chain of + and - one signed sum of all its terms, so a sum of any length
evaluates in one frame.  Approximating other nesting still recurses, one
frame per level (completion._Operation.scaled reads its operands), so
about 990 levels of it evaluate at the default recursion limit, and the
CLI reports deeper nesting as error=depth.

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

from .rational import _coprime, parse_int
from .reals import (CReal, _Below, absolute, add, find_apart_witness, join, meet, mul, neg,
                    recip_witnessed, signed_sum, sub)


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


def _literal(n, d):
    """The exact real n/d, for n and d > 0 in lowest terms."""
    return CReal(exact=_coprime(n, d))


def _divide(numer, denom, witness_fuel):
    witness = find_apart_witness(denom, witness_fuel)
    if witness is None:
        raise WitnessSearchError(witness_fuel)
    return mul(numer, recip_witnessed(denom, witness))


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
# symbols apart by the word alone.  The pending stack holds neg, pairs
# (binding, operation) for binary operators, which associate left, and
# triples (0, operation, closer) for open frames, whose binding 0 stops
# every reduction.  A group's frame has no operation.  max and min close
# their first argument with ',' and then reopen as (0, join, ')').
_BINARY = {"+": (1, add), "-": (1, sub), "*": (2, mul), "/": (2, _divide)}
_FUNCTIONS = {"max": (0, join, ","), "min": (0, meet, ","), "abs": (0, absolute, ")")}


def parse(text):
    """The postfix order of an expression's text, as the module docstring
    describes it; raises ParseError with a position on bad input.
    build_real takes the order or the text.

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
                pending.append(neg)
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
            leaf = leaves[lexeme] = (_Below, -n if minus else n, d) if below else (_literal, n, d)
        order.append(leaf)
        # An operand is done: apply its prefix minuses, then reduce what the
        # next lexeme closes, until that lexeme needs another operand.  Once
        # the minuses are applied no neg is on top, and none ever lies right
        # under an operator, so pending[-1][0] reads only tuples.
        while True:
            while pending and pending[-1] is neg:
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
            _, operation, closer = pending.pop()
            if word != closer:
                _fail(text, i - 1)
            if closer == ",":
                pending.append((0, operation, ")"))
                break
            if operation is not None:
                order.append(operation)


def _close(result, shared):
    """The real of a result of build_real's stack: an open chain [signs,
    term, term, ...] is closed into one signed sum, shared by its signs and
    terms."""
    if type(result) is not list:
        return result
    signs, *terms = result
    signs = tuple(signs)
    key = (signs, tuple(map(id, terms)))
    real = shared.get(key)
    if real is None:
        real = shared[key] = signed_sum(terms, signs)
    return real


def build_real(expr, witness_fuel=64):
    """Evaluate an expression, its text or the postfix order parse gives
    for it, into a real.

    Division searches an apartness witness for its denominator within
    witness_fuel stages; a failed search raises WitnessSearchError rather
    than returning a bogus real.  Text is read into its postfix order whole
    before anything is built, so a ParseError anywhere in it comes before
    every witness search.

    An add or sub makes an open list of signs and terms, such as the
    parser's a + b - c makes one of three, and each add or sub whose left
    operand it is appends to it.  Any other use of it, as the operand of
    another operation or the right operand of an add or sub, and the end of
    the build close it.  A chain closes to one signed sum (reals.signed_sum),
    which reads each term at k + e + 1 for n <= 2**e terms and evaluates in
    one frame however long it is; a lone + or - is its two-term case, add or
    sub.

    Equal subexpressions become one point, so its approximations and its
    witness search are done once.  A table that lives for this call maps a
    leaf's triple, an operation's (operation, ids of its operands' reals)
    and a chain's (signs, ids of its terms' reals) to the real built for
    it; it holds every real whose id it uses, so no id is reused while it
    lives.  A leaf's key is its triple in the order itself, and its real is
    made from the triple's integers only when the key is new.  A key costs
    O(1) per node.

    Left operands, and so their witness searches, are built first.
    """
    shared = {}
    results = []
    for item in parse(expr) if isinstance(expr, str) else expr:
        if type(item) is tuple:
            real = shared.get(item)
            if real is None:
                make, n, d = item
                real = shared[item] = make(n, d)
            results.append(real)
        elif item is add or item is sub:
            right = _close(results.pop(), shared)
            left = results[-1]
            if type(left) is list:
                left[0].append(item is add)
                left.append(right)
            else:
                results[-1] = [[True, item is add], left, right]
        else:
            if item is neg or item is absolute:
                operands = (_close(results.pop(), shared),)
            else:
                right = results.pop()
                operands = (_close(results.pop(), shared), _close(right, shared))
            key = (item, *map(id, operands))
            real = shared.get(key)
            if real is None:
                real = shared[key] = (item(*operands, witness_fuel) if item is _divide
                                      else item(*operands))
            results.append(real)
    return _close(results[0], shared)
