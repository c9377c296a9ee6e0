"""Independent reference computations the tests compare against.

Everything here deliberately avoids the package's arithmetic: expression
values are computed structurally over Fractions, and the low-level rational
oracle works on raw integer pairs with its own normalization.  When a test
asserts against these, agreement means two separate routes reached the same
answer.  The one exception is the old compositions of |x| and of a
reciprocal by a negative witness, out of the package's own operations: the
one-node rules that replaced them must answer bit for bit as they did.
The expression reference is an AST of the grammar, a character lexer,
tokenize, which reads integers with int() and a Decimal fallback of its
own, and a recursive-descent parser on its tokens into that AST.  postorder
maps an AST to the postfix order the package's parse gives for its text,
and format_expr prints an AST as text that parses back to it.  The
enclosure reference, evaluate_enclosure, takes the package's own
eps-approximant m and makes [m - eps, m + eps] with Fraction arithmetic,
which eval's printer, working on m's integers, must match.  The
command-line reference is argparse itself, given the table of forms that
the package's own reader reads.
"""

import argparse
import math
import threading

from decimal import Decimal
from fractions import Fraction
from string import ascii_letters, digits

from cauchyreal import cli
from cauchyreal.expressions import ParseError, _divide, _literal, build_real
from cauchyreal.partiality import (PENDING, STAR, TOP, Done, Partial, _Never, _Now,
                                   never)
from cauchyreal.rational import Value, dyadic, format_rat
from cauchyreal.reals import (ApartnessWitness, _Below, absolute, add, join, meet, mul, neg,
                              recip_witnessed, sub)


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


# Node class -> its tag in the package's postfix order and its print
# template.  Binary operations print fully parenthesized, and a division's
# right operand gets its own parentheses so an integer/integer pair is not
# re-folded into a literal.
_NODES = {
    RatLit: (_literal, "%s"),
    FromBelow: (_Below, "below(%s)"),
    Neg: (neg, "-%s"),
    Abs: (absolute, "abs(%s)"),
    Add: (add, "(%s + %s)"),
    Sub: (sub, "(%s - %s)"),
    Mul: (mul, "(%s * %s)"),
    Div: (_divide, "(%s / (%s))"),
    Max: (join, "max(%s, %s)"),
    Min: (meet, "min(%s, %s)"),
}
_TEMPLATES = dict(_NODES.values())


def postorder(node):
    """The postfix order of an AST, as the package's parse gives it for the
    text the AST was parsed from, by a post-order walk on an explicit
    stack."""
    order = []
    todo = [node]
    while todo:
        item = todo.pop()
        if not isinstance(item, Value):  # an operation, its operands done
            order.append(item)
        elif isinstance(item, (RatLit, FromBelow)):
            q = item.value
            order.append((_NODES[type(item)][0], q.numerator, q.denominator))
        else:
            todo += (_NODES[type(item)][0], *reversed(item._values()))
    return order


def format_order(order):
    """Print a postfix order, the package's or postorder's, as text that
    parses back to it, folding it on a stack of texts."""
    texts = []
    for item in order:
        if type(item) is tuple:
            tag, n, d = item
            texts.append(_TEMPLATES[tag] % format_rat(Fraction(n, d)))
        elif item is neg or item is absolute:
            texts[-1] = _TEMPLATES[item] % texts[-1]
        else:
            right = texts.pop()
            texts[-1] = _TEMPLATES[item] % (texts[-1], right)
    return texts[0]


def format_expr(node):
    """Print an expression so that parsing the output reproduces the AST.

    That holds for every AST the parser makes.  The parser makes negative
    literals only inside below(...); elsewhere a negative RatLit prints as
    -p/q, which parses as Neg of the positive literal, the same value.
    """
    return format_order(postorder(node))


def eval_exact(node):
    """The exact rational an expression denotes.

    FromBelow denotes its value (the approximations just never reach it), and
    division is exact division; a zero denominator here is a broken test
    input, not a library case.
    """
    if isinstance(node, RatLit):
        return node.value
    if isinstance(node, FromBelow):
        return node.value
    if isinstance(node, Neg):
        return -eval_exact(node.operand)
    if isinstance(node, Abs):
        return abs(eval_exact(node.operand))
    if isinstance(node, Add):
        return eval_exact(node.left) + eval_exact(node.right)
    if isinstance(node, Sub):
        return eval_exact(node.left) - eval_exact(node.right)
    if isinstance(node, Mul):
        return eval_exact(node.left) * eval_exact(node.right)
    if isinstance(node, Div):
        return eval_exact(node.left) / eval_exact(node.right)
    if isinstance(node, Max):
        return max(eval_exact(node.left), eval_exact(node.right))
    if isinstance(node, Min):
        return min(eval_exact(node.left), eval_exact(node.right))
    raise TypeError("not an expression node: %r" % (node,))


def composed_absolute(x):
    """|x| as join(x, -x), two nodes."""
    return join(x, neg(x))


def composed_recip_witnessed(x, witness):
    """1/x, by a negative witness as -(1/(-x)): the positive rule on -x,
    between two negations."""
    if witness.positive:
        return recip_witnessed(x, witness)
    return neg(recip_witnessed(neg(x), ApartnessWitness(True, witness.gap)))


class Enclosure(Value):
    """An exact rational interval certified to contain a real."""

    __slots__ = ("lo", "hi")

    @property
    def width(self):
        return self.hi - self.lo

    def contains(self, q):
        return self.lo <= q <= self.hi


def evaluate_enclosure(text, prec_exponent, witness_fuel=None):
    """Build text's real and enclose its value within radius 2**-prec_exponent.

    Returns the midpoint's enclosure [m - eps, m + eps] where m is the
    eps-approximant; both endpoints are exact rationals.  It is the
    reference that eval's printer, which works on m's integers and makes
    no endpoint Fraction, is property-tested against.
    """
    point = build_real(text, cli._witness_fuel(witness_fuel, prec_exponent))
    eps = dyadic(prec_exponent)
    mid = point.approximate(eps)
    return Enclosure(mid - eps, mid + eps)


def norm_pair(n, d):
    """Lowest terms with positive denominator, by integer arithmetic only."""
    if d == 0:
        raise ZeroDivisionError
    if d < 0:
        n, d = -n, -d
    g = math.gcd(abs(n), d)
    if g:
        n //= g
        d //= g
    return n, d


def add_pair(a, b):
    return norm_pair(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def sub_pair(a, b):
    return norm_pair(a[0] * b[1] - b[0] * a[1], a[1] * b[1])


def mul_pair(a, b):
    return norm_pair(a[0] * b[0], a[1] * b[1])


def div_pair(a, b):
    return norm_pair(a[0] * b[1], a[1] * b[0])


def as_pair(q):
    return q.numerator, q.denominator


def first_k_with_margin(gap, factor):
    """The least k >= 0 with factor * 2**-k < gap, by exact search."""
    gap = Fraction(gap)
    k = 0
    while Fraction(factor, 2 ** k) >= gap:
        k += 1
    return k


def ceil_log2(q):
    """ceil(log2(q)) for positive rational q, by exact comparisons."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("need a positive rational")
    k = 0
    if q > 1:
        while Fraction(2) ** k < q:
            k += 1
        return k
    while Fraction(2) ** k > q:
        k -= 1
    # 2**k <= q; back off unless exactly on a power
    return k if Fraction(2) ** k == q else k + 1


# The full prefix scan as its own engine, with its own lock and stage cache:
# the reference that partiality.monotone_sup's scans are checked against,
# countable_sup's among them.
class _CountableSup(Partial):
    """Fires at fuel n iff some stage f(m) with m <= n is Done at fuel n.

    This is the general scan: the stages are arbitrary semi-decisions, not
    monotone, so every stage up to n is polled.
    close_semidecide's stages are of that kind: its threshold has no margin,
    so a firing stage does not make the finer ones fire, and closeness on
    nested carriers is a one-sided, fuel-bounded test.
    Joining the prefix of stages restores monotonicity, so f need not be
    increasing.  Stages are instantiated lazily and classified once:
    constant stages (now / never) are never re-polled, the scan stops at the
    first stage that is already Done, and the least fuel known to fire is
    cached, so repeated runs at growing fuel only pay for the indices not
    seen before.  A lock keeps concurrent runs consistent.
    """

    __slots__ = ("_f", "_lock", "_next", "_fired_at", "_live")

    def __init__(self, f):
        self._f = f
        self._lock = threading.Lock()
        self._next = 0          # first stage index not yet instantiated
        self._fired_at = None   # least fuel known to produce Done
        self._live = []         # (index, stage) with fuel-dependent outcomes

    def run(self, fuel):
        with self._lock:
            if self._fired_at is not None and fuel >= self._fired_at:
                return Done(STAR)
            while self._next <= fuel:
                m = self._next
                self._next += 1
                stage = self._f(m)
                if isinstance(stage, _Now):
                    # m <= fuel < any fuel known to fire, so m is the least
                    self._fired_at = m
                    return Done(STAR)
                if not isinstance(stage, _Never):
                    self._live.append((m, stage))
            for m, stage in self._live:
                if m <= fuel and stage.run(fuel) is not PENDING:
                    if self._fired_at is None or fuel < self._fired_at:
                        self._fired_at = fuel
                    return Done(STAR)
            return PENDING


def full_prefix_scan(f):
    """countable_sup's outcomes by a separate engine: Done(STAR) at fuel n iff
    some f(m) with m <= n is Done at fuel n."""
    return _CountableSup(f)


def full_scan_lt(x, q):
    """x < q semi-decided by the stage rule of lt_rat_semidecide as a full
    prefix scan: at fuel n, every stage m <= n is polled until one fires."""
    def stage(k):
        d = dyadic(k)
        return TOP if x.approximate(d) < q - 2 * d else never()

    return full_prefix_scan(stage)


def linear_witness(x, fuel):
    """The apartness witness of find_apart_witness's stage rule by a linear
    scan: the first stage k <= fuel with |x(2**-k)| > 2 * 2**-k, whose
    approximant's sign and 2**-k make the witness; None if none passes."""
    for k in range(fuel + 1):
        d = dyadic(k)
        a = x.approximate(d)
        if abs(a) > 2 * d:
            return ApartnessWitness(a > 0, d)
    return None


def _digits_value(run):
    """The integer a run of ASCII digits denotes, of any length: Decimal
    reads what int() refuses past the str-to-int digit limit."""
    try:
        return int(run)
    except ValueError:
        return int(Decimal(run))


def tokenize(text):
    """Split text into (kind, value, position) tokens, one character at a
    time: the grammar's token-level view, which _Parser reads.

    Kinds: 'int' carries an int and 'dec' an exact Fraction, of any length,
    and the distinction lets a parser fold p/q literals; 'name' carries an
    identifier; 'sym' one of + - * / ( ) ,; 'end' marks exhaustion.  A
    stray character raises ParseError at its position.
    """
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/(),":
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
                value = Fraction(_digits_value(text[start:point] + text[point + 1:i]),
                                 10 ** (i - point - 1))
                tokens.append(("dec", value, start))
            else:
                tokens.append(("int", _digits_value(text[start:i]), start))
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


# A recursive-descent parser of the same grammar, one method per rule, into
# the AST: the reference the stack parser in expressions.parse is checked
# against, through postorder.  It
# recurses four Python frames per level of nesting.
class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
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
        if kind in ("name", "sym"):
            shown = value
        else:
            # a number as typed: up to the next token, less the blanks between
            end = next(t[2] for t in self.tokens if t[2] > position)
            shown = self.text[position:end].rstrip()
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
    """Parse an expression into its AST; raises ParseError with a position
    on bad input."""
    parser = _Parser(text)
    node = parser.expr()
    tail = parser.peek()
    if tail[0] != "end":
        parser.fail(tail)
    return node


def recursive_order(text):
    """The postfix order of the AST that the recursive-descent parser makes
    of text."""
    return postorder(parse(text))


def parse_outcome(parse_text, text):
    """What parse_text makes of text, or its ParseError's message and
    position."""
    try:
        return parse_text(text)
    except ParseError as exc:
        return str(exc), exc.position


class ArgparseUsageError(Exception):
    """A usage error of the reference parser, with argparse's message."""


class _Help(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # usage errors and -h raise instead of printing and exiting
    def error(self, message):
        raise ArgparseUsageError(message)

    def print_help(self, file=None):
        raise _Help


def _argparse_type(read):
    """read as an argparse type: its ValueError's text becomes the message."""
    def convert(text):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _build_argparse_parser():
    """The argparse parser of cli._FORMS: a subcommand for each command, with
    its positionals and its flags."""
    parser = _ArgumentParser(prog="creal")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, names, flags) in cli._FORMS.items():
        sub = commands.add_parser(command)
        for name in names:
            sub.add_argument(name)
        for flag, (dest, default, read) in flags.items():
            sub.add_argument(flag, dest=dest, default=default, type=_argparse_type(read))
    return parser


ARGPARSE_PARSER = _build_argparse_parser()


def argparse_read(argv):
    """What argparse reads argv as, in cli._read_argv's terms: the command and
    its keyword arguments, or None for a help request; a usage error raises
    ArgparseUsageError."""
    try:
        args = vars(ARGPARSE_PARSER.parse_args(argv))
    except _Help:
        return None
    return args.pop("command"), args
