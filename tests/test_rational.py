import math
import os
import pickle
import random
import subprocess
import sys

from fractions import Fraction

import pytest

from pathlib import Path

from cauchyreal import QPos, Rat, close_q, dyadic, format_rat, rational
from cauchyreal.rational import _coprime, format_int, parse_int

from oracles import add_pair, as_pair, div_pair, mul_pair, sub_pair


def test_rat_is_exact_and_normalized():
    assert Rat(6, 4) == Rat(3, 2)
    assert Rat(6, 4).numerator == 3 and Rat(6, 4).denominator == 2
    assert Rat(3, -6).denominator == 2 and Rat(3, -6).numerator == -1
    assert Rat(0, 5).denominator == 1


def test_rat_text_forms():
    assert Rat("3/2") == Rat(3, 2)
    assert Rat("-3/2") == Rat(-3, 2)
    assert Rat("3.14") == Rat(157, 50)
    assert Rat("-0.125") == Rat(-1, 8)


def test_qpos_accepts_positive():
    assert QPos(1, 3) == Fraction(1, 3)
    assert QPos(Fraction(7, 2)) == Fraction(7, 2)


@pytest.mark.parametrize("num, den", [(0, 1), (-1, 3), (1, -3)])
def test_qpos_rejects_nonpositive(num, den):
    with pytest.raises(ValueError):
        QPos(num, den)


def test_qpos_closure_under_arithmetic():
    # results come back as plain Fractions but stay positive, so they
    # re-wrap losslessly
    rng = random.Random(7)
    for _ in range(200):
        a = QPos(rng.randint(1, 999), rng.randint(1, 999))
        b = QPos(rng.randint(1, 999), rng.randint(1, 999))
        for value in (a + b, a * b, a / b, a / 2, min(a, b)):
            assert value > 0
            assert QPos(value) == value


def test_close_q_is_strict():
    assert not close_q(Fraction(1), Fraction(0), Fraction(1))
    assert close_q(Fraction(1), Fraction(0), Fraction(999, 1000))
    assert not close_q(Fraction(1, 8), Fraction(1, 2), Fraction(5, 8))


def test_close_q_reflexive_symmetric():
    rng = random.Random(11)
    for _ in range(300):
        q = Fraction(rng.randint(-900, 900), rng.randint(1, 900))
        r = Fraction(rng.randint(-900, 900), rng.randint(1, 900))
        eps = QPos(rng.randint(1, 64), rng.randint(1, 64))
        assert close_q(eps, q, q)
        assert close_q(eps, q, r) == close_q(eps, r, q)


def test_close_q_triangular():
    # close at eps and delta around a middle point gives eps + delta
    rng = random.Random(13)
    for _ in range(300):
        mid = Fraction(rng.randint(-500, 500), rng.randint(1, 100))
        eps = QPos(rng.randint(1, 32), rng.randint(1, 32))
        delta = QPos(rng.randint(1, 32), rng.randint(1, 32))
        q = mid + eps * Fraction(rng.randint(-99, 99), 100)
        r = mid + delta * Fraction(rng.randint(-99, 99), 100)
        assert close_q(eps, q, mid) and close_q(delta, mid, r)
        assert close_q(eps + delta, q, r)


def test_close_q_rounded():
    # close at eps iff close at some rational strictly below eps; the
    # witness can be found among dyadic-denominator rationals by walking
    # down until the grid resolves the gap
    rng = random.Random(17)
    for _ in range(200):
        q = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
        r = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
        eps = QPos(rng.randint(1, 40), rng.randint(1, 40))
        if not close_q(eps, q, r):
            continue
        gap = eps - abs(q - r)
        found = None
        for k in range(2000):
            grid = Fraction(1, 2 ** k)
            delta = math.ceil(eps / grid) * grid - grid  # largest multiple < eps
            if delta > 0 and close_q(delta, q, r):
                found = delta
                break
            if grid < gap:  # grid already finer than the slack: must have hit
                break
        assert found is not None and found < eps and close_q(found, q, r)


def test_dyadic_values():
    assert dyadic(0) == 1
    assert dyadic(7) == Fraction(1, 128)
    assert dyadic(128) == Fraction(1, 2 ** 128)
    with pytest.raises(ValueError):
        dyadic(-1)


def test_format_rat_round_trips():
    for q in (Fraction(0), Fraction(-7), Fraction(22, 7), Fraction(-3, 8)):
        assert Fraction(format_rat(q)) == q
    assert format_rat(Fraction(5)) == "5"
    assert format_rat(Fraction(-1, 3)) == "-1/3"


def _conversions():
    """Integers at the chunk edges of format_int, a low chunk of leading
    zeros (10**2000 + 7), and random ones up to 70,000 bits, of both
    signs."""
    rng = random.Random(29)
    values = [0, 1, 10 ** 600 - 1, 10 ** 600, 10 ** 1200 - 1, 10 ** 1200 + 1,
              10 ** 2000 + 7, 2 ** 16000 - 1]
    values += [rng.getrandbits(rng.randint(1, 70_000)) for _ in range(30)]
    return values + [-n for n in values[1:]]


@pytest.fixture
def no_int_limit():
    """Lift the int-to-str digit limit for the test, where Python has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_format_int_is_str_and_parse_int_is_int(no_int_limit):
    for n in _conversions():
        assert format_int(n) == str(n)
        assert parse_int(str(abs(n))) == abs(n)


# Reads lines "hex decimal" and checks format_int and parse_int against them
# under the interpreter's int-to-str digit limit; prints the lines checked.
_CHECK_UNDER_LIMIT = """
import sys
from cauchyreal.rational import format_int, parse_int
count = 0
for line in sys.stdin:
    hex_text, text = line.split()
    n = int(hex_text, 16)
    if format_int(n) != text or parse_int(text.lstrip("-")) != abs(n):
        sys.exit("wrong at " + hex_text)
    count += 1
print(count)
"""


def test_format_int_and_parse_int_under_the_least_digit_limit(no_int_limit):
    # 640 is the least limit Python accepts; the child runs with it, and
    # reads and writes numbers of up to 21,000 digits
    values = _conversions()
    src = str(Path(rational.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-c", _CHECK_UNDER_LIMIT],
        input="".join("%x %d\n" % (n, n) for n in values), capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "%d\n" % len(values), "")


def test_arithmetic_against_integer_oracle():
    # 10^4 random pairs against a from-scratch numerator/denominator oracle
    rng = random.Random(20260825)
    for _ in range(10_000):
        a = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        b = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        pa, pb = as_pair(a), as_pair(b)
        assert as_pair(a + b) == add_pair(pa, pb)
        assert as_pair(a - b) == sub_pair(pa, pb)
        assert as_pair(a * b) == mul_pair(pa, pb)
        if b != 0:
            assert as_pair(a / b) == div_pair(pa, pb)
        n, d = as_pair(a + b)
        assert d > 0 and math.gcd(abs(n), d) == 1


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as error:
        return type(error), str(error)


def _round_trip(q):
    back = pickle.loads(pickle.dumps(q))
    return type(back), back, hash(back)


@pytest.mark.parametrize("n, d", [
    (3, 4), (-3, 4), (0, 1), (-7, 1), (10 ** 4400 + 1, 3 ** 9300), (-(3 ** 9300), 10 ** 4400 + 1),
], ids=["positive", "negative", "zero", "negative_integer", "long", "long_negative"])
def test_coprime_is_the_fraction_of_its_pair(n, d):
    # _coprime skips the constructor in a way that depends on the Python
    # version; on each it must make the very Fraction(n, d).  Past 4,300
    # digits repr and str raise int's ValueError, on both alike, and so does
    # pickling up to 3.10, which reads str
    q, r = _coprime(n, d), Fraction(n, d)
    assert type(q) is Fraction and q == r and hash(q) == hash(r)
    assert (q.numerator, q.denominator) == (n, d)
    assert _outcome(repr, q) == _outcome(repr, r)
    assert _outcome(str, q) == _outcome(str, r)
    third = Fraction(-1, 3)
    assert ([q + third, q - third, q * third, q / third, third / (q + 1), -q, abs(q), q ** 2,
             q < third, float(q), math.floor(q), round(q, 3)]
            == [r + third, r - third, r * third, r / third, third / (r + 1), -r, abs(r), r ** 2,
                r < third, float(r), math.floor(r), round(r, 3)])
    assert _outcome(_round_trip, q) == _outcome(_round_trip, r)
