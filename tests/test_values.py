"""The contract of the package's immutable value classes: construction by
position and keyword, equality within a class only, hash, repr,
immutability, and copy and pickle round trips."""

import copy
import pickle
import sys

from fractions import Fraction

import pytest

from cauchyreal import ApartnessWitness, ContinuityModulus, Done, Enclosure, LipschitzFn
from cauchyreal.expressions import (Abs, Add, Div, FromBelow, Max, Min, Mul, Neg, RatLit,
                                    Sub, _Binary, _Unary, parse)


def _leaf():
    return RatLit(Fraction(1, 3))


# class -> its fields, and a function making fresh field values
VALUES = {
    RatLit: (("value",), lambda: (Fraction(1, 3),)),
    FromBelow: (("value",), lambda: (Fraction(-2, 5),)),
    _Unary: (("operand",), lambda: (_leaf(),)),
    Neg: (("operand",), lambda: (_leaf(),)),
    _Binary: (("left", "right"), lambda: (_leaf(), FromBelow(Fraction(2)))),
    Div: (("left", "right"), lambda: (_leaf(), FromBelow(Fraction(2)))),
    Done: (("value",), lambda: (3,)),
    ApartnessWitness: (("positive", "gap"), lambda: (True, Fraction(1, 4))),
    Enclosure: (("lo", "hi"), lambda: (Fraction(1, 3), Fraction(1, 2))),
    LipschitzFn: (("fn", "constant"), lambda: (abs, Fraction(2))),
    ContinuityModulus: (("modulus",), lambda: (abs,)),
}

CASES = pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)


@CASES
def test_values_build_by_position_and_by_keyword(cls):
    names, make = VALUES[cls]
    value = cls(*make())
    assert tuple(getattr(value, name) for name in names) == make()
    assert cls(**dict(zip(names, make()))) == value
    first, *rest = make()
    assert cls(first, **dict(zip(names[1:], rest))) == value


@CASES
def test_values_refuse_a_wrong_arity_or_an_unknown_keyword(cls):
    names, make = VALUES[cls]
    fields = make()
    for args, kwargs in (((), {}), (fields + (0,), {}), (fields[:-1], {}),
                         (fields, {"other": 0}), (fields[1:], {"other": fields[0]}),
                         (fields, {names[0]: fields[0]})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@CASES
def test_equal_values_are_equal_and_hash_alike(cls):
    _, make = VALUES[cls]
    a, b = cls(*make()), cls(*make())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != make()[0] and a != make()
    assert cls(Fraction(7), *make()[1:]) != a


def test_values_of_other_classes_differ_with_the_same_fields():
    x, y = RatLit(Fraction(1)), FromBelow(Fraction(2))
    assert Neg(x) != Abs(x) and Abs(x) != Neg(x)
    assert Add(x, y) != Sub(x, y) and Mul(x, y) != Div(x, y) and Max(x, y) != Min(x, y)
    assert RatLit(Fraction(1)) != FromBelow(Fraction(1))
    assert Enclosure(Fraction(1), Fraction(2)) != (Fraction(1), Fraction(2))


def test_values_print_their_fields():
    assert repr(Done(3)) == "Done(value=3)"
    assert repr(Neg(RatLit(Fraction(1)))) == "Neg(operand=RatLit(value=Fraction(1, 1)))"
    assert repr(ApartnessWitness(False, Fraction(1, 4))) == (
        "ApartnessWitness(positive=False, gap=Fraction(1, 4))")
    assert repr(Enclosure(Fraction(0), Fraction(1, 2))) == (
        "Enclosure(lo=Fraction(0, 1), hi=Fraction(1, 2))")


@CASES
def test_values_refuse_assignment_and_deletion(cls):
    names, make = VALUES[cls]
    value = cls(*make())
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*make())


@pytest.mark.parametrize("gap", [Fraction(0), Fraction(-1, 2), 0])
def test_a_witness_gap_must_be_positive(gap):
    for args, kwargs in (((True, gap), {}), ((), {"positive": False, "gap": gap})):
        with pytest.raises(ValueError, match="witness gap must be strictly positive"):
            ApartnessWitness(*args, **kwargs)


@pytest.mark.parametrize("value", [
    Done(3),
    ApartnessWitness(False, Fraction(1, 8)),
    Enclosure(Fraction(-1, 3), Fraction(2)),
    Add(RatLit(Fraction(1, 3)), Neg(FromBelow(Fraction(-2)))),
], ids=["done", "witness", "enclosure", "ast"])
def test_values_copy_and_pickle(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(value) and other == value
        assert hash(other) == hash(value) and repr(other) == repr(value)


def test_deep_values_hash_without_recursion():
    # == and hash run on explicit stacks; a value holding no value hashes
    # as the tuple of its fields
    def deep(levels):
        node = RatLit(Fraction(1, 3))
        for i in range(levels):
            node = Neg(node) if i % 3 else Add(node, FromBelow(Fraction(i)))
        return node

    levels = 10000
    assert sys.getrecursionlimit() < levels
    a, b = deep(levels), deep(levels)
    assert a == b and hash(a) == hash(b)
    assert hash(a) != hash(deep(levels - 1))
    assert hash(Done(3)) == hash((3,))
    assert hash(Enclosure(Fraction(1, 3), Fraction(1, 2))) == hash((Fraction(1, 3), Fraction(1, 2)))


def test_deep_values_repr_without_recursion():
    # repr folds on the explicit stack that hash runs on; the string built
    # directly, level by level, is the same
    levels = 10000
    assert sys.getrecursionlimit() < levels
    node, text = _leaf(), "RatLit(value=Fraction(1, 3))"
    for i in range(levels):
        if i % 3:
            node, text = Neg(node), "Neg(operand=%s)" % text
        else:
            node = Add(node, FromBelow(Fraction(i)))
            text = "Add(left=%s, right=FromBelow(value=%r))" % (text, Fraction(i))
    assert repr(node) == text
    assert repr(parse("-" * 5000 + "1")) == (
        "Neg(operand=" * 5000 + "RatLit(value=Fraction(1, 1))" + ")" * 5000)
