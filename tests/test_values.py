"""The contract of the package's immutable value classes, and of the
oracles' AST classes and Enclosure, built on the same base: construction
by position and keyword, equality within a class only, hash and repr as a
tuple's of the fields, immutability, and copy and pickle round trips.  And
the package's public names, pinned."""

import copy
import pickle

from fractions import Fraction

import pytest

import cauchyreal

from cauchyreal import ApartnessWitness, Done, LipschitzFn

from oracles import (Abs, Add, Div, Enclosure, FromBelow, Max, Min, Mul, Neg, RatLit, Sub,
                     _Binary, _Unary)


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
    assert hash(a) == hash(b) == hash(make())
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


# cauchyreal.__all__, sorted: a change to the public API edits this list.
PUBLIC_API = [
    "ApartnessWitness", "CReal", "CompletionPoint", "CompletionSpace", "Done",
    "LipschitzFn", "ONE", "PENDING", "ParseError", "Partial", "PremetricCarrier",
    "QPos", "RATIONALS", "Rat", "RationalSpace", "STAR", "TOP", "WitnessSearchError",
    "ZERO", "absolute", "add", "bound", "build_real", "close_q", "close_semidecide",
    "compare_partial", "countable_sup", "dyadic", "eta", "extend_lipschitz",
    "extend_lipschitz2", "find_apart_witness", "fires", "format_rat", "from_below",
    "from_rat", "interleave", "is_positive", "join", "join_sier", "limit",
    "lt_rat_semidecide", "main", "map_partial", "meet", "monad_join", "monad_map",
    "mul", "neg", "never", "now", "parse", "recip_witnessed", "scale", "signed_sum",
    "sub",
]


def test_the_public_api_is_pinned():
    names = cauchyreal.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(cauchyreal, name), name
    assert sorted(names) == PUBLIC_API
