"""Shared corpus of expression shapes and helpers for building fresh reals.

The corpus is rebuilt on every request: memoization is per-point state, and
several tests need points whose caches start empty.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from cauchyreal.expressions import build_real

from oracles import eval_exact, parse

# Expression shapes, depth at most 6, covering every constructor the grammar
# offers: literals in all three notations, unary minus, the four binary
# operations, max/min/abs, below() both alone and nested, and divisions whose
# denominators need a genuine witness search.
CORPUS_TEXTS = [
    "0",
    "1",
    "-1",
    "7/3",
    "-22/7",
    "3.14",
    "-0.125",
    "1000000000000/7",
    "below(0)",
    "below(1)",
    "below(-5/3)",
    "below(2.5)",
    "1/3 + 1/6",
    "2 - 3",
    "-2*max(1, 3/2)",
    "min(1/2, 2/3)",
    "abs(-4/9)",
    "below(1) + below(2)",
    "below(2) * below(3)",
    "below(1/2) - 1/2",
    "max(below(1), 1/2)",
    "min(below(-1), below(1))",
    "abs(below(-3))",
    "(1 + 2) * (3 - 4)",
    "1/(1/3)",
    "1/below(2)",
    "-(2/3)*below(3/2)",
    "below(1)/below(4)",
    "2/7 + 3.5 * (1 - 2/3)",
    "abs(1/3 - 1/2)",
    "max(1, min(2, 3))",
    "below(0.1) * 10",
    "(below(1) + 1) * (below(1) - 2)",
    "1 - below(1)",
    "max(below(1/3), below(1/3))",
    "min(abs(below(-2)), 3)",
    "((1/2 + below(1/4)) * 4) / 3",
    "-below(7)",
    "below(-1) * below(-1)",
    "2 * 3 - 4 * 5",
    "1/2/3",
    "0.5 * below(4) + 1/(2 + below(2))",
    "abs(below(1/7) - 1/7)",
    "max(-1, below(0))",
    "min(below(5), 5)",
    "(below(1) + below(1)) * (below(1) + below(1))",
    "1/(1 + below(1))",
    "(2 - below(1)) * (2 + below(1))",
    "-(-(below(3)))",
    "3.125 - 1/8",
    "max(1/3, 2/5) + min(1/3, 2/5)",
    "below(100) / 100",
    "abs(-1 * below(6))",
    "(1/3 + 1/6) * below(2)",
    "min(max(below(-2), -1), max(below(2), 1))",
    "7 * (1/7)",
    "abs(min(below(1) * (2 - 1/2), max(1, below(3))) - 4)",
    "1/(1/(1/(1/below(5))))",
]


@dataclass
class CorpusEntry:
    text: str
    node: object  # the oracle's AST
    value: Fraction  # independent oracle denotation

    def build(self, witness_fuel=96):
        """A fresh real for this entry, built from its text; caches start
        empty."""
        return build_real(self.text, witness_fuel)

    @property
    def generic(self):
        """Whether the fresh real takes the generic route (no exact tag)."""
        return self.build().exact is None


def make_corpus():
    entries = []
    for text in CORPUS_TEXTS:
        node = parse(text)
        entries.append(CorpusEntry(text, node, eval_exact(node)))
    return entries


@pytest.fixture
def corpus():
    return make_corpus()
