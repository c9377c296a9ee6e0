"""Premetric-space vocabulary: closeness carriers and Lipschitz packaging.

A carrier exposes a decidable boolean closeness test for a base space, indexed
by a positive rational tolerance and read strictly: close(eps, x, y) means the
distance between x and y is less than eps.  Completed spaces only admit a
semi-decidable closeness; see the completion module for that half.
"""

from .rational import Value, close_q


class PremetricCarrier:
    """epsilon-indexed closeness on some carrier type.

    Implementations promise, but cannot enforce structurally, the premetric
    laws on close: reflexivity, symmetry, triangularity (closeness at eps and
    delta of a common neighbour gives closeness at eps + delta), and
    roundedness (close at eps iff already close at some delta < eps).
    """

    def close(self, eps, x, y):
        raise NotImplementedError


class RationalSpace(PremetricCarrier):
    """The rationals with |q - r| < eps."""

    def close(self, eps, q, r):
        return close_q(eps, q, r)

    def __repr__(self):
        return "RationalSpace()"


RATIONALS = RationalSpace()


class LipschitzFn(Value):
    """A function bundled with its Lipschitz constant.

    The bundle claims: x close to y at eps implies fn(x) close to fn(y) at
    constant * eps.  Constant 1 is non-expanding.
    """

    __slots__ = ("fn", "constant")

    def __call__(self, x):
        return self.fn(x)
