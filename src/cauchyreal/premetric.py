"""Premetric-space vocabulary: closeness carriers, Lipschitz packaging, and
randomized checkers for the Cauchy and Lipschitz conditions.

A carrier exposes a decidable boolean closeness test for a base space, indexed
by a positive rational tolerance and read strictly: close(eps, x, y) means the
distance between x and y is less than eps.  Completed spaces only admit a
semi-decidable closeness; see the completion module for that half.
"""

from fractions import Fraction

from .rational import QPos, Value, close_q, dyadic


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

    def modulus(self):
        """The continuity modulus induced by the constant: the function
        eps -> eps / constant, which maps a target output tolerance to a
        sufficient input tolerance."""
        constant = QPos(self.constant)
        return lambda eps: QPos(Fraction(eps) / constant)


def _values_at(x, precisions):
    # Evaluate each distinct precision once, coarsest first, so memoizing
    # approximation procedures are probed with genuinely fresh computations
    # instead of replays of their finest cached answer.
    values = {}
    for eps in sorted(set(precisions), reverse=True):
        values[eps] = x(eps)
    return values


def check_cauchy(x, space, samples):
    """Test the Cauchy condition of an approximation procedure on sampled pairs.

    x maps a positive rational precision to a carrier element; samples is a
    sequence of (eps, delta) pairs.  Returns True iff every sampled pair
    satisfies close(eps + delta, x(eps), x(delta)).
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample pair")
    values = _values_at(x, [e for pair in samples for e in pair])
    return all(space.close(e + d, values[e], values[d]) for e, d in samples)


def check_limit(candidate, x, space, samples):
    """Test whether candidate is a limit of x on sampled (eps, delta) pairs.

    The limit condition puts x(eps) within eps + delta of the candidate for
    every positive delta; each sampled pair checks one instance.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample pair")
    values = _values_at(x, [e for e, _ in samples])
    return all(space.close(e + d, values[e], candidate) for e, d in samples)


def check_lipschitz(f, constant, space_a, space_b, samples):
    """Test the Lipschitz condition of f on sampled close pairs.

    samples is a sequence of (eps, x, y) with x and y eps-close in space_a;
    that precondition is verified and a violating sample is an error in the
    sample set, not a counterexample.  Returns True iff every image pair is
    constant * eps close in space_b.
    """
    ok = True
    for eps, x, y in samples:
        if not space_a.close(eps, x, y):
            raise ValueError(
                "sample violates the closeness precondition: %r and %r at %s" % (x, y, eps))
        if not space_b.close(constant * eps, f(x), f(y)):
            ok = False
    return ok


def dyadic_pairs(count, rng, max_exp=32):
    """count random pairs of dyadic precisions 2**-k with k in [0, max_exp]."""
    return [(dyadic(rng.randint(0, max_exp)), dyadic(rng.randint(0, max_exp)))
            for _ in range(count)]
