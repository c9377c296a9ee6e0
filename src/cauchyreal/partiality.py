"""Step-indexed partial computations and the space of semi-decisions.

A Partial value maps a fuel budget to an outcome: Done(value) or PENDING.
Outcomes are monotone in fuel: once Done at some fuel, Done with the same
value at every larger fuel.  Sier, the partial computations of the unit value
STAR, represents semi-decidable propositions: the proposition holds iff the
computation is Done at some fuel, and running at a fuel is a sound,
fuel-bounded observation of that.
"""

import threading

from .rational import Value


class _Pending:
    __slots__ = ()

    def __repr__(self):
        return "PENDING"


PENDING = _Pending()


class Done(Value):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", value)


class _Unit:
    __slots__ = ()

    def __repr__(self):
        return "STAR"


STAR = _Unit()


class Partial:
    """A fuel-indexed computation; subclasses implement run().

    run(fuel) must be sound and monotone in fuel: Done(v) only when v is a
    true answer, and if run(n) is Done(v) then run(m) is Done(v) for every
    m >= n.  It need not be pure: a verdict at a fixed fuel may depend on the
    memo of the points it approximates, so a run that is PENDING at fuel n
    can be Done at the same n once other work has refined that memo.
    """

    __slots__ = ()

    def run(self, fuel):
        """The outcome after spending the given fuel: Done(value) or PENDING."""
        raise NotImplementedError


class _Now(Partial):
    __slots__ = ("_outcome",)

    def __init__(self, value):
        self._outcome = Done(value)

    def run(self, fuel):
        return self._outcome


class _Never(Partial):
    __slots__ = ()

    def run(self, fuel):
        return PENDING


_NEVER = _Never()


class _FromStep(Partial):
    __slots__ = ("_step",)

    def __init__(self, step):
        self._step = step

    def run(self, fuel):
        return self._step(fuel)


def now(value):
    """The computation that is already Done(value) at fuel 0."""
    return _Now(value)


def never():
    """The computation that stays PENDING at every fuel."""
    return _NEVER


# Sier values: partial computations of STAR.  TOP is the true semi-decision.
TOP = now(STAR)


def fires(s, fuel):
    """Whether a semi-decision is Done within the given fuel."""
    return s.run(fuel) is not PENDING


def sup_seq(s):
    """Supremum of an increasing sequence of partials, evaluated diagonally.

    s maps n to a Partial, increasing in the sense that later members are
    Done at least as often; run(n) is s(n).run(n), which is monotone exactly
    because of that assumption.
    """
    return _FromStep(lambda n: s(n).run(n))


def map_partial(f, p):
    """Apply f to the result of p, preserving the firing fuel."""
    if isinstance(p, _Never):
        return p

    def step(n):
        out = p.run(n)
        if out is PENDING:
            return PENDING
        return Done(f(out.value))

    return _FromStep(step)


def join_sier(a, b):
    """Least upper bound of two semi-decisions: fires as soon as either does."""
    def step(n):
        out = a.run(n)
        if out is not PENDING:
            return out
        return b.run(n)

    return _FromStep(step)


class _MonotoneSup(Partial):
    """The least firing stage of monotone stages: each stage is now(value)
    or never(), and if stage m fires, so does stage m + 1.

    Stage n then fires iff some stage m <= n does, so the prefix scan of
    stages 0..n is answered by stage n alone.  A run at fuel n polls the
    coarse stages 0, 1, 2, 4, 8, ... below n, which let an easy verdict stop
    at low precision, and then n.  A pending stage rules out every stage
    below it and a firing one every stage above it, so once a stage fires,
    bisection between the last pending stage and the first firing one ends
    at the least firing stage.  A single run thus answers the full prefix
    scan's outcome, the value of its least firing stage, in O(log n) polls,
    none of them twice.

    _fired_at is that stage, and a run at lower fuel stays pending, as the
    run that fired found; _pending is the greatest stage up to which all are
    known pending, which a run pending at fuel n raises to n.  A run starts
    at the first coarse stage above it, so a loop of growing fuel polls one
    new stage per run, at O(1) cost.  Stages may read state that other work
    refines (a point's memo), so repeated runs can differ from the full
    scan's; they stay sound and monotone in fuel.  Each scan has its own
    lock, held while its stages are polled: a close_semidecide stage can run
    a nested scan through CompletionSpace.close.

    This is the one scan engine.  Arbitrary stages are not monotone, but
    their prefix joins are: countable_sup is this scan of those joins, and
    makes each stage once.
    """

    __slots__ = ("_f", "_lock", "_fired_at", "_outcome", "_pending")

    def __init__(self, f):
        self._f = f
        self._lock = threading.Lock()
        self._fired_at = None   # the least firing stage, once a run fired
        self._outcome = None    # its outcome
        self._pending = -1      # every stage up to here is known pending

    def run(self, fuel):
        with self._lock:
            if self._fired_at is not None:
                return self._outcome if fuel >= self._fired_at else PENDING
            lo, hi = self._pending + 1, None   # no stage below lo fires
            # the first coarse stage not known to be pending
            t = min(1 << (lo - 1).bit_length(), fuel) if lo else 0
            while t <= fuel and (hi is None or lo < hi):
                if t >= lo:
                    stage = self._f(t)
                    if isinstance(stage, _Now):
                        hi, fired = t, stage
                    else:
                        lo = t + 1
                # double through the coarse stages, then the last; once a
                # stage fires, bisect
                t = max(t + 1, min(2 * t, fuel)) if hi is None else (lo + hi) // 2
            if hi is None:
                self._pending = max(self._pending, fuel)
                return PENDING
            self._fired_at, self._outcome = hi, fired.run(0)
            return self._outcome


def monotone_sup(f):
    """The least firing stage of f, for monotone stages that are now(value)
    or never() (see _MonotoneSup): Done(value) of the least stage m <= n
    that fires, polling O(log n) stages at fuel n."""
    return _MonotoneSup(f)


def countable_sup(f):
    """Semi-decide an existential over countably many semi-decisions.

    f maps a stage index to a Sier; the result is Done(STAR) at fuel n iff
    some f(m) with m <= n is Done at fuel n.

    This is the full prefix scan, for arbitrary stages.  close_semidecide
    runs on it because its stages are not monotone: its threshold has no
    margin, so a firing stage does not make the finer ones fire, and
    closeness on nested carriers is a one-sided, fuel-bounded test.  The
    prefix join of stages 0..n at fuel n is monotone in n all the same, as
    each stage is monotone in fuel, so it is monotone_sup's scan of those
    joins.  Each f(m) is made once, in order, and no further than the first
    stage that is Done; stages that are never() are not polled again.
    """
    live = []   # (m, f(m)) for each stage made so far that is not never()
    made = 0    # stages f(0) .. f(made - 1) are made

    def prefix(n):
        # Run only under the scan's lock, so this state needs none.
        nonlocal made
        for m, stage in live:
            if m <= n and stage.run(n) is not PENDING:
                return TOP
        while made <= n:
            stage = f(made)
            made += 1
            if stage is not _NEVER:
                live.append((made - 1, stage))
                if stage.run(n) is not PENDING:
                    return TOP
        return _NEVER

    return monotone_sup(prefix)


def interleave(a, b):
    """Run two disjoint semi-decisions side by side, reporting which fired.

    Done(True) once a fires, Done(False) once b fires.  The caller guarantees
    a and b never both hold; a is inspected first at each fuel, which is
    unobservable under that contract.
    """
    def step(n):
        if a.run(n) is not PENDING:
            return Done(True)
        if b.run(n) is not PENDING:
            return Done(False)
        return PENDING

    return _FromStep(step)
