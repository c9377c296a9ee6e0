"""Exact real arithmetic by Cauchy completion of the rationals.

Reals are approximation procedures: ask a point for any positive rational
precision and it returns a rational within that distance of the value it
denotes.  Comparisons are semi-decidable and run under a fuel budget;
division requires a certificate that the denominator is apart from zero.
"""

from .rational import Rat, QPos, close_q, dyadic, format_rat
from .premetric import (PremetricCarrier, RationalSpace, RATIONALS,
                        LipschitzFn, ContinuityModulus,
                        check_cauchy, check_limit, check_lipschitz, dyadic_pairs)
from .partiality import (Partial, Done, PENDING, STAR, TOP,
                         now, never, fires, sup_seq, map_partial,
                         join_sier, countable_sup, interleave)
from .completion import (CompletionPoint, CompletionSpace,
                         eta, limit, close_semidecide,
                         extend_lipschitz, extend_lipschitz2,
                         monad_map, monad_join, lim_pointwise)
from .reals import (CReal, ZERO, ONE, ApartnessWitness,
                    from_rat, from_below, signed_sum, add, neg, sub, join, meet,
                    absolute, scale, clamp, bound, mul, recip_witnessed,
                    lt_rat_semidecide, is_positive, compare_partial,
                    find_apart_witness)
from .expressions import parse, build_real, ParseError, WitnessSearchError
from .cli import main

__all__ = [
    "Rat", "QPos", "close_q", "dyadic", "format_rat",
    "PremetricCarrier", "RationalSpace", "RATIONALS",
    "LipschitzFn", "ContinuityModulus",
    "check_cauchy", "check_limit", "check_lipschitz", "dyadic_pairs",
    "Partial", "Done", "PENDING", "STAR", "TOP",
    "now", "never", "fires", "sup_seq", "map_partial",
    "join_sier", "countable_sup", "interleave",
    "CompletionPoint", "CompletionSpace",
    "eta", "limit", "close_semidecide",
    "extend_lipschitz", "extend_lipschitz2",
    "monad_map", "monad_join", "lim_pointwise",
    "CReal", "ZERO", "ONE", "ApartnessWitness",
    "from_rat", "from_below", "signed_sum", "add", "neg", "sub", "join", "meet",
    "absolute", "scale", "clamp", "bound", "mul", "recip_witnessed",
    "lt_rat_semidecide", "is_positive", "compare_partial",
    "find_apart_witness",
    "parse", "build_real",
    "ParseError", "WitnessSearchError",
    "main",
]
