import itertools
import random
from fractions import Fraction

from hypothesis import settings

from ncvanish.poly import NcPoly, Word


def standard_poly(k: int) -> NcPoly:
    """The standard polynomial s_k: the alternating sum over all k! orderings
    of x1..xk."""
    terms = {}
    for perm in itertools.permutations(range(1, k + 1)):
        inversions = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        terms[perm] = Fraction(-1 if inversions % 2 else 1)
    return NcPoly(k, terms)


def random_word(rng: random.Random, d: int, max_len: int) -> Word:
    length = rng.randint(0, max_len)
    return tuple(rng.randint(1, d) for _ in range(length))


def random_poly(
    rng: random.Random, d: int, max_len: int, terms: int = 3, coeff_bound: int = 3
) -> NcPoly:
    """Random polynomial with small integer coefficients; may be zero."""
    out: dict = {}
    for _ in range(terms):
        w = random_word(rng, d, max_len)
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            out[w] = out.get(w, Fraction(0)) + c
    return NcPoly(d, out)


def random_nonzero_poly(rng: random.Random, d: int, max_len: int, terms: int = 3) -> NcPoly:
    while True:
        p = random_poly(rng, d, max_len, terms)
        if not p.is_zero():
            return p


# property tests replay the same examples on every run and write no example database
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("tier1")
