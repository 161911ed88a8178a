"""Deterministic random algebra values shared by the test modules."""

import functools
import random
from fractions import Fraction

from falin import CorpusSpec, FreePoly, LaurentPoly, PolyMap, gen_action

NONZERO = [x for x in range(-4, 5) if x]


def det(rows):
    """Determinant by cofactor expansion along the first row (small matrices)."""
    if not rows:
        return 1
    return sum((-1) ** j * x * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


@functools.cache
def rank45_actions():
    """The rank-4/5 tier: spec seeds 0-5 at ranks 4 and 5, generated once."""
    return tuple(gen_action(CorpusSpec(rank=rank, seed=seed, n_elementary=rank,
                                       max_poly_degree=2, weight_bound=3))[0]
                 for rank in (4, 5) for seed in range(6))


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(NONZERO), rng.randrange(1, 4))


def rand_laurent(rng: random.Random, nvars: int, max_terms=3, span=2) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        exps = tuple(rng.randrange(-span, span + 1) for _ in range(nvars))
        terms[exps] = terms.get(exps, 0) + rand_fraction(rng)
    return LaurentPoly(nvars, terms)


def rand_word(rng: random.Random, rank: int, max_len=3, min_len=0):
    return tuple(rng.randrange(1, rank + 1)
                 for _ in range(rng.randrange(min_len, max_len + 1)))


def rand_scalar_poly(rng: random.Random, rank: int, max_terms=4, max_len=3) -> FreePoly:
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        word = rand_word(rng, rank, max_len)
        terms[word] = terms.get(word, 0) + rand_fraction(rng)
    return FreePoly(rank, terms)


def rand_laurent_poly(rng: random.Random, rank: int, max_terms=3, max_len=2) -> FreePoly:
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        word = rand_word(rng, rank, max_len)
        coeff = rand_laurent(rng, rank, max_terms=2, span=2)
        if word in terms:
            terms[word] = terms[word] + coeff
        else:
            terms[word] = coeff
    return FreePoly(rank, terms, rank)


def rand_origin_poly(rng: random.Random, rank: int, max_terms=3, max_len=2) -> FreePoly:
    """Random polynomial with no constant term (words of length >= 1)."""
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        word = rand_word(rng, rank, max_len, min_len=1)
        terms[word] = terms.get(word, 0) + rand_fraction(rng)
    return FreePoly(rank, terms)


def rand_scalar_map(rng: random.Random, rank: int, max_terms=3, max_len=2) -> PolyMap:
    """Random origin-fixing scalar map (generator plus noise per image)."""
    return PolyMap([rand_origin_poly(rng, rank, max_terms, max_len)
                    + FreePoly.gen(rank, i)
                    for i in range(1, rank + 1)])


def rand_laurent_map(rng: random.Random, rank: int, max_terms=2, max_len=2) -> PolyMap:
    images = []
    for i in range(1, rank + 1):
        poly = rand_laurent_poly(rng, rank, max_terms, max_len)
        images.append(poly + FreePoly.gen(rank, i, rank))
    return PolyMap(images)
