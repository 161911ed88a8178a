"""Deterministic generation of test actions with known ground truth.

Every generated action has the form sigma = alpha o tau_M o alpha^-1 where
tau_M is the diagonal action of an integer weight matrix M and alpha is a
composition of elementary automorphisms (z_i -> z_i + p with p free of
z_i, so the inverse is explicit) and one unimodular integer linear map,
whose integer inverse is built alongside it from the inverse of each row
operation, so no matrix is inverted.
sigma is built one t-part at a time: tau_M scales each word w of
alpha^-1(z_i) by t^{M(w)}, so the t^mu part of sigma(z_i) is alpha's scalar
images substituted into the words of weight mu, by the certificate's own
kernel (endo.substitute_parts).  Distinct t-parts never
cancel, so a build stops at the first word that takes sigma past the
degree or term cap, and rejects exactly the actions a finished build would.
Before that build, and before each composition that builds alpha and
alpha^-1, _refuse_by_top_degree counts top-degree terms without forming
them: the free algebra has no zero divisors, so a word that alone reaches
its group's top weighted degree has an image with exactly the product of
the top-part sizes of its letters' images there.  A build those counts put
past a cap is refused; every other case is left to the full build.
The generator keeps alpha's exact inverse alongside, built from factors
whose inverses hold by construction and are not composed back, and
redraws - still deterministically - whenever a build blows past the degree
or size caps.  Identical CorpusSpec values therefore produce identical
actions, byte for byte once printed.  The generator's one proof is
verify_conjugation, run before an action is handed out: sigma o alpha =
alpha o tau holds for the sigma built as alpha o tau o alpha^-1 only when
that alpha^-1 is alpha's inverse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod

from .coefficients import LaurentPoly
from .endo import (PolyMap, compose, identity_map, linear_map,
                   substitute_parts)
from .errors import DegreeBlowupExceeded, InternalInvariant
from .freealg import FreePoly
from .linearize import verify_conjugation, weight_parts
from .torus import TorusAction, is_effective

_MAX_REDRAWS = 96
_DEGREE_CAP = 12
_TERM_CAP = 400
_COST_CAP = 100_000
_NONZERO = (-3, -2, -1, 1, 2, 3)


def substitution_cost(outer: PolyMap, inner: PolyMap) -> int:
    """Upper bound on the term-pair work of compose(outer, inner).

    Substituting outer's images into a word multiplies their term counts,
    so the bound is the sum over inner words of the product of the sizes
    of the outer images its letters name.  Corpus generation refuses (and
    redraws) any composition whose bound exceeds the cost cap: actions it
    hands out are certified cheap to compose with themselves, which is
    exactly the shape of the axiom check and the verification steps.
    """
    # indexed by letter
    size = [1, *(max(1, len(img.terms)) for img in outer.images)].__getitem__
    return sum(prod(map(size, word))
               for img in inner.images for word in img.terms)


def _prefilter(g: PolyMap, f: PolyMap, cap: int):
    """Reject compose(g, f) on g's degrees and term counts, before any work."""
    # the degree bound over-counts (conjugation cancels a lot), so only
    # blatant blowups are rejected here
    weigh = [0, *(max(1, img.degree()) for img in g.images)].__getitem__
    bound = max((sum(map(weigh, word)) for img in f.images
                 for word in img.terms), default=0)
    if bound > 3 * cap:
        raise DegreeBlowupExceeded(f"composition degree bound {bound} too large")
    if substitution_cost(g, f) > _COST_CAP:
        raise DegreeBlowupExceeded("composition too expensive for the corpus cap")


def _compose_guarded(g: PolyMap, f: PolyMap, cap: int) -> PolyMap:
    _prefilter(g, f, cap)
    _refuse_by_top_degree(g, [(img.terms,) for img in f.images], cap)
    result = compose(g, f)
    _check_size(result, cap)
    return result


@dataclass(frozen=True)
class CorpusSpec:
    """Reproducible recipe for one generated action: the generate settings."""

    rank: int
    seed: int
    n_elementary: int
    max_poly_degree: int
    weight_bound: int
    force_effective: bool = True


@dataclass
class GroundTruth:
    """The conjugator and weight matrix an action was built from."""

    alpha: PolyMap
    alpha_inverse: PolyMap
    weights: list


def gen_elementary(rank: int, rng: random.Random, max_poly_degree: int,
                   target: int):
    """One elementary automorphism and its inverse.

    The image of the target generator is z_target + p with p drawn over
    the other generators (rank 1 has none, so p is a constant and the map
    is affine).  The inverse z_target -> z_target - p is exact by
    construction, since p is free of z_target, so the two are not composed
    back: conjugated_action's verify_conjugation is the generator's one
    proof, and it fails whenever the alpha^-1 built from these inverses is
    not alpha's inverse.
    """
    others = [i for i in range(1, rank + 1) if i != target]
    terms = {}
    if not others:
        terms[()] = rng.choice(_NONZERO)
    else:
        for _ in range(rng.randrange(1, 3)):
            length = rng.randrange(1, max_poly_degree + 1)
            word = tuple(rng.choice(others) for _ in range(length))
            coeff = rng.choice(_NONZERO)
            terms[word] = terms.get(word, 0) + coeff
    p = FreePoly(rank, terms)
    ident = identity_map(rank)
    forward = list(ident.images)
    backward = list(ident.images)
    forward[target - 1] = forward[target - 1] + p
    backward[target - 1] = backward[target - 1] - p
    return PolyMap(forward), PolyMap(backward)


def _random_unimodular(rank: int, rng: random.Random):
    """(M, M^-1): a random integer matrix of determinant +-1 and its inverse.

    M is built from the identity by row operations, and M^-1 alongside by
    the inverse column operations: M <- E M makes M^-1 <- M^-1 E^-1, so
    row_i += c row_j is undone by col_j -= c col_i, and a row sign flip by
    the same column sign flip.  Both stay integer, and nothing is inverted.
    """
    if rank == 1:
        m = [[rng.choice((1, -1))]]
        return m, m
    m = [[int(i == j) for j in range(rank)] for i in range(rank)]
    inv = [row[:] for row in m]
    for _ in range(2 * rank):
        i = rng.randrange(rank)
        j = rng.randrange(rank)
        while j == i:
            j = rng.randrange(rank)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for row in inv:
            row[j] -= c * row[i]
    for i in range(rank):
        if rng.randrange(4) == 0:
            m[i] = [-a for a in m[i]]
            for row in inv:
                row[i] = -row[i]
    return m, inv


def _over_cap(cap: int) -> DegreeBlowupExceeded:
    # names the caps, not the map's size: a build that stops early never
    # learns its final degree and term count
    return DegreeBlowupExceeded(
        f"map exceeds the corpus cap (degree {cap}, {_TERM_CAP} terms)")


def _refuse_by_top_degree(g: PolyMap, groups, cap: int) -> None:
    """Raise _over_cap when g substituted into ``groups`` must pass the caps.

    ``groups`` holds, for each image of the result, the term maps whose
    images under g are added into it and cannot cancel one another: one
    image f_i of compose(g, f), or the weight parts of one image of
    alpha^-1 in the sigma build, since distinct t-parts never cancel.
    Give a word w the weighted degree D(w) = sum of deg g_l over its letters
    l.  When exactly one word w of a group attains the group's largest D,
    the degree-D part of its image is c_w times the product of the top
    homogeneous parts top(g_l): a word of degree D splits into words of
    degrees deg g_l in one way only and Q has no zero divisors, so that
    product has exactly prod |top(g_l)| terms, and no other word of the
    group reaches degree D (Cohn, Free Rings and Their Relations, 1985).
    A word with a letter whose image is zero contributes nothing.  Distinct
    t-parts may still share a word, so groups of one image that meet at the
    same D are counted once, by the largest count.  Summed over the images,
    those counts are terms the result must have, and a nonzero count at D
    proves that it has a word of degree D.  Past either cap the build would
    end in _over_cap, so it is refused before anything is substituted;
    every case this does not catch is left to the build.
    """
    degrees, tops = [0], [1]  # indexed by letter
    for img in g.images:
        lengths = list(map(len, img.terms))
        degree = max(lengths, default=-1)
        degrees.append(degree)
        tops.append(lengths.count(degree))
    zero = {l for l, d in enumerate(degrees) if d < 0}
    weigh, top_size = degrees.__getitem__, tops.__getitem__
    size = 0
    for image_groups in groups:
        counts = {}
        for terms in image_groups:
            top, count = -1, 0
            for word in terms:
                if zero and not zero.isdisjoint(word):
                    continue
                d = sum(map(weigh, word))
                if d > top:
                    top, count = d, prod(map(top_size, word))
                elif d == top:
                    count = 0  # the two top parts may cancel
            if count:
                if top > cap:
                    raise _over_cap(cap)
                counts[top] = max(counts.get(top, 0), count)
        size += sum(counts.values())
    if size > _TERM_CAP:
        raise _over_cap(cap)


def _check_size(pm: PolyMap, cap: int):
    size = sum(len(img.terms) for img in pm.images)
    if pm.degree() > cap or size > _TERM_CAP:
        raise _over_cap(cap)


def conjugated_action(alpha: PolyMap, alpha_inverse: PolyMap, weights,
                      degree_cap: int = _DEGREE_CAP):
    """sigma = alpha o tau_M o alpha^-1, verified against its ground truth.

    sigma(z_i) is assembled from the t-parts of alpha(tau(t)(alpha^-1(z_i))),
    alpha substituted into the weight parts of alpha^-1 (weight_parts) by
    endo.substitute_parts, so no Laurent coefficient is multiplied.  A word
    that appears in one part stays in sigma, since distinct t-parts never
    cancel, so the build stops as soon as its running term count passes the
    term cap or a new word is longer than ``degree_cap``: it rejects
    exactly what _check_size on the finished map would, with the same
    message.  Before it starts, the weight of each
    word of alpha^-1 is worked out once, and _refuse_by_top_degree refuses
    a build whose top-degree terms already pass a cap.  The caps run in
    the order of compose(compose(alpha, tau), alpha^-1): alpha o tau scales
    each image of alpha by a unit t-monomial, so it has alpha's term counts
    and degrees, and every guard on it is run on alpha instead.
    """
    _check_size(alpha, degree_cap)  # the size of alpha o tau
    _prefilter(alpha, alpha_inverse, degree_cap)
    parts = [weight_parts(inverse, weights) for inverse in alpha_inverse.images]
    _refuse_by_top_degree(alpha, [p.values() for p in parts], degree_cap)
    n = alpha.rank
    size = 0
    images = []
    for image_parts in substitute_parts(alpha, parts):
        out = {}
        for mu, part in image_parts:
            for word, c in part.terms.items():
                coeff = out.get(word)
                if coeff is None:
                    size += 1
                    if size > _TERM_CAP or len(word) > degree_cap:
                        raise _over_cap(degree_cap)
                    coeff = out[word] = LaurentPoly(n)
                coeff.terms[mu] = c
        images.append(FreePoly._raw(n, n, out))
    action = TorusAction(PolyMap(images))
    if substitution_cost(action.map, action.map) > _COST_CAP:
        raise DegreeBlowupExceeded("action too expensive to check against itself")
    if substitution_cost(action.map, alpha) > _COST_CAP:
        raise DegreeBlowupExceeded("ground-truth verification too expensive")
    if not verify_conjugation(action, alpha, weights):
        raise InternalInvariant("generated action fails its own conjugation")
    return action


def _draw_weights(spec: CorpusSpec, rng: random.Random):
    for _ in range(256):
        m = [[rng.randint(-spec.weight_bound, spec.weight_bound)
              for _ in range(spec.rank)] for _ in range(spec.rank)]
        if not spec.force_effective or is_effective(m):
            return m
    raise DegreeBlowupExceeded("could not draw a non-singular weight matrix")


def _attempt(spec: CorpusSpec, rng: random.Random):
    weights = _draw_weights(spec, rng)
    matrix, inverse = _random_unimodular(spec.rank, rng)
    alpha = linear_map(spec.rank, matrix)
    alpha_inv = linear_map(spec.rank, inverse)
    for k in range(spec.n_elementary):
        fwd, back = gen_elementary(spec.rank, rng, spec.max_poly_degree,
                                   target=1 + k % spec.rank)
        alpha = _compose_guarded(fwd, alpha, _DEGREE_CAP)
        alpha_inv = _compose_guarded(alpha_inv, back, _DEGREE_CAP)
    action = conjugated_action(alpha, alpha_inv, weights, _DEGREE_CAP)
    return action, GroundTruth(alpha, alpha_inv, weights)


def gen_action(spec: CorpusSpec):
    """Generate (action, ground truth) for a spec; deterministic in the seed.

    Draws that blow past the degree cap are redrawn from the same stream a
    bounded number of times, after which DegreeBlowupExceeded propagates.
    """
    if spec.rank < 1 or spec.max_poly_degree < 1 or spec.weight_bound < 0:
        raise ValueError("corpus spec bounds must be positive")
    rng = random.Random(spec.seed)
    failure = None
    for _ in range(_MAX_REDRAWS):
        try:
            return _attempt(spec, rng)
        except DegreeBlowupExceeded as err:
            # the traceback would keep the failed attempt's maps alive
            failure = err.with_traceback(None)
    raise failure
