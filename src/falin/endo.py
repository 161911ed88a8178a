"""Endomorphisms of the free algebra as tuples of generator images.

A PolyMap sends z_i to images[i-1]; applying it to a polynomial is
substitution.  The composition convention is fixed once for the whole
package:

    compose(g, f)(z_i) = g(f(z_i))

i.e. compose(g, f) substitutes g's images into f's, and linear parts
multiply in the opposite order: A(g o f) = A(f) * A(g).  Every orientation-
sensitive operation (conjugation by translations and by linear maps) is
specified by the post-condition this convention induces, and the tests pin
those post-conditions rather than any formula.

Substituting a scalar g clears denominators once: each image of g is
scaled to integer coefficients, each polynomial substituted into (each
t-part of it, for Laurent f: compose alone splits by t) absorbs those
scales and its own common denominator, the substitution runs over the
integers, and each output term is divided once.  Scaling by nonzero
constants changes no support and the arithmetic is exact, so the result is
the same normalized map as a substitution over the rationals would give,
without a gcd in every product.  compose evaluates in Horner form;
substitute_parts, the kernel for many small parts at once (the weight
parts of the certificate and of the corpus generator's sigma, and the rows
of linear_combinations), caches the product of every word prefix instead.

``invert`` takes scalar maps only, as every map document is,
raises ``SingularMatrix`` for a singular linear part, and removes a
constant part by a translation before inverting the rest.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Optional, Sequence

from . import linalg
from .coefficients import clear_denominators, normalize_scalar
from .errors import NotPolynomialInverseWithinBound, RankMismatch
from .freealg import (EMPTY_WORD, FreePoly, _horner, _mul_into,
                      evaluate_by_t, f_mul, f_substitute, merge_nvars)


class PolyMap:
    """An endomorphism of F_n given by the n-tuple of generator images."""

    __slots__ = ("rank", "nvars", "images")

    def __init__(self, images: Sequence[FreePoly]):
        images = tuple(images)
        if not images:
            raise RankMismatch("a map needs at least one image")
        rank = images[0].rank
        nvars = images[0].nvars
        for img in images:
            if img.rank != rank:
                raise RankMismatch("images have differing ranks")
            nvars = merge_nvars(nvars, img.nvars)
        if len(images) != rank:
            raise RankMismatch(f"{len(images)} images for rank {rank}")
        if nvars is not None:
            images = tuple(img if img.nvars == nvars
                           else FreePoly(rank, img.terms, nvars)
                           for img in images)
        self.rank = rank
        self.nvars = nvars
        self.images = images

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.images == other.images

    __hash__ = None

    def __repr__(self) -> str:
        return f"PolyMap({list(self.images)!r})"

    def degree(self) -> int:
        return max(img.degree() for img in self.images)


def identity_map(rank: int) -> PolyMap:
    return PolyMap([FreePoly.gen(rank, i) for i in range(1, rank + 1)])


def compose(g: PolyMap, f: PolyMap, max_degree: Optional[int] = None) -> PolyMap:
    """compose(g, f)(z_i) = g(f(z_i)); linear parts obey A = A_f * A_g.

    A Laurent f under scalar g is substituted one t-part at a time
    (evaluate_by_t), so no Laurent coefficient is multiplied.  When g is
    scalar and some coefficient of g or f is not an ``int``, the
    denominators are cleared first: g_j becomes D_j g_j with integer
    coefficients, the coefficient c_w of f_i (of each t-part of f_i) becomes
    L c_w / D_w, where D_w is the product of D_j over the letters of w and
    L clears what is left, and every output term of the integer
    substitution is divided by L.  Since
    f_i(g) = (1/L) sum_w (L c_w / D_w) prod_k D_{w_k} g_{w_k}, the result is
    exact, and ``max_degree`` cuts the same words.  Every scalar result
    stores ``int`` where integral and no zeros.
    """
    if g.rank != f.rank:
        raise RankMismatch(f"ranks {g.rank} and {f.rank} differ")
    if g.nvars is not None:
        return PolyMap([f_substitute(img, g.images, max_degree)
                        for img in f.images])
    if all(type(c) is int for m in (g, f) for img in m.images
           for coeff in img.terms.values()
           for c in (coeff.terms.values() if m.nvars else (coeff,))):
        def part(terms):
            return _horner(terms, g.images, max_degree)
    else:
        scales, images = _cleared_images(g)

        def part(terms):
            common, cleared = _absorb_scales(terms, scales)
            return _divide_terms(_horner(cleared, images, max_degree), common)

    return PolyMap([FreePoly._raw(g.rank, img.nvars, evaluate_by_t(img, part)
                                  if img.nvars else part(img.terms))
                    for img in f.images])


def substitute_parts(g: PolyMap, polys):
    """For each {key: term map} of ``polys``, the nonzero (key, g(terms)).

    Yields one iterator per element of ``polys``, each giving the pairs in
    order, so a caller can stop between parts or polynomials and nothing
    further is substituted.  g is scalar, as is every term map.  The
    images of g are scaled to integers once, and each word is replaced by
    the product of its letters' scaled images, kept in one cache for every
    prefix formed across all of ``polys``: the parts are small and their
    words share prefixes, which Horner form (compose) would multiply again
    for every part.  The cache starts with the one-letter words, so those
    cost no product.  Each part's sum runs over the integers and each of
    its terms is divided once.
    """
    scales, images = _cleared_images(g)
    cache = {(j,): img for j, img in enumerate(images, 1)}
    cache[EMPTY_WORD] = FreePoly._raw(g.rank, None, {EMPTY_WORD: 1})

    def substituted(parts):
        for key, terms in parts.items():
            common, cleared = _absorb_scales(terms, scales)
            out = {}
            for word, coeff in sorted(cleared.items()):
                product = cache.get(word)
                if product is None:
                    # walk back to the longest cached prefix, then extend
                    k = len(word) - 1
                    while word[:k] not in cache:
                        k -= 1
                    product = cache[word[:k]]
                    for letter in word[k:]:
                        k += 1
                        product = cache[word[:k]] = f_mul(
                            product, images[letter - 1])
                _mul_into(out, {EMPTY_WORD: coeff}, product.terms, None)
            if out:
                yield key, FreePoly._raw(g.rank, None,
                                         _divide_terms(out, common))

    for parts in polys:
        yield substituted(parts)


def _cleared_images(g: PolyMap):
    """(scales, images): images[j] = scales[j] * g_j, integer coefficients."""
    scales, images = [], []
    for img in g.images:
        d, ints = clear_denominators(img.terms.values())
        scales.append(d)
        images.append(FreePoly._raw(img.rank, None, dict(zip(img.terms, ints))))
    return scales, images


def _absorb_scales(terms, scales):
    """(L, {w: L c_w / D_w}), D_w the product of scales over the letters of
    w: those integer terms under _cleared_images, divided by L
    (_divide_terms), are the terms under the original images."""
    absorbed = []
    for w, c in terms.items():
        d = c.denominator * prod([scales[letter - 1] for letter in w])
        absorbed.append(c if d == 1 else Fraction(c.numerator, d))
    common, ints = clear_denominators(absorbed)
    return common, dict(zip(terms, ints))


def _divide_terms(terms, d: int):
    """The term map with every value divided by d, in stored form."""
    return terms if d == 1 else {
        w: normalize_scalar(Fraction(c, d)) for w, c in terms.items()}


def linear_combinations(matrix, g: PolyMap) -> list:
    """The images sum_j matrix[i][j] g_j of a scalar map g, one per row.

    For a square matrix these are the images of compose(g, linear_map(n,
    matrix)), formed by substitute_parts without building the linear map,
    and returned in stored form.
    """
    [parts] = substitute_parts(g, [{
        i: {(j,): c for j, c in enumerate(row, 1) if c}
        for i, row in enumerate(matrix)}])
    parts = dict(parts)
    return [parts.get(i) or FreePoly.zero(g.rank) for i in range(len(matrix))]


def linear_part(f: PolyMap) -> list:
    """Matrix with entry (i, j) = coefficient of the word z_j in image i."""
    return [[img.coeff((j,)) for j in range(1, f.rank + 1)] for img in f.images]


def constant_part(f: PolyMap) -> list:
    """Vector of empty-word coefficients."""
    return [img.constant_coeff() for img in f.images]


def invert(f: PolyMap, max_degree: Optional[int] = None) -> PolyMap:
    """Two-sided inverse of an automorphism over the scalars.

    A map with Laurent coefficients raises ``RankMismatch`` before any work,
    and a singular linear part raises ``linalg.inverse``'s ``SingularMatrix``.

    A constant part b is removed by a translation first: with f = f0 + b,
    f^-1(z) = f0^-1(z - b).  f0, with linear part A, is inverted in the
    degree-truncated power-series completion from h = A^-1 z.  Each pass
    forms the residual r = compose(h, f0) - id, truncated at ``max_degree``
    (which keeps every degree up to the bound exact), and sets h -= A^-1 r.
    compose(h - c, f0) = compose(h, f0) - A c up to degrees above the lowest
    of c, so that cancels all of r and makes h exact in one more degree; r
    starts in degree 2, so ``max_degree`` - 1 passes suffice.  h = A^-1 q
    is formed from q = A h over the integers (linear_combinations), so it
    is in stored form; h - A^-1 r itself can sum two Fractions to an
    integral one.  The result satisfies compose(h, f) = compose(f, h)
    = identity exactly (verified on f itself, not assumed), or f has no
    polynomial inverse within the bound; a zero residual stands in for
    compose(h, f) only when f has no constant part and deg h * deg f <=
    ``max_degree``, so that no product in it was cut.

    ``max_degree`` defaults to the degree of f itself.  The linearization
    pipeline does not call it: it reads beta^-1 off the action's weight
    components and proves it with the same two-sided check.
    """
    if f.nvars is not None:
        raise RankMismatch("invert takes a map with scalar coefficients")
    if max_degree is None:
        max_degree = max(f.degree(), 1)
    if max_degree < 1:
        raise NotPolynomialInverseWithinBound("degree bound must be at least 1")
    inv_matrix = linalg.inverse(linear_part(f))  # raises SingularMatrix
    b = constant_part(f)
    f0 = f if not any(b) else PolyMap([
        img - FreePoly.const(f.rank, x) for img, x in zip(f.images, b)])
    ident = identity_map(f.rank)
    q, h = ident, linear_map(f.rank, inv_matrix)  # h = A^-1 q throughout
    exact = False  # whether the zero residual is compose(h, f) itself
    for _ in range(max_degree - 1):
        error = compose(h, f0, max_degree=max_degree)
        if error == ident:
            exact = not any(b) and h.degree() * f.degree() <= max_degree
            break
        q = PolyMap([p - e + z for p, e, z in
                     zip(q.images, error.images, ident.images)])
        h = PolyMap(linear_combinations(inv_matrix, q))
    if any(b):
        h = compose(translation_map(f.rank, [-x for x in b]), h)
    if not exact and compose(h, f) != ident or compose(f, h) != ident:
        raise NotPolynomialInverseWithinBound(
            f"no polynomial inverse of degree <= {max_degree}")
    return h


def conjugate_by_translation(f: PolyMap, c: Sequence) -> PolyMap:
    """Conjugate by the translation z_i -> z_i + c_i.

    Post-condition: if c is fixed by the abelianized map induced by f, the
    result has zero constant part.  Concretely it forms
    compose(translation_map(n, c), f), whose i-th image is
    f_i(z_1 + c_1, ..., z_n + c_n), and subtracts c_i from image i.
    """
    if len(c) != f.rank:
        raise RankMismatch(f"translation of length {len(c)} for rank {f.rank}")
    c = [normalize_scalar(x) for x in c]
    if not any(c):
        return f
    moved = compose(translation_map(f.rank, c), f)
    return PolyMap([img - FreePoly.const(f.rank, x, img.nvars)
                    for img, x in zip(moved.images, c)])


def linear_map(rank: int, matrix) -> PolyMap:
    """The linear endomorphism z_i -> sum_j matrix[i][j] z_j."""
    return PolyMap([
        FreePoly(rank, {(j,): matrix[i][j - 1] for j in range(1, rank + 1)})
        for i in range(rank)])


def translation_map(rank: int, c: Sequence) -> PolyMap:
    """The affine map z_i -> z_i + c_i."""
    return PolyMap([
        FreePoly(rank, {(i,): 1, EMPTY_WORD: c[i - 1]})
        for i in range(1, rank + 1)])


def conjugate_by_linear(f: PolyMap, p_matrix) -> PolyMap:
    """Conjugate by the linear automorphism given by matrix P.

    Post-condition: linear_part(result) = P^-1 * linear_part(f) * P.
    """
    inv = linalg.inverse(p_matrix)  # raises SingularMatrix
    left = linear_map(f.rank, p_matrix)
    right = linear_map(f.rank, inv)
    return compose(left, compose(f, right))

