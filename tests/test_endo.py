"""Polynomial maps: composition, parts, inversion, conjugation."""

import hashlib
import random
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from falin import (FreePoly, LaurentPoly, PolyMap, RankMismatch,
                   SingularMatrix, NotPolynomialInverseWithinBound, compose,
                   conjugate_by_linear, conjugate_by_translation,
                   build_tau, constant_part, gen_action, identity_map, invert,
                   linear_part)
from falin import endo, freealg
from falin.endo import (linear_combinations, linear_map, prove_inverse,
                        substitute_parts, translation_map)
from falin.freealg import f_substitute
from falin.textio import render

from helpers import det, rand_fraction, rand_scalar_map
from test_acceptance import corpus_spec
from test_freealg import (assert_stored_form, laurent_polys,
                          substitute_by_word_products)


# sha256 over render(invert(f, max_degree)), or the raised error's class
# name, for every map of corpus_alpha_maps() at three bounds; the bound
# deg alpha^-1 - 1 is 0 for 144 of them, a caller error (ValueError)
CORPUS_INVERT_DIGEST = (
    "5fb14857f0a524d6da0f61626df1bbf32477ba685769ad889969691dfe25d54e")


def P(rank, terms, nvars=None):
    return FreePoly(rank, terms, nvars)


def assert_integral_as_int(pm):
    for img in pm.images:
        for c in img.terms.values():
            assert c != 0
            assert type(c) is (int if c.denominator == 1 else Fraction)


@pytest.mark.parametrize("make", [
    lambda c: LaurentPoly(1, {(1,): c}),
    lambda c: FreePoly(1, {(1,): c}),
    lambda c: PolyMap([FreePoly(1, {(1,): c})]),
], ids=["LaurentPoly", "FreePoly", "PolyMap"])
def test_not_equal_follows_equal(make):
    # != is derived from __eq__, including its NotImplemented fallback
    assert not make(2) != make(2)
    assert make(2) != make(3)
    assert make(2) != "x" and "x" != make(2)


class TestCompose:
    def test_identity_neutral(self):
        rng = random.Random(5)
        ident = identity_map(2)
        for _ in range(20):
            f = rand_scalar_map(rng, 2)
            assert compose(ident, f) == f
            assert compose(f, ident) == f

    def test_elementary_inverse_pair(self):
        g = PolyMap([P(2, {(1,): 1}), P(2, {(2,): 1, (1, 1): 1})])
        f = PolyMap([P(2, {(1,): 1}), P(2, {(2,): 1, (1, 1): -1})])
        assert compose(g, f) == identity_map(2)

    def test_matrix_order_law_example(self):
        f = PolyMap([P(2, {(1,): 1, (2,): 1}), P(2, {(2,): 1})])
        g = PolyMap([P(2, {(1,): 2}), P(2, {(2,): 1})])
        gf = compose(g, f)
        assert gf.images[0] == P(2, {(1,): 2, (2,): 1})
        assert linear_part(gf) == [[2, 1], [0, 1]]

    def test_associative(self):
        rng = random.Random(6)
        for _ in range(15):
            f = rand_scalar_map(rng, 2, max_terms=2, max_len=2)
            g = rand_scalar_map(rng, 2, max_terms=2, max_len=2)
            h = rand_scalar_map(rng, 2, max_terms=2, max_len=2)
            assert compose(h, compose(g, f)) == compose(compose(h, g), f)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            compose(identity_map(2), identity_map(3))


@st.composite
def rational_maps(draw, rank):
    """Scalar maps whose coefficients mix int, Fraction and integral Fraction.

    An integral Fraction is what scaling by a linalg result leaves behind;
    the constructor would normalize it, so the terms are stored raw.
    """
    coeffs = st.one_of(
        st.integers(-4, 4),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.integers(-4, 4).map(Fraction))
    words = st.lists(st.integers(1, rank), max_size=3).map(tuple)
    images = []
    for _ in range(rank):
        terms = draw(st.dictionaries(words, coeffs, max_size=4))
        images.append(FreePoly._raw(rank, None,
                                    {w: c for w, c in terms.items() if c}))
    return PolyMap(images)


def rational_map_pairs():
    return st.integers(1, 3).flatmap(
        lambda rank: st.tuples(rational_maps(rank), rational_maps(rank)))


class TestComposeRational:
    @settings(max_examples=80, deadline=None)
    @given(rational_map_pairs(), st.one_of(st.none(), st.integers(0, 4)))
    def test_matches_substitution_and_is_canonical(self, pair, max_degree):
        g, f = pair
        got = compose(g, f, max_degree)
        assert got == PolyMap([f_substitute(img, g.images, max_degree)
                               for img in f.images])
        for img in got.images:
            for c in img.terms.values():
                assert c != 0
                assert type(c) is (int if c.denominator == 1 else Fraction)


def laurent_maps(rank):
    """Laurent maps over 2 torus variables with rational coefficients."""
    return st.lists(laurent_polys(rank), min_size=rank, max_size=rank).map(
        PolyMap)


def scalar_laurent_pairs():
    return st.integers(1, 3).flatmap(
        lambda rank: st.tuples(rational_maps(rank), laurent_maps(rank)))


T1 = LaurentPoly.var(2, 1)
T2 = LaurentPoly.var(2, 2)
HALF = FreePoly(2, {(): Fraction(1, 2)})


class TestComposeLaurentUnderRational:
    """A Laurent f under scalar g is composed one t-part at a time over the
    integers, against products along each word."""

    @settings(max_examples=100, deadline=None)
    @given(scalar_laurent_pairs(), st.one_of(st.none(), st.integers(0, 4)))
    # the whole t1 part cancels, since g1 = g2
    @example((PolyMap([P(2, {(1,): 1}) + HALF, P(2, {(1,): 1}) + HALF]),
              PolyMap([FreePoly(2, {(1, 2): T1, (2, 2): -T1,
                                    (1,): T2 * Fraction(1, 3)}, 2)] * 2)),
             None)
    # 3/2 t1 z1 under z1 -> 2/3 z1 is t1 z1: the integer 1 over L = 2
    @example((PolyMap([P(2, {(1,): Fraction(2, 3)}), P(2, {(2,): 1})]),
              PolyMap([FreePoly(2, {(1,): T1 * Fraction(3, 2)}, 2)] * 2)),
             2)
    def test_matches_word_products_in_stored_form(self, pair, max_degree):
        g, f = pair
        got = compose(g, f, max_degree)
        assert got == PolyMap([
            substitute_by_word_products(img, g.images, max_degree)
            for img in f.images])
        for img in got.images:
            assert_stored_form(img, f.nvars)
            for coeff in img.terms.values():
                for c in coeff.terms.values():
                    assert c != 0
                    assert type(c) is (int if c.denominator == 1 else Fraction)

    def test_products_are_integer(self, monkeypatch):
        seen = []
        mul_into = freealg._mul_into

        def spy(out, a_terms, b_terms, max_degree):
            seen.extend(a_terms.values())
            seen.extend(b_terms.values())
            return mul_into(out, a_terms, b_terms, max_degree)

        monkeypatch.setattr(freealg, "_mul_into", spy)
        f = PolyMap([FreePoly(2, {(1, 2): T1 * Fraction(2, 5), (2,): T1}, 2),
                     FreePoly(2, {(2, 1, 1): T2}, 2)])
        g = translation_map(2, [Fraction(1, 3), -2])
        expected = PolyMap([substitute_by_word_products(img, g.images)
                            for img in f.images])
        seen.clear()
        assert compose(g, f) == expected
        assert seen and all(type(c) is int for c in seen)

    def test_integer_maps_multiply_no_laurent_coefficient(self, monkeypatch):
        # compose splits a Laurent f by t under all-int images too, which
        # pass its scaling step as they are: an integer translation, and
        # beta o tau as in verify_conjugation with a generated (integer)
        # alpha for beta
        _, truth = gen_action(corpus_spec(5))
        f = PolyMap([FreePoly(2, {(1, 2): T1 * 2 - T2, (2,): T1}, 2),
                     FreePoly(2, {(2, 1, 1): T2, (): T1 * -3}, 2)])
        pairs = [(translation_map(2, [3, -2]), f),
                 (truth.alpha, build_tau(truth.weights).map)]
        expected = [PolyMap([substitute_by_word_products(img, g.images)
                             for img in f.images]) for g, f in pairs]
        laurent_products = []
        mul = LaurentPoly.__mul__

        def spy(a, b):
            laurent_products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(LaurentPoly, "__mul__", spy)
        monkeypatch.setattr(LaurentPoly, "__rmul__", spy)
        assert [compose(g, f) for g, f in pairs] == expected
        assert laurent_products == []


@st.composite
def matrix_map_pairs(draw):
    """(matrix, g): a rational n x n matrix, zero rows included, and a scalar
    map whose images may be zero, at ranks 1-3."""
    rank = draw(st.integers(1, 3))
    entry = st.one_of(st.just(0), st.integers(-4, 4),
                      st.fractions(min_value=-4, max_value=4, max_denominator=6))
    row = st.one_of(st.just([0] * rank),
                    st.lists(entry, min_size=rank, max_size=rank))
    matrix = draw(st.lists(row, min_size=rank, max_size=rank))
    return matrix, draw(rational_maps(rank))


class TestLinearCombinations:
    @settings(max_examples=100, deadline=None)
    @given(matrix_map_pairs())
    # a zero row, and 1/2 * 2/3 z1 + 3/2 * 4/9 z1 = z1, stored as int
    @example(([[0, 0], [Fraction(1, 2), Fraction(3, 2)]],
              PolyMap([P(2, {(1,): Fraction(2, 3)}),
                       P(2, {(1,): Fraction(4, 9)})])))
    # a zero row and a zero image
    @example(([[1, 2], [0, 0]], PolyMap([FreePoly.zero(2),
                                         P(2, {(2, 1): Fraction(1, 3)})])))
    def test_matches_composing_with_the_linear_map(self, pair):
        matrix, g = pair
        seen = []

        def spy(out, a_terms, b_terms, max_degree):
            seen.extend(a_terms.values())
            seen.extend(b_terms.values())
            return freealg._mul_into(out, a_terms, b_terms, max_degree)

        with mock.patch.object(endo, "_mul_into", spy):
            got = linear_combinations(matrix, g)
        assert all(type(c) is int for c in seen)
        assert PolyMap(got) == compose(g, linear_map(g.rank, matrix))
        assert_integral_as_int(PolyMap(got))
        for row, img in zip(matrix, got):
            assert linear_combinations([row], g) == [img]


@st.composite
def keyed_term_maps(draw):
    """(g, polys): a scalar map and {key: term map} dicts at ranks 1-3.

    Coefficients and images are rational, words may be empty, and words are
    short over a small alphabet, so they share prefixes within a dict and
    across dicts; images may be zero, so whole parts can vanish."""
    rank = draw(st.integers(1, 3))
    terms = st.dictionaries(
        st.lists(st.integers(1, rank), max_size=4).map(tuple),
        st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]),
        max_size=5)
    parts = st.dictionaries(st.integers(0, 3), terms, max_size=3)
    return (draw(rational_maps(rank)),
            draw(st.lists(parts, min_size=1, max_size=4)))


class TestSubstituteParts:
    @settings(max_examples=150, deadline=None)
    @given(keyed_term_maps())
    # g1 = g2, so the part z1 - z2 vanishes; a constant term with it, and
    # z1 z2 and z1 z2 z1 share the prefix z1 z2 across dicts
    @example((PolyMap([P(2, {(1,): Fraction(1, 2), (): 1})] * 2),
              [{0: {(1,): 1, (2,): -1}, 1: {(): Fraction(2, 3), (1, 2): 1}},
               {2: {(1, 2, 1): Fraction(-1, 2)}}]))
    def test_shared_cache_gives_each_part_substituted(self, case):
        g, polys = case
        got = [list(parts) for parts in substitute_parts(g, polys)]
        expected = []
        for parts in polys:
            substituted = [(key, f_substitute(FreePoly(g.rank, terms),
                                              g.images))
                           for key, terms in parts.items()]
            expected.append([(key, poly) for key, poly in substituted
                             if poly])
        assert got == expected
        for parts in got:
            for _, poly in parts:
                assert_stored_form(poly, None)
                for c in poly.terms.values():
                    assert type(c) is (int if c.denominator == 1 else Fraction)

    def test_products_are_integer_and_one_letter_words_are_cached(self):
        g = PolyMap([P(2, {(1,): Fraction(1, 2), (2, 2): Fraction(2, 3)}),
                     P(2, {(2,): 3, (): Fraction(-1, 4)})])
        polys = [{0: {(1,): 2, (2,): Fraction(1, 3)}},
                 {0: {(2, 1): 1}, 1: {(2, 1, 2): Fraction(5, 2)}}]
        first = f_substitute(FreePoly(2, polys[0][0]), g.images)
        products, seen = [], []
        original = freealg._mul_into

        def f_mul(p, q):
            products.append((p, q))
            return freealg.f_mul(p, q)

        def mul_into(out, a_terms, b_terms, max_degree):
            seen.extend(a_terms.values())
            seen.extend(b_terms.values())
            return original(out, a_terms, b_terms, max_degree)

        with mock.patch.object(endo, "f_mul", f_mul), \
                mock.patch.object(endo, "_mul_into", mul_into), \
                mock.patch.object(freealg, "_mul_into", mul_into):
            parts = substitute_parts(g, polys)
            assert list(next(parts)) == [(0, first)]
            assert products == []  # none for a one-letter word
            list(next(parts))
        # z2 z1 once, then z2 z1 z2 from the cached z2 z1
        assert len(products) == 2
        assert seen and all(type(c) is int for c in seen)


MIXED_COEFFS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(-4, 4).map(Fraction))


@st.composite
def kernel_cases(draw):
    """(g, f, polys, matrix) at ranks 1-3, every coefficient drawn from int,
    Fraction and integral Fraction, and every term map stored raw.

    Some draws keep g all-int, the case the kernel passes through uncopied.
    """
    rank = draw(st.integers(1, 3))
    g = draw(st.one_of(rational_maps(rank), st.just(rank).map(
        lambda n: PolyMap([FreePoly.gen(n, i) + 1 for i in range(1, n + 1)]))))
    terms = st.dictionaries(st.lists(st.integers(1, rank), max_size=3).map(
        tuple), MIXED_COEFFS.filter(bool), max_size=4)
    polys = draw(st.lists(st.dictionaries(st.integers(0, 3), terms,
                                          max_size=3), min_size=1, max_size=3))
    matrix = draw(st.lists(st.lists(MIXED_COEFFS, min_size=rank,
                                    max_size=rank), min_size=1, max_size=3))
    return g, draw(rational_maps(rank)), polys, matrix


def fraction_substitute(terms, images, max_degree=None):
    """Reference: p(images) over Fractions, each word a product of images."""
    out = {}
    for word, c in terms.items():
        product = {(): Fraction(c)}
        for letter in word:
            step = {}
            for w1, a in product.items():
                for w2, b in images[letter - 1].terms.items():
                    step[w1 + w2] = step.get(w1 + w2, Fraction(0)) + a * b
            product = step
        for w, v in product.items():
            out[w] = out.get(w, Fraction(0)) + v
    return {w: v for w, v in out.items()
            if v and (max_degree is None or len(w) <= max_degree)}


def snapshot(term_maps):
    return [[(w, c, type(c)) for w, c in terms.items()] for terms in term_maps]


class TestKernelStoredForm:
    """compose, substitute_parts and linear_combinations against a plain
    Fraction reference: equal values, ``int`` wherever a value is integral,
    and no input term map changed or handed back."""

    @settings(max_examples=120, deadline=None)
    @given(kernel_cases(), st.one_of(st.none(), st.integers(0, 4)))
    # integral Fractions stored raw in g and f, which clearing must not
    # pass through as they are
    @example((PolyMap([FreePoly._raw(2, None, {(1,): Fraction(1), (2,): 2}),
                       FreePoly._raw(2, None, {(2,): Fraction(-3)})]),
              PolyMap([FreePoly._raw(2, None, {(1, 2): Fraction(2)}),
                       FreePoly._raw(2, None, {(2,): 1})]),
              [{0: {(1,): Fraction(4), (): 1}}], [[Fraction(2), 1]]), None)
    # all-int g and terms, returned by the scaling step uncleared
    @example((identity_map(2), PolyMap([P(2, {(1, 2): 3}), P(2, {(2,): -1})]),
              [{0: {(2, 1): 2}, 1: {(): 5}}], [[1, -2]]), 1)
    def test_results_match_fraction_reference_in_stored_form(self, case,
                                                             max_degree):
        g, f, polys, matrix = case
        inputs = ([img.terms for img in g.images]
                  + [img.terms for img in f.images]
                  + [terms for parts in polys for terms in parts.values()])
        before = snapshot(inputs)
        results = []

        got = compose(g, f, max_degree)
        for img, got_img in zip(f.images, got.images):
            assert got_img.terms == fraction_substitute(
                img.terms, g.images, max_degree)
            results.append(got_img.terms)

        got = [dict(parts) for parts in substitute_parts(g, polys)]
        for parts, got_parts in zip(polys, got):
            expected = {key: fraction_substitute(terms, g.images)
                        for key, terms in parts.items()}
            assert {key: poly.terms for key, poly in got_parts.items()} == {
                key: terms for key, terms in expected.items() if terms}
            results.extend(poly.terms for poly in got_parts.values())

        got = linear_combinations(matrix, g)
        for row, img in zip(matrix, got):
            assert img.terms == fraction_substitute(
                {(j,): c for j, c in enumerate(row, 1) if c}, g.images)
            results.append(img.terms)

        for terms in results:
            assert all(terms is not t for t in inputs)
            for c in terms.values():
                assert c != 0
                assert type(c) is (int if c.denominator == 1 else Fraction)
        assert snapshot(inputs) == before


class TestParts:
    def test_linear_part_identity(self):
        assert linear_part(identity_map(3)) == \
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_linear_part_of_diagonal_action(self):
        img1 = P(2, {(1,): LaurentPoly.monomial(2, (1, 2))}, 2)
        img2 = P(2, {(2,): LaurentPoly.monomial(2, (0, 1))}, 2)
        matrix = linear_part(PolyMap([img1, img2]))
        assert matrix[0][0] == LaurentPoly.monomial(2, (1, 2))
        assert matrix[0][1] == LaurentPoly.zero(2)
        assert matrix[1][1] == LaurentPoly.monomial(2, (0, 1))

    def test_linear_part_reads_length_one_words(self):
        f = PolyMap([P(2, {(2,): 1, (1, 1): 1}), P(2, {(1,): 1})])
        assert linear_part(f) == [[0, 1], [1, 0]]

    def test_constant_part(self):
        f = PolyMap([P(2, {(1,): 1, (): 1}), P(2, {(2,): 1})])
        assert constant_part(f) == [1, 0]
        assert constant_part(identity_map(2)) == [0, 0]

    def test_constant_part_laurent(self):
        coeff = LaurentPoly(1, {(1,): 1, (0,): -1})
        f = PolyMap([P(1, {(1,): LaurentPoly.var(1, 1), (): coeff}, 1)])
        assert constant_part(f) == [coeff]


class TestInvert:
    def test_linear(self):
        h = invert(PolyMap([P(1, {(1,): 2})]), 1)
        assert h == PolyMap([P(1, {(1,): Fraction(1, 2)})])

    def test_quadratic_elementary(self):
        f = PolyMap([P(2, {(1,): 1}), P(2, {(2,): 1, (1, 1): 1})])
        h = invert(f, 2)
        assert h == PolyMap([P(2, {(1,): 1}), P(2, {(2,): 1, (1, 1): -1})])
        assert compose(h, f) == identity_map(2)
        assert compose(f, h) == identity_map(2)

    def test_singular_linear_part(self):
        with pytest.raises(SingularMatrix):
            invert(PolyMap([P(2, {(1,): 1}), P(2, {(1,): 1})]), 3)

    def test_laurent_map_rejected_before_any_composition(self, monkeypatch):
        calls = []

        def spy(g, f, max_degree=None):
            calls.append((g, f))
            return compose(g, f, max_degree)

        monkeypatch.setattr(endo, "compose", spy)
        laurent_maps = [
            build_tau([[1, 0], [0, 1]]).map,  # z_i -> t_i*z_i
            PolyMap([P(1, {(1,): 1, (1, 1): LaurentPoly.var(1, 1)}, 1)]),
        ]
        for f in laurent_maps:
            with pytest.raises(RankMismatch):
                invert(f)
        assert calls == []

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_is_a_value_error(self, monkeypatch, bound):
        calls = []
        monkeypatch.setattr(endo, "compose", lambda *args: calls.append(args))
        f = PolyMap([P(2, {(1,): 1}), P(2, {(2,): 1, (1, 1): 1})])
        with pytest.raises(ValueError, match="^degree bound must be at least 1$"):
            invert(f, bound)
        assert calls == []

    def test_ends_in_one_inverse_proof(self, monkeypatch):
        calls = []

        def spy(f, h, bound):
            calls.append((f, h, bound))
            return prove_inverse(f, h, bound)

        monkeypatch.setattr(endo, "prove_inverse", spy)
        for f, bound in islice(corpus_alpha_maps(), 20):
            for max_degree in (None, bound + 1, bound):
                calls.clear()
                h = invert(f, max_degree)
                assert calls == [(f, h, max_degree or max(f.degree(), 1))]
        f = PolyMap([P(1, {(1,): 1, (1, 1): 1})])
        calls.clear()
        with pytest.raises(NotPolynomialInverseWithinBound):
            invert(f, 3)
        assert len(calls) == 1

    def test_no_polynomial_inverse_within_bound(self):
        f = PolyMap([P(1, {(1,): 1, (1, 1): 1})])
        with pytest.raises(NotPolynomialInverseWithinBound):
            invert(f)  # the series inverse of z + z^2 never terminates

    def test_corrections_at_every_degree(self):
        # the first pass cancels the degree-2 residual, the second the
        # degree-3 and degree-4 parts together; deg h * deg f exceeds the
        # bound, so the certificate forms compose(h, f) again in full
        f = PolyMap([P(3, {(1,): 1}), P(3, {(2,): 1, (1, 1): 1}),
                     P(3, {(3,): 1, (2, 2): 1})])
        h = invert(f, 4)
        assert h == PolyMap([
            P(3, {(1,): 1}), P(3, {(2,): 1, (1, 1): -1}),
            P(3, {(3,): 1, (2, 2): -1, (1, 1, 2): 1, (2, 1, 1): 1,
                  (1, 1, 1, 1): -1})])
        with pytest.raises(NotPolynomialInverseWithinBound):
            invert(f, 3)

    def test_passes_store_integral_coefficients_as_int(self):
        # the z1^4 coefficient -9 of h would be the sum of two Fractions if a
        # pass subtracted A^-1 r from h; forming h = A^-1 q stores it as int
        f = PolyMap([P(2, {(1,): 1, (2, 2): 1}),
                     P(2, {(1,): Fraction(-3, 2), (2,): 1, (1, 1): -3,
                           (2, 2): Fraction(-3, 2), (1, 2, 2): -3,
                           (2, 2, 1): -3, (2, 2, 2, 2): -3})])
        h = invert(f, 4)
        assert type(h.images[0].terms[(1, 1, 1, 1)]) is int
        assert_integral_as_int(h)
        assert compose(h, f) == compose(f, h) == identity_map(2)

    def test_certificate_products_are_exact(self, monkeypatch):
        # the compose(h, f) that certifies h is never cut at the bound
        calls = []

        def spy(g, f, max_degree=None):
            out = compose(g, f, max_degree)
            calls.append((g, f, out))
            return out

        monkeypatch.setattr(endo, "compose", spy)
        cases = [(PolyMap([P(1, {(1,): 1, (1, 1, 1): 1})]), 2),
                 (PolyMap([P(2, {(1,): 1}), P(2, {(2,): 1, (1, 1): 1})]), 4),
                 (PolyMap([P(2, {(1,): 1}), P(2, {(2,): 1, (1, 1): 1})]), 3)]
        for f, bound in cases:
            calls.clear()
            try:
                invert(f, bound)
            except NotPolynomialInverseWithinBound:
                pass
            g, k, _ = calls[-1]  # the certificate's last product
            h = k if g is f else g
            _, _, residual = [c for c in calls if c[0] is h and c[1] is f][-1]
            assert residual == compose(h, f)

    def test_rational_map_composes_over_the_integers(self, monkeypatch):
        seen = []
        mul_into = freealg._mul_into

        def spy(out, a_terms, b_terms, max_degree):
            seen.extend(a_terms.values())
            seen.extend(b_terms.values())
            return mul_into(out, a_terms, b_terms, max_degree)

        # every product, f_mul's and f_substitute's alike, runs this loop,
        # and so do the sums of invert's passes (linear_combinations)
        monkeypatch.setattr(freealg, "_mul_into", spy)
        monkeypatch.setattr(endo, "_mul_into", spy)
        f = PolyMap([P(2, {(1,): Fraction(1, 2)}),
                     P(2, {(2,): 1, (1, 1): Fraction(2, 3)})])
        h = invert(f, 2)
        assert h == PolyMap([P(2, {(1,): 2}),
                             P(2, {(2,): 1, (1, 1): Fraction(-8, 3)})])
        assert seen and all(type(c) is int for c in seen)

    def test_random_automorphisms_invert_exactly(self):
        rng = random.Random(9)
        ident = identity_map(2)
        for _ in range(10):
            p_terms = {}
            for _ in range(rng.randrange(1, 3)):
                word = tuple(1 for _ in range(rng.randrange(1, 4)))
                p_terms[word] = Fraction(rng.choice((-2, -1, 1, 2)))
            e1 = PolyMap([P(2, {(1,): 1}), P(2, {(2,): 1}) + P(2, p_terms)])
            shear = PolyMap([P(2, {(1,): 1, (2,): 3}), P(2, {(2,): 1})])
            f = compose(e1, shear)
            f = PolyMap([img + rand_fraction(rng) for img in f.images])
            h = invert(f, 6)
            assert compose(h, f) == ident
            assert compose(f, h) == ident

    def test_translated_generated_alphas_invert_exactly(self):
        # (alpha + b)^-1 = alpha^-1 o (z - b), read off the generator's inverse
        rng = random.Random(10)
        for seed in range(30):
            _, truth = gen_action(corpus_spec(seed))
            alpha = truth.alpha
            b = [rand_fraction(rng) for _ in range(alpha.rank)]
            f = PolyMap([img + x for img, x in zip(alpha.images, b)])
            h = invert(f, truth.alpha_inverse.degree())
            back = translation_map(alpha.rank, [-x for x in b])
            assert h == compose(back, truth.alpha_inverse)


def corpus_alpha_maps():
    """(f, deg alpha^-1) for each corpus alpha (specs 0-99) as generated, and
    again after a seeded invertible rational linear map and translation."""
    rng = random.Random(24)
    for seed in range(100):
        _, truth = gen_action(corpus_spec(seed))
        alpha, n = truth.alpha, truth.alpha.rank
        bound = truth.alpha_inverse.degree()
        yield alpha, bound
        while True:
            matrix = [[rand_fraction(rng) if rng.random() < 0.6 else 0
                       for _ in range(n)] for _ in range(n)]
            if det(matrix):
                break
        moved = compose(linear_map(n, matrix), alpha)
        yield PolyMap([img + rand_fraction(rng) for img in moved.images]), bound


class TestProveInverse:
    def test_accepts_what_invert_returns(self):
        for f, bound in corpus_alpha_maps():
            prove_inverse(f, invert(f, bound), bound)

    def test_rejects_a_wrong_inverse(self):
        f = PolyMap([P(2, {(1,): 1}), P(2, {(2,): 1, (1, 1): 1})])
        wrong = [f, identity_map(2),
                 PolyMap([P(2, {(1,): 1}), P(2, {(2,): 1, (1, 1): -2})]),
                 PolyMap([P(2, {(1,): 1}), P(2, {(2,): 1, (2, 2): -1})])]
        for h in wrong:
            with pytest.raises(NotPolynomialInverseWithinBound,
                               match="^no polynomial inverse of degree <= 2$"):
                prove_inverse(f, h, 2)

    def test_rejects_a_degree_above_the_bound(self, monkeypatch):
        f = PolyMap([P(2, {(1,): 1}), P(2, {(2,): 1, (1, 1): 1})])
        h = invert(f, 2)
        calls = []
        monkeypatch.setattr(endo, "compose", lambda *args: calls.append(args))
        with pytest.raises(NotPolynomialInverseWithinBound) as err:
            prove_inverse(f, h, 1)
        assert str(err.value) == "no polynomial inverse of degree <= 1"
        assert calls == []  # the degree alone decides


class TestInvertPinned:
    def test_corpus_alpha_inverses_pinned_in_stored_form(self):
        digest = hashlib.sha256()
        for f, bound in corpus_alpha_maps():
            for max_degree in (None, bound, bound - 1):
                try:
                    h = invert(f, max_degree)
                except (NotPolynomialInverseWithinBound, ValueError) as err:
                    digest.update(f"error:{type(err).__name__}\n".encode())
                    continue
                assert_integral_as_int(h)
                digest.update(render(h).encode())
        assert digest.hexdigest() == CORPUS_INVERT_DIGEST


class TestConjugateByTranslation:
    def test_zero_translation(self):
        rng = random.Random(2)
        f = rand_scalar_map(rng, 2)
        assert conjugate_by_translation(f, [0, 0]) == f

    def test_affine_rank_one(self):
        coeff = LaurentPoly(1, {(1,): 1, (0,): -1})
        f = PolyMap([P(1, {(1,): LaurentPoly.var(1, 1), (): coeff}, 1)])
        moved = conjugate_by_translation(f, [Fraction(-1)])
        assert moved == PolyMap([P(1, {(1,): LaurentPoly.var(1, 1)}, 1)])

    def test_identity_untouched(self):
        assert conjugate_by_translation(identity_map(3), [1, -2, 5]) == identity_map(3)

    def test_round_trip(self):
        rng = random.Random(8)
        scalar = [rand_scalar_map(rng, 2) for _ in range(10)]
        laurent = [gen_action(corpus_spec(seed))[0].map for seed in range(12)]
        for f in scalar + laurent:
            for c in ([Fraction(rng.randrange(-3, 4)) for _ in range(f.rank)],
                      [rand_fraction(rng) for _ in range(f.rank)]):
                moved = conjugate_by_translation(f, c)
                assert moved.nvars == f.nvars
                back = conjugate_by_translation(moved, [-x for x in c])
                assert back == f

    def test_float_translation_rejected(self):
        # Fraction(0.1) would be exact but not 1/10
        with pytest.raises(TypeError):
            conjugate_by_translation(identity_map(1), [0.1])


class TestConjugateByLinear:
    def test_identity_matrix(self):
        rng = random.Random(4)
        f = rand_scalar_map(rng, 2)
        assert conjugate_by_linear(f, [[1, 0], [0, 1]]) == f

    def test_diagonalizes_triangular_action(self):
        entries = {
            (0, 0): LaurentPoly.var(2, 1),
            (0, 1): LaurentPoly(2, {(0, 1): 1, (1, 0): -1}),
            (1, 1): LaurentPoly.var(2, 2),
        }
        f = PolyMap([
            P(2, {(1,): entries[(0, 0)], (2,): entries[(0, 1)]}, 2),
            P(2, {(2,): entries[(1, 1)]}, 2)])
        conj = conjugate_by_linear(f, [[1, 1], [0, 1]])
        matrix = linear_part(conj)
        assert matrix[0][0] == LaurentPoly.var(2, 1)
        assert matrix[0][1] == LaurentPoly.zero(2)
        assert matrix[1][0] == LaurentPoly.zero(2)
        assert matrix[1][1] == LaurentPoly.var(2, 2)

    def test_permutation_permutes_diagonal(self):
        f = PolyMap([P(2, {(1,): 3}), P(2, {(2,): 5})])
        conj = conjugate_by_linear(f, [[0, 1], [1, 0]])
        assert linear_part(conj) == [[5, 0], [0, 3]]

    def test_inverse_conjugation_round_trip(self):
        rng = random.Random(12)
        p_matrix = [[1, 2], [1, 3]]
        inverse = [[3, -2], [-1, 1]]
        for _ in range(8):
            f = rand_scalar_map(rng, 2, max_terms=2, max_len=2)
            assert conjugate_by_linear(conjugate_by_linear(f, p_matrix), inverse) == f

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrix):
            conjugate_by_linear(identity_map(2), [[1, 1], [1, 1]])

    def test_float_matrix_rejected(self):
        with pytest.raises(TypeError):
            conjugate_by_linear(identity_map(2), [[0.5, 0], [0, 1]])


class TestLinearPartOrderLaw:
    def test_on_random_pairs(self):
        rng = random.Random(13)
        for _ in range(25):
            f = rand_scalar_map(rng, 2)
            g = rand_scalar_map(rng, 2)
            a_f = linear_part(f)
            a_g = linear_part(g)
            product = [[sum(a_f[i][k] * a_g[k][j] for k in range(2))
                        for j in range(2)] for i in range(2)]
            assert linear_part(compose(g, f)) == product
