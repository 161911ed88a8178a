"""Free algebra: word arithmetic, substitution, degree, abelianization."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from falin import (FreePoly, LaurentPoly, RankMismatch, abelianize,
                   abelianized_representative, f_mul, f_substitute)
from falin.freealg import merge_nvars

from helpers import rand_scalar_poly


def P(rank, terms):
    return FreePoly(rank, terms)


z1 = FreePoly.gen(2, 1)
z2 = FreePoly.gen(2, 2)


class TestMul:
    def test_concatenation_is_ordered(self):
        assert f_mul(z1, z2) == P(2, {(1, 2): 1})
        assert f_mul(z2, z1) == P(2, {(2, 1): 1})
        assert f_mul(z1, z2) != f_mul(z2, z1)

    def test_left_distribution(self):
        assert f_mul(z1 + z2, z1) == P(2, {(1, 1): 1, (2, 1): 1})

    def test_square_of_sum_keeps_four_words(self):
        square = f_mul(z1 + z2, z1 + z2)
        assert square == P(2, {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1})

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            f_mul(z1, FreePoly.gen(3, 1))

    def test_kind_mismatch(self):
        with pytest.raises(RankMismatch):
            f_mul(FreePoly.gen(2, 1, 1), FreePoly.gen(2, 1, 2))


class TestSubstitute:
    def test_shift_one_generator(self):
        # z1 -> z1 + 3 into z1*z1: scalars commute with words
        image = z1 + FreePoly.const(2, 3)
        out = f_substitute(P(2, {(1, 1): 1}), [image, z2])
        assert out == P(2, {(1, 1): 1, (1,): 6, (): 9})

    def test_identity(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rand_scalar_poly(rng, 2)
            assert f_substitute(p, [z1, z2]) == p

    def test_swap(self):
        out = f_substitute(P(2, {(1, 2): 1}), [z2, z1])
        assert out == P(2, {(2, 1): 1})

    def test_widens_scalar_into_laurent(self):
        images = [FreePoly(2, {(1,): LaurentPoly.var(2, 1)}, 2),
                  FreePoly.gen(2, 2, 2)]
        out = f_substitute(z1 + z2, images)
        assert out.nvars == 2
        assert out == images[0] + images[1]
        # the empty word meets the scalar empty product and is widened too
        out = f_substitute(z1 + FreePoly.const(2, 3), images)
        assert out == images[0] + FreePoly.const(2, 3, 2)
        assert all(isinstance(c, LaurentPoly) for c in out.terms.values())

    def test_laurent_polynomial_under_scalar_images(self):
        t1 = LaurentPoly.var(2, 1)
        p = FreePoly(2, {(1, 1): t1, (): 2 * t1}, 2)
        out = f_substitute(p, [z1 + FreePoly.const(2, 1), z2])
        assert out == FreePoly(2, {(1, 1): t1, (1,): 2 * t1, (): 3 * t1}, 2)
        assert all(isinstance(c, LaurentPoly) for c in out.terms.values())


class TestDegree:
    def test_word_length(self):
        assert P(2, {(1, 2, 1): 1}).degree() == 3

    def test_zero_sentinel(self):
        assert FreePoly.zero(2).degree() == -1

    def test_constant_plus_linear(self):
        assert P(2, {(): 5, (1,): 1}).degree() == 1


class TestAbelianize:
    def test_commutator_vanishes(self):
        commutator = f_mul(z1, z2) - f_mul(z2, z1)
        assert abelianize(commutator) == LaurentPoly.zero(2)

    def test_letter_counting(self):
        assert abelianize(P(2, {(1, 2, 1): 1})) == LaurentPoly(2, {(2, 1): 1})

    def test_linear_fixed(self):
        p = P(2, {(1,): Fraction(2), (2,): Fraction(-1, 3)})
        assert abelianize(p) == LaurentPoly(2, {(1, 0): 2, (0, 1): Fraction(-1, 3)})

    def test_laurent_coefficients_prefix_variables(self):
        p = FreePoly(1, {(1,): LaurentPoly.var(1, 1)}, 1)
        assert abelianize(p) == LaurentPoly(2, {(1, 1): 1})

    def test_representative_sorts_words(self):
        p = P(2, {(2, 1): 1, (1, 2): 1})
        assert abelianized_representative(p) == P(2, {(1, 2): 2})


def scalar_polys(rank=2):
    coeffs = st.one_of(
        st.integers(-4, 4),
        st.fractions(min_value=-4, max_value=4, max_denominator=3))
    words = st.lists(st.integers(1, rank), max_size=3).map(tuple)
    return st.dictionaries(words, coeffs, max_size=4).map(
        lambda d: FreePoly(rank, d))


def laurent_coeffs(nvars=2):
    exps = st.tuples(*[st.integers(-2, 2)] * nvars)
    values = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=3))
    return st.dictionaries(exps, values, max_size=3).map(
        lambda d: LaurentPoly(nvars, d))


def laurent_polys(rank=2, nvars=2):
    words = st.lists(st.integers(1, rank), max_size=3).map(tuple)
    return st.dictionaries(words, laurent_coeffs(nvars), max_size=4).map(
        lambda d: FreePoly(rank, d, nvars))


def substitute_term_by_term(p, images, max_degree=None):
    """Independent reference: substitute each word alone, then scale."""
    out = FreePoly.zero(images[0].rank, p.nvars)
    for word, coeff in p.terms.items():
        unit = f_substitute(FreePoly(p.rank, {word: 1}), images, max_degree)
        out = out + unit.scale(coeff)
    return out


def assert_canonical(poly, nvars):
    assert poly.nvars == nvars
    for coeff in poly.terms.values():
        assert isinstance(coeff, LaurentPoly) and coeff.nvars == nvars
        assert coeff.terms and all(coeff.terms.values())


class TestLaurentUnderScalarImages:
    t1 = LaurentPoly.var(2, 1)
    t2 = LaurentPoly.var(2, 2)

    @settings(max_examples=60, deadline=None)
    @given(laurent_polys(), laurent_polys(), laurent_coeffs(),
           st.lists(scalar_polys(), min_size=2, max_size=2),
           st.one_of(st.none(), st.integers(0, 4)))
    def test_matches_term_by_term_reference(self, p, q, const, images,
                                            max_degree):
        p = p + const  # a constant term, unless const is zero
        for poly in (p, q):
            got = f_substitute(poly, images, max_degree)
            assert got == substitute_term_by_term(poly, images, max_degree)
            assert_canonical(got, poly.nvars)

    def test_exact_cancellation_to_zero(self):
        p = FreePoly(2, {(1,): self.t1, (2,): -self.t1}, 2)
        out = f_substitute(p, [z1, z1])
        assert out.terms == {}
        assert out == FreePoly.zero(2, 2)

    def test_partial_cancellation_leaves_no_zero_entry(self):
        p = FreePoly(2, {(1,): self.t1 + self.t2, (2,): -self.t1}, 2)
        out = f_substitute(p, [z1, z1])
        assert out == FreePoly(2, {(1,): self.t2}, 2)
        assert out.terms[(1,)].terms == {(0, 1): 1}
        assert_canonical(out, 2)


def substitute_by_word_products(p, images, max_degree=None):
    """Independent reference: each word's image is a left fold of f_mul."""
    nvars = p.nvars
    for img in images:
        nvars = merge_nvars(nvars, img.nvars)
    rank = images[0].rank
    out = FreePoly.zero(rank, nvars)
    for word, coeff in p.terms.items():
        prod = FreePoly.const(rank, 1)
        for letter in word:
            prod = f_mul(prod, images[letter - 1], max_degree)
        out = out + prod.scale(coeff)
    return out


def assert_stored_form(poly, nvars):
    """Right kind, no zero coefficients, Laurent values of the right size."""
    assert poly.nvars == nvars
    for coeff in poly.terms.values():
        assert coeff
        if nvars is None:
            assert isinstance(coeff, (int, Fraction))
        else:
            assert isinstance(coeff, LaurentPoly) and coeff.nvars == nvars


def with_constants(polys, consts):
    """Add a constant term to each polynomial (none where it is zero)."""
    return st.tuples(polys, consts).map(lambda pc: pc[0] + pc[1])


class TestHornerMatchesWordProducts:
    """f_substitute's Horner evaluation against products along each word."""

    scalar = with_constants(scalar_polys(), st.fractions(-2, 2, max_denominator=3))
    laurent = with_constants(laurent_polys(), laurent_coeffs())
    bounds = st.one_of(st.none(), st.integers(0, 4))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(scalar, laurent),
           st.lists(st.one_of(scalar, laurent), min_size=2, max_size=2),
           bounds)
    @example(P(2, {(1, 2): 1, (2, 1, 1): -3}),
             [P(2, {(2, 2): 1, (1,): 2}), P(2, {(1,): 1, (): Fraction(1, 2)})],
             None)
    def test_matches_reference(self, p, images, max_degree):
        got = f_substitute(p, images, max_degree)
        assert got == substitute_by_word_products(p, images, max_degree)
        nvars = merge_nvars(merge_nvars(p.nvars, images[0].nvars),
                            images[1].nvars)
        assert_stored_form(got, nvars)
        if max_degree is not None:
            assert got.degree() <= max_degree

    g = z1 + z2 + FreePoly.const(2, Fraction(1, 2))
    t1 = FreePoly.const(2, LaurentPoly.var(2, 1), 2)

    @pytest.mark.parametrize("images", [
        [g, g], [f_mul(t1, g), f_mul(t1, g)]], ids=["scalar", "laurent"])
    @pytest.mark.parametrize("scale", [
        1, LaurentPoly.var(2, 2)], ids=["scalar", "laurent"])
    @pytest.mark.parametrize("max_degree", [None, 0, 2])
    def test_inner_sum_cancelling_to_zero(self, images, scale, max_degree):
        # p = 5 + z1 (z1 z2 - z2 z2): with g1 = g2 the suffix sum after the
        # first letter, q_1(g) = g1 g2 - g2 g2, is exactly zero
        p = FreePoly(2, {(1, 1, 2): 1, (1, 2, 2): -1}).scale(scale) + 5
        got = f_substitute(p, images, max_degree)
        assert got == substitute_by_word_products(p, images, max_degree)
        assert got.terms == {(): got.constant_coeff()}
        assert got.constant_coeff() == 5

    @pytest.mark.parametrize("max_degree", [None, 2000, 1999])
    def test_long_word_is_not_a_recursion(self, max_degree):
        # the evaluation keeps one frame per letter on a list, not the call
        # stack, so a word far past the recursion limit still substitutes
        one = FreePoly.gen(1, 1)
        p = FreePoly(1, {(1,) * 2000: 1, (1,) * 1999: -1})
        images = [one.scale(2)]
        got = f_substitute(p, images, max_degree)
        assert got == substitute_by_word_products(p, images, max_degree)
        assert got.coeff((1,) * 2000) == (2 ** 2000 if max_degree != 1999 else 0)


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(scalar_polys(), scalar_polys(), scalar_polys())
    def test_ring_laws(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert f_mul(f_mul(p, q), r) == f_mul(p, f_mul(q, r))
        assert f_mul(p, q + r) == f_mul(p, q) + f_mul(p, r)
        assert f_mul(p + q, r) == f_mul(p, r) + f_mul(q, r)

    def test_noncommutativity_witness(self):
        assert f_mul(z1, z2) != f_mul(z2, z1)

    @settings(max_examples=40, deadline=None)
    @given(scalar_polys(), scalar_polys())
    def test_substitution_homomorphism(self, p, q):
        images = [z1 + f_mul(z2, z2), z2 + FreePoly.const(2, 1)]
        sub = lambda x: f_substitute(x, images)
        assert sub(f_mul(p, q)) == f_mul(sub(p), sub(q))
        assert sub(p + q) == sub(p) + sub(q)

    @settings(max_examples=40, deadline=None)
    @given(scalar_polys(), scalar_polys())
    def test_abelianize_homomorphism(self, p, q):
        assert abelianize(f_mul(p, q)) == abelianize(p) * abelianize(q)
        assert abelianize(p + q) == abelianize(p) + abelianize(q)

    @settings(max_examples=60, deadline=None)
    @given(scalar_polys(), scalar_polys())
    def test_degree_law(self, p, q):
        prod_deg = f_mul(p, q).degree()
        if p and q:
            assert prod_deg <= p.degree() + q.degree()
        else:
            assert prod_deg == -1

    def test_degree_law_equality_on_monomials(self):
        rng = random.Random(11)
        for _ in range(40):
            w1 = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(0, 4)))
            w2 = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(0, 4)))
            p = P(2, {w1: rng.choice((1, -2, 3))})
            q = P(2, {w2: rng.choice((1, 2, -1))})
            assert f_mul(p, q).degree() == p.degree() + q.degree()
