"""Laurent polynomial arithmetic: examples, errors, and ring laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falin import LaurentPoly, RankMismatch, ZeroTorusPoint, laurent_str

from helpers import rand_laurent


def L(nvars, terms):
    return LaurentPoly(nvars, terms)


class TestExactScalar:
    def test_normalization(self):
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(3, -6).denominator == 2
        assert Fraction(3, -6).numerator == -1
        assert Fraction(0, 7) == Fraction(0, 1)

    def test_exactness(self):
        third = Fraction(1, 3)
        assert third + third + third == 1

    def test_integers_stored_as_int(self):
        p = L(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (0, 0): 3})
        assert [type(c) for _, c in p.sorted_terms()] == [int, Fraction, int]
        assert type(LaurentPoly.one(1).constant_coeff()) is int
        assert type(LaurentPoly.var(1, 1).terms[(1,)]) is int

    def test_int_and_integral_fraction_agree(self):
        as_int = L(1, {(1,): 2, (0,): -1})
        # arithmetic may leave an integral Fraction: (4/3 * 3/2) t1 - 1
        as_fraction = (L(1, {(1,): Fraction(4, 3), (0,): Fraction(-2, 3)})
                       * Fraction(3, 2))
        assert type(as_fraction.terms[(1,)]) is Fraction
        assert as_int == as_fraction and as_fraction == as_int
        assert laurent_str(as_int) == laurent_str(as_fraction) == "-1 + 2*t1"
        assert repr(as_int) == repr(as_fraction)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            L(1, {(0,): 0.5})


class TestAdd:
    def test_cancellation(self):
        a = L(2, {(1, 0): 1, (0, 1): 1})    # t1 + t2
        b = L(2, {(1, 0): -1})              # -t1
        assert a + b == L(2, {(0, 1): 1})

    def test_rational_coefficients(self):
        # 2/t1 + (1/2)/t1 = (5/2)/t1
        a = L(1, {(-1,): 2})
        b = L(1, {(-1,): Fraction(1, 2)})
        assert a + b == L(1, {(-1,): Fraction(5, 2)})

    def test_additive_identity(self):
        p = L(2, {(3, -1): Fraction(7, 3)})
        assert p + LaurentPoly.zero(2) == p

    def test_nvars_mismatch(self):
        with pytest.raises(RankMismatch):
            L(1, {(1,): 1}) + L(2, {(1, 0): 1})


class TestMul:
    def test_inverse_monomials(self):
        assert L(1, {(2,): 1}) * L(1, {(-2,): 1}) == LaurentPoly.one(1)

    def test_difference_of_squares(self):
        a = L(2, {(1, 0): 1, (0, 1): -1})   # t1 - t2
        b = L(2, {(1, 0): 1, (0, 1): 1})    # t1 + t2
        assert a * b == L(2, {(2, 0): 1, (0, 2): -1})

    def test_multiplicative_identity(self):
        p = L(2, {(1, -2): Fraction(-4, 5), (0, 0): 3})
        assert p * LaurentPoly.one(2) == p

    def test_nvars_mismatch(self):
        with pytest.raises(RankMismatch):
            L(1, {}) * L(3, {})


class TestEval:
    def test_at_three(self):
        p = L(1, {(2,): 1, (0,): -1})       # t1^2 - 1
        assert p.eval([3]) == 8

    def test_at_identity(self):
        p = L(1, {(2,): 1, (0,): -1})
        assert p.eval([1]) == 0

    def test_reciprocal(self):
        assert L(1, {(-1,): 1}).eval([2]) == Fraction(1, 2)

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroTorusPoint):
            L(2, {(1, 1): 1}).eval([1, 0])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_term_by_term_fractions(self, data):
        p = data.draw(laurents(2))
        nonzero = st.one_of(
            st.integers(-4, 4),
            st.fractions(min_value=-4, max_value=4, max_denominator=3)
        ).filter(bool)
        point = data.draw(st.lists(nonzero, min_size=2, max_size=2))
        want = sum((c * Fraction(point[0]) ** e0 * Fraction(point[1]) ** e1
                    for (e0, e1), c in p.terms.items()), Fraction(0))
        got = p.eval(point)
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)


def laurents(nvars):
    coeffs = st.one_of(
        st.integers(-5, 5),
        st.fractions(min_value=-5, max_value=5, max_denominator=4))
    exps = st.tuples(*[st.integers(-3, 3)] * nvars)
    polys = st.dictionaries(exps, coeffs, max_size=4).map(
        lambda d: LaurentPoly(nvars, d))
    # the same values, with integral coefficients held as Fraction
    unnormalized = polys.map(lambda p: p * Fraction(3, 2) * Fraction(2, 3))
    return st.one_of(polys, unnormalized)


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(laurents(2), laurents(2), laurents(2))
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == (a * b) + (a * c)

    @settings(max_examples=60, deadline=None)
    @given(laurents(2), laurents(2))
    def test_eval_is_multiplicative(self, a, b):
        point = [Fraction(3, 2), Fraction(-2)]
        assert (a * b).eval(point) == a.eval(point) * b.eval(point)


class TestCanonicalForm:
    def test_no_zero_terms_stored(self):
        p = L(2, {(1, 0): 1, (0, 1): 0})
        assert (1, 0) in p.terms and (0, 1) not in p.terms

    def test_equality_is_term_map_equality(self):
        rng = random.Random(7)
        for _ in range(50):
            p = rand_laurent(rng, 2)
            q = rand_laurent(rng, 2)
            assert (p == q) == (p.terms == q.terms)

    def test_constructor_merges_duplicate_exponents(self):
        p = LaurentPoly(1, {(1,): Fraction(1, 2)})
        q = p + L(1, {(1,): Fraction(1, 2)})
        assert q == L(1, {(1,): 1})
