"""Dense exact linear algebra: int input gives Fractions, never floats."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from falin import linalg
from falin.errors import SingularMatrix

from helpers import det


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


class TestIntInput:
    def test_rref(self):
        rows, pivots = linalg.rref([[2, 1]])
        assert rows == [[1, Fraction(1, 2)]] and pivots == [0]
        assert all_fractions(rows)

    def test_inverse(self):
        inverse = linalg.inverse([[2]])
        assert inverse == [[Fraction(1, 2)]] and all_fractions(inverse)


@pytest.mark.parametrize("matrix", [[[1, 2, 3]], [[1, 0], [0, 1], [1, 1]]],
                         ids=["1x3", "3x2"])
def test_inverse_rejects_non_square(matrix):
    # each once returned a wrong "inverse" of the same shape as the input
    with pytest.raises(SingularMatrix, match="not square"):
        linalg.inverse(matrix)



# -- contracts over random rational matrices ----------------------------

ENTRIES = st.builds(lambda n, d: Fraction(n, d) if d > 1 else n,
                    st.integers(-6, 6), st.integers(1, 4))
SQUARE = st.integers(1, 5).map(lambda n: (n, n))


@st.composite
def matrices(draw, shape=st.tuples(st.integers(0, 5), st.integers(0, 5)),
             zeroed=True):
    """A rational matrix with int and Fraction entries of either sign; when
    ``zeroed``, up to two rows and two columns are set to zero."""
    m, n = draw(shape)
    a = [[draw(ENTRIES) for _ in range(n)] for _ in range(m)]
    if zeroed:
        for i in draw(st.sets(st.integers(0, 4), max_size=2)):
            if i < m:
                a[i] = [0] * n
        for j in draw(st.sets(st.integers(0, 4), max_size=2)):
            if j < n:
                for row in a:
                    row[j] = 0
    return a


def product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def has_rank(rows, k):
    """Some k rows of ``rows``, a matrix k columns wide, have a nonzero
    determinant."""
    return any(det([rows[i] for i in pick])
               for pick in itertools.combinations(range(len(rows)), k))


def assert_two_sided(a, b):
    identity = linalg.identity(len(a))
    assert all_fractions(b)
    assert product(a, b) == identity and product(b, a) == identity


class TestContracts:
    """rref and inverse against their contracts, not against another
    elimination: structure, spans and products are checked directly."""

    @settings(max_examples=200, deadline=None)
    @given(a=matrices())
    def test_rref_is_canonical_with_the_same_row_space(self, a):
        rows, pivots = linalg.rref(a)
        assert all_fractions(rows) and len(rows) == len(pivots)
        assert pivots == sorted(set(pivots))
        for r, (row, p) in enumerate(zip(rows, pivots)):
            assert row[p] == 1 and not any(row[:p])
            assert all(not other[p] for i, other in enumerate(rows) if i != r)
        # each input row is the combination of the result's rows weighted by
        # its own pivot-column entries, so the result spans the input ...
        for row in a:
            assert row == [sum(row[p] * out[j] for p, out in zip(pivots, rows))
                           for j in range(len(row))]
        # ... and the input has rank len(pivots), so the spans are equal
        assert has_rank([[row[p] for p in pivots] for row in a], len(pivots))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 5), data=st.data())
    def test_inverse_is_two_sided_on_unimodular_matrices(self, n, data):
        a = [[int(i == j) for j in range(n)] for i in range(n)]
        index = st.integers(0, n - 1)
        for _ in range(data.draw(st.integers(0, 10))):
            i, j = data.draw(index), data.draw(index)
            if i == j:
                a[i] = [-x for x in a[i]]
            else:
                c = data.draw(st.integers(-3, 3))
                a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        b = linalg.inverse(a)
        assert_two_sided(a, b)
        assert all(x.denominator == 1 for row in b for x in row)

    @settings(max_examples=100, deadline=None)
    @given(a=matrices(SQUARE, zeroed=False))
    def test_inverse_is_two_sided_on_rational_matrices(self, a):
        assume(det(a))
        assert_two_sided(a, linalg.inverse(a))

    @settings(max_examples=100, deadline=None)
    @given(a=matrices(SQUARE, zeroed=False), data=st.data())
    def test_inverse_rejects_singular_matrices(self, a, data):
        n = len(a)
        i = data.draw(st.integers(0, n - 1))
        if data.draw(st.booleans()):   # a column of zeros
            for row in a:
                row[i] = 0
        else:                          # a row that combines the others
            cs = [data.draw(ENTRIES) if j != i else 0 for j in range(n)]
            a[i] = [sum(c * row[k] for c, row in zip(cs, a)) for k in range(n)]
        with pytest.raises(SingularMatrix, match="singular"):
            linalg.inverse(a)
