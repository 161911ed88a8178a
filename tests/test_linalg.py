"""Dense exact linear algebra: int input gives Fractions, never floats."""

from fractions import Fraction

from falin import linalg


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
