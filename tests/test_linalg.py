"""Dense exact linear algebra: int input gives Fractions, never floats."""

from fractions import Fraction

import pytest

from falin import linalg
from falin.errors import SingularMatrix


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
