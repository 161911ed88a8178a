"""Exact coefficient arithmetic: rational scalars and Laurent polynomials.

The ground field is the rationals.  A scalar is stored as an ``int`` when
it is an integer and as a ``fractions.Fraction`` otherwise; never as a
float.  ``normalize_scalar`` is the one place that turns an incoming value
into that form, and every constructor here and in ``freealg`` goes through
it.  Arithmetic may still yield an integral ``Fraction`` (1/2 * 2), which
compares, hashes and prints like the ``int``.  Any division or negative
power goes through ``Fraction``, so an ``int`` operand never produces a
float.

A Laurent polynomial in ``nvars`` torus variables t1..t{nvars} is a finite
map from dense integer exponent vectors (tuples of length ``nvars``,
negative entries allowed) to nonzero rationals:

    t1^2 - t2^-1   ->   LaurentPoly(2, {(2, 0): 1, (0, -1): -1})

The empty map is the zero polynomial.  Zero coefficients are never stored,
so two Laurent polynomials are equal iff their term maps are equal; that
canonical form is what every other module relies on for exact symbolic
comparison.  All values are immutable by convention and all operations are
pure, so concurrent readers need no synchronization.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Mapping, Sequence

from .errors import RankMismatch, ZeroTorusPoint


def normalize_scalar(value):
    """Stored form of an exact rational: ``int`` if integral, else ``Fraction``."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"not an exact rational: {value!r}")


def clear_denominators(values):
    """(d, ints): the least common denominator d of ``values`` and their
    multiples by d.  Exact stages scale once, then work over the integers."""
    values = list(values)
    # int has numerator and denominator too, so one expression serves both
    d = lcm(*[x.denominator for x in values])
    return d, [x.numerator * (d // x.denominator) for x in values]


class LaurentPoly:
    """Sparse Laurent polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping | None = None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise RankMismatch(
                        f"exponent vector {exps} has length {len(exps)}, "
                        f"expected {nvars}")
                coeff = normalize_scalar(coeff)
                prev = clean.get(exps)
                if prev is not None:
                    coeff = normalize_scalar(prev + coeff)
                if coeff:
                    clean[exps] = coeff
                elif prev is not None:
                    del clean[exps]
        self.nvars = nvars
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def const(cls, nvars: int, value) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def var(cls, nvars: int, index: int, power: int = 1) -> "LaurentPoly":
        """The monomial t_index^power; ``index`` is 1-based."""
        if not 1 <= index <= nvars:
            raise RankMismatch(f"t{index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index - 1] = power
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Iterable[int]) -> "LaurentPoly":
        return cls(nvars, {tuple(exps): 1})

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            other = normalize_scalar(other)
            if not other:
                return not self.terms
            return self.terms == {(0,) * self.nvars: other}
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        items = ", ".join(f"{e}: {c}" for e, c in self.sorted_terms())
        return f"LaurentPoly({self.nvars}, {{{items}}})"

    def sorted_terms(self):
        """Terms in lexicographic exponent order (the canonical print order)."""
        return sorted(self.terms.items())

    def constant_coeff(self):
        """Coefficient at the zero exponent vector."""
        return self.terms.get((0,) * self.nvars, 0)

    def as_unit_monomial(self):
        """Return (exponents, coeff) if this is a single nonzero term, else None."""
        if len(self.terms) != 1:
            return None
        [(exps, coeff)] = self.terms.items()
        return exps, coeff

    # -- ring operations ----------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise RankMismatch(
                f"operands over {self.nvars} and {other.nvars} torus variables")

    def __add__(self, other):
        # LaurentPoly first: failing isinstance against the Fraction ABC is slow
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(self.nvars, other)
        self._check(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[exps] = acc
            elif exps in out:
                del out[exps]
        res = LaurentPoly.__new__(LaurentPoly)
        res.nvars = self.nvars
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LaurentPoly.__new__(LaurentPoly)
        res.nvars = self.nvars
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(self.nvars, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = normalize_scalar(other)
            if not other:
                return LaurentPoly.zero(self.nvars)
            res = LaurentPoly.__new__(LaurentPoly)
            res.nvars = self.nvars
            res.terms = {e: c * other for e, c in self.terms.items()}
            return res
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple([a + b for a, b in zip(e1, e2)])
                acc = out.get(key)
                prod = c1 * c2
                acc = prod if acc is None else acc + prod
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        res = LaurentPoly.__new__(LaurentPoly)
        res.nvars = self.nvars
        res.terms = out
        return res

    __rmul__ = __mul__

    # -- evaluation ---------------------------------------------------

    def eval(self, point: Sequence):
        """Exact evaluation at a torus point (all entries nonzero).

        Each variable's powers are shifted up by its most negative exponent
        l, so the sum runs over nonnegative powers (over the integers when
        the point and coefficients are integers) and is divided once by
        prod x^-l.  The value is in stored form (normalize_scalar).
        """
        if len(point) != self.nvars:
            raise RankMismatch(
                f"point of length {len(point)} for {self.nvars} variables")
        values = [normalize_scalar(x) for x in point]
        if any(not x for x in values):
            raise ZeroTorusPoint("evaluation point has a zero entry")
        low = [min(0, *column) for column in zip(*self.terms)]
        total = sum(coeff * prod(x ** (e - l)
                                 for x, e, l in zip(values, exps, low))
                    for exps, coeff in self.terms.items())
        return normalize_scalar(
            Fraction(total, prod(x ** -l for x, l in zip(values, low))))
