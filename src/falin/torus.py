"""Torus actions on the free algebra.

A TorusAction wraps a PolyMap whose coefficients are Laurent polynomials
in as many torus variables as the algebra has generators.  This module
verifies the group-action axioms symbolically, specializes actions at
torus points, diagonalizes linear parts into weight spaces, decides
effectiveness by the rank of the weight matrix, and reads the fixed point
off the t-constant part of the constant terms.  The weight space of mu is
the image of the t^mu coefficient matrix A_mu of the linear part: its
canonical basis comes from one rref over the columns of A_mu, and each
vector is checked to be scaled by t^mu.

The axiom check is graded by t (Bialynicki-Birula's weight argument):
with sigma(t)(z_i) = sum_m t^m g_{i,m}(z), sigma(s) o sigma(t) = sigma(st)
holds exactly when sigma(s)(g_{i,m}) = s^m g_{i,m} for every i and m, an
identity over the n torus variables alone.  Only a failure witness is
written over 2n variables, t in slots 0..n-1 and s in slots n..2n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional, Sequence

from . import linalg
from .coefficients import LaurentPoly, clear_denominators, normalize_scalar
from .endo import PolyMap, constant_part
from .errors import (FixedPointNotFound, NotDiagonalizable, RankMismatch,
                     ZeroTorusPoint)
from .freealg import FreePoly, Word, f_substitute, t_components


class TorusAction:
    """An n-torus acting on F_n, given by the map sigma(t)."""

    __slots__ = ("rank", "map", "degree")

    def __init__(self, map_: PolyMap):
        if map_.nvars != map_.rank:
            raise RankMismatch(
                f"action coefficients use {map_.nvars} torus variables, "
                f"expected {map_.rank}")
        self.rank = map_.rank
        self.map = map_
        self.degree = map_.degree()

    def __eq__(self, other):
        if not isinstance(other, TorusAction):
            return NotImplemented
        return self.map == other.map

    __hash__ = None

    def __repr__(self):
        return f"TorusAction({self.map!r})"


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of check_axioms; on failure pins the first discrepancy."""

    ok: bool
    axiom: Optional[str] = None          # "compatibility" | "identity"
    image: Optional[int] = None          # 1-based generator index
    word: Optional[Word] = None
    got: object = None
    expected: object = None

    def __bool__(self):
        return self.ok


def _first_difference(got: FreePoly, expected: FreePoly):
    """First (word, got-coeff, expected-coeff) triple in graded-lex order."""
    words = set(got.terms) | set(expected.terms)
    for word in sorted(words, key=lambda w: (len(w), w)):
        a = got.coeff(word)
        b = expected.coeff(word)
        if a != b:
            return word, a, b
    return None


def check_axioms(action: TorusAction) -> AxiomVerdict:
    """Verify the action axioms symbolically.

    Write sigma(t)(z_i) = sum_m t^m g_{i,m}(z).  Then sigma(s) o sigma(t)
    sends z_i to sum_m t^m sigma(s)(g_{i,m}) and sigma(st) sends it to
    sum_m t^m s^m g_{i,m}; the t^m parts are independent, so compatibility
    holds exactly when sigma(s)(g_{i,m}) = s^m g_{i,m} for every i and m,
    which is checked over n torus variables.  Then sigma(1,...,1) =
    identity, with sigma(1,...,1) evaluated by specialize.  Failure is a
    verdict with a witness, not an exception.  A compatibility witness is
    the coefficient of both sides at the first differing word, over 2n
    variables: t in slots 0..n-1, s in n..2n-1.
    """
    n = action.rank
    images = action.map.images
    for i, img in enumerate(images):
        sides = []
        for m, g in t_components(img).items():
            got = f_substitute(g, images)
            sides.append((m, g, got, g.scale(LaurentPoly.monomial(n, m))))
        words = [_first_difference(got, expected)[0]
                 for _, _, got, expected in sides if got != expected]
        if words:
            word = min(words, key=lambda w: (len(w), w))
            got = {m + e: c for m, _, side, _ in sides
                   for e, c in side.coeff(word).terms.items()}
            expected = {m + m: g.coeff(word) for m, g, _, _ in sides}
            return AxiomVerdict(False, "compatibility", i + 1, word,
                                LaurentPoly(2 * n, got),
                                LaurentPoly(2 * n, expected))
    for i, img in enumerate(specialize(action, [1] * n).images):
        ident = FreePoly.gen(n, i + 1)
        if img != ident:
            word, a, b = _first_difference(img, ident)
            return AxiomVerdict(False, "identity", i + 1, word, a, b)
    return AxiomVerdict(True)


def specialize(action: TorusAction, point: Sequence) -> PolyMap:
    """Evaluate every coefficient at a torus point, yielding a scalar map."""
    point = [normalize_scalar(x) for x in point]
    if len(point) != action.rank:
        raise RankMismatch(f"point of length {len(point)} for rank {action.rank}")
    if any(not x for x in point):
        raise ZeroTorusPoint("torus points have nonzero entries")
    return PolyMap([
        FreePoly(img.rank, {w: c.eval(point) for w, c in img.terms.items()})
        for img in action.map.images])


def is_effective(weights) -> bool:
    """Effective iff the integer weight matrix has full rank."""
    if any(type(normalize_scalar(x)) is not int
           for row in weights for x in row):
        raise ValueError("weights must be integers")
    return len(linalg.rref(weights)[1]) == len(weights)


def weight_decomposition(matrix):
    """Split K^n into weight spaces of a Laurent matrix A(t).

    Write A(t) = sum_nu t^nu A_nu, collecting each A_nu once in
    first-occurrence order (rows, entries, sorted exponents).  A(t) v =
    t^mu v says A_nu v = 0 for nu != mu and A_mu v = v, so the weight space
    W_mu lies in the image of A_mu; when A(t) is diagonalizable, A_mu is
    the projection onto W_mu along the other weight spaces, and W_mu is
    that image.  So W_mu is read off the columns of A_mu by one rref in
    reversed coordinates, its rows taken in reverse order and reversed
    back.  That gives the canonical basis of the space, which depends on
    the space alone: its vectors end in a 1 at distinct positions, where
    the others are 0.  Each vector is kept only if A(t) v = t^mu v, which
    is checked over the integers: with each A_nu cleared once to
    Ai_nu = D_nu A_nu and v to an integer multiple, Ai_nu v = 0 for
    nu != mu and Ai_mu v = D_mu v.  The rref reads the cleared Ai_mu, whose
    image is that of A_mu.

    Returns (P, M): the base change whose columns are the concatenated
    bases, and the integer matrix whose i-th row is the weight of column
    i, so that P^-1 A(t) P = diag(t^{m_1}, ..., t^{m_n}) exactly.  Weight
    spaces are independent: applying A_nu to a sum of vectors from them
    keeps only the nu-th.  So P is invertible once there are n columns.  A
    failed check, or fewer than n columns, raises NotDiagonalizable: the
    input was not a genuine action matrix.  Entries are LaurentPoly, as
    ``linear_part`` gives them.
    """
    n = len(matrix)
    graded = {}  # nu -> {(i, j): entry of A_nu}, for nonzero entries only
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            for nu in sorted(entry.terms):
                graded.setdefault(nu, {})[i, j] = entry.terms[nu]
    for nu, a_nu in graded.items():
        d, ints = clear_denominators(a_nu.values())
        graded[nu] = d, dict(zip(a_nu, ints))

    columns = []
    weights = []
    for mu, (d_mu, a_mu) in graded.items():
        image_columns = [[a_mu.get((i, j), 0) for i in reversed(range(n))]
                         for j in {j for _, j in a_mu}]
        for row in reversed(linalg.rref(image_columns)[0]):
            vec = row[::-1]
            _, v = clear_denominators(vec)
            image = {}  # (nu, i) -> entry i of Ai_nu v
            for nu, (_, a_nu) in graded.items():
                for (i, j), c in a_nu.items():
                    if v[j]:
                        image[nu, i] = image.get((nu, i), 0) + c * v[j]
            if ({key: x for key, x in image.items() if x}
                    != {(mu, i): d_mu * x for i, x in enumerate(v) if x}):
                raise NotDiagonalizable(
                    f"A(t) does not scale by t^{mu} a vector of the image "
                    f"of A_{mu}")
            columns.append(vec)
            weights.append(list(mu))

    if len(columns) != n:
        raise NotDiagonalizable(
            f"weight spaces span dimension {len(columns)} of {n}")
    basis = [[columns[j][i] for j in range(n)] for i in range(n)]
    return basis, weights


# -- fixed points ------------------------------------------------------

def translated_constant_part(map_: PolyMap, c: Sequence):
    """Constant part of the translation conjugate, without building it.

    Yields, entry by entry, f_i evaluated at z = c minus c_i; all entries
    vanish exactly when c is a fixed point of the abelianized action.  It is
    checked over the integers: with D clearing c and k = deg f_i, the t^m
    part of D^k (f_i(c) - c_i) sums c_{w,m} prod_{l in w} (D c_l) D^(k-|w|),
    each c_{w,m} scaled to an integer once, and is divided once.  Entries are
    computed lazily, so ``not any(...)`` stops at the first nonzero one.
    """
    c = [normalize_scalar(x) for x in c]
    d, point = clear_denominators(c)
    nvars = map_.nvars or 0  # a scalar is the coefficient of t^()
    for i, img in enumerate(map_.images):
        top = max(img.degree(), 0)
        flat = [((0,) * nvars, d ** top, -c[i])]  # (t^m, D-weight, coeff)
        for word, coeff in img.terms.items():
            value = prod([point[x - 1] for x in word],
                         start=d ** (top - len(word)))
            if value:
                flat += [(m, value, x) for m, x in (
                    coeff.terms.items() if nvars else [((), coeff)])]
        e, ints = clear_denominators([x for _, _, x in flat])
        sums = {}
        for (m, value, _), a in zip(flat, ints):
            sums[m] = sums.get(m, 0) + a * value
        entry = LaurentPoly(nvars, {m: Fraction(x, e * d ** top)
                                    for m, x in sums.items()})
        yield entry if nvars else entry.constant_coeff()


def fixed_point(action: TorusAction) -> tuple:
    """The rational point fixed by the whole action, read off sigma.

    Write sigma(t)(z_i) = sum_m t^m g_{i,m}(z).  Compatibility makes each
    t-constant part g_{i,0} invariant, and an effective action is conjugate
    to a diagonal linear action with a non-singular weight matrix, whose
    only invariants are constants.  So g_{i,0} is a constant, and
    evaluating sigma(t)(z_i) at a fixed point c shows that this constant is
    c_i (Bialynicki-Birula's argument, "Remarks on the action of an
    algebraic torus on k^n", 1966).  The point c, with c_i the t^0
    coefficient of the constant term of sigma(t)(z_i), is verified
    symbolically before it is returned.  Otherwise FixedPointNotFound is
    raised; for a genuine action that proves it is not effective.
    """
    consts = constant_part(action.map)
    center = tuple(c.constant_coeff() for c in consts)
    # with no constant terms center is the origin, which is then fixed
    if any(consts) and any(translated_constant_part(action.map, center)):
        raise FixedPointNotFound(
            "the t-constant part of the constant terms is not a fixed point: "
            "the action is not effective, or not an action")
    return center
