"""Words and free noncommutative polynomials with pluggable coefficients.

A word is a tuple of 1-based generator indices; the empty tuple is the
empty word (the algebra unit).  A free polynomial over rank ``n`` is a
finite map from words to nonzero coefficients.  Multiplication is the
bilinear extension of word concatenation, so z1*z2 and z2*z1 are distinct
terms.

Coefficients come in two kinds:

  * scalar  -- exact rationals: ``int`` when integral, ``Fraction``
               otherwise, never a float; ``FreePoly.nvars is None``
  * laurent -- ``LaurentPoly`` values sharing ``FreePoly.nvars``

Mixed-kind arithmetic widens scalars into the Laurent ring, which is how a
rational automorphism composes with a torus action without any explicit
embedding step.  Canonical form stores no zero coefficients and, for the
laurent kind, only ``LaurentPoly`` values, so ``==`` is structural.

``f_substitute`` evaluates in Horner form: grouping the words by their
first letter, p = c + sum_j z_j q_j, it returns c + sum_j g_j q_j(g), so
sums of suffixes cancel before they are multiplied.  It keeps one frame per
letter of the current word on a list rather than recursing, so words as
long as the parser accepts evaluate at any call depth.  ``f_mul`` and
every evaluation share one product loop over raw term maps.

Display order everywhere is graded lexicographic on words (length first,
then letters, z1 < z2 < ...); that order also defines which witness a
failed comparison reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .coefficients import LaurentPoly, normalize_scalar
from .errors import RankMismatch

Word = Tuple[int, ...]

EMPTY_WORD: Word = ()


def merge_nvars(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Combine two coefficient kinds; scalar widens into laurent."""
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise RankMismatch(f"laurent coefficients over {a} and {b} variables")


def _normalize_coeff(coeff, nvars: Optional[int]):
    """Coerce a raw coefficient to the canonical value for the kind."""
    if nvars is None:
        if isinstance(coeff, LaurentPoly):
            raise RankMismatch("laurent coefficient in a scalar polynomial")
        return normalize_scalar(coeff)
    if isinstance(coeff, LaurentPoly):
        if coeff.nvars != nvars:
            raise RankMismatch(
                f"coefficient over {coeff.nvars} variables, expected {nvars}")
        return coeff
    return LaurentPoly.const(nvars, coeff)


class FreePoly:
    """Element of the free associative algebra K<z1..zn> (or its Laurent base change)."""

    __slots__ = ("rank", "nvars", "terms")

    def __init__(self, rank: int, terms=None, nvars: Optional[int] = None):
        if rank < 0:
            raise RankMismatch("rank must be non-negative")
        clean: Dict[Word, object] = {}
        if terms:
            for word, coeff in terms.items():
                word = tuple(word)
                if any(not 1 <= z <= rank for z in word):
                    raise RankMismatch(f"word {word} uses letters outside 1..{rank}")
                coeff = _normalize_coeff(coeff, nvars)
                if coeff:
                    prev = clean.get(word)
                    acc = coeff if prev is None else prev + coeff
                    if acc:
                        clean[word] = acc
                    elif word in clean:
                        del clean[word]
        self.rank = rank
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _raw(cls, rank, nvars, terms):
        poly = cls.__new__(cls)
        poly.rank = rank
        poly.nvars = nvars
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int, nvars: Optional[int] = None) -> "FreePoly":
        return cls._raw(rank, nvars, {})

    @classmethod
    def const(cls, rank: int, value, nvars: Optional[int] = None) -> "FreePoly":
        return cls(rank, {EMPTY_WORD: value}, nvars)

    @classmethod
    def gen(cls, rank: int, index: int, nvars: Optional[int] = None) -> "FreePoly":
        """The generator z_index (1-based)."""
        if not 1 <= index <= rank:
            raise RankMismatch(f"z{index} out of range for rank {rank}")
        one = 1 if nvars is None else LaurentPoly.one(nvars)
        return cls._raw(rank, nvars, {(index,): one})

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreePoly):
            return NotImplemented
        return (self.rank == other.rank and self.nvars == other.nvars
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self) -> str:
        items = ", ".join(f"{w}: {c!r}" for w, c in self.sorted_terms())
        return f"FreePoly({self.rank}, {{{items}}}, nvars={self.nvars})"

    def sorted_terms(self):
        """Terms in graded-lex word order."""
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))

    def coeff(self, word: Word):
        """Coefficient of ``word`` (a zero of the right kind if absent)."""
        got = self.terms.get(tuple(word))
        if got is not None:
            return got
        return 0 if self.nvars is None else LaurentPoly.zero(self.nvars)

    def constant_coeff(self):
        return self.coeff(EMPTY_WORD)

    def degree(self) -> int:
        """Max word length; -1 for the zero polynomial."""
        return max(map(len, self.terms), default=-1)

    # -- ring operations ----------------------------------------------

    def _join(self, other: "FreePoly"):
        if self.rank != other.rank:
            raise RankMismatch(f"ranks {self.rank} and {other.rank} differ")
        return merge_nvars(self.nvars, other.nvars)

    def __add__(self, other):
        # FreePoly first: a failed isinstance against the Fraction ABC is slow
        if not isinstance(other, FreePoly):
            if not isinstance(other, (int, Fraction, LaurentPoly)):
                return NotImplemented
            other = FreePoly(self.rank, {EMPTY_WORD: other},
                             other.nvars if isinstance(other, LaurentPoly) else self.nvars)
        nvars = self._join(other)
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            prev = out.get(word)
            acc = coeff if prev is None else prev + coeff
            if acc:
                out[word] = acc
            elif word in out:
                del out[word]
        if nvars == self.nvars == other.nvars:
            return FreePoly._raw(self.rank, nvars, out)
        return FreePoly(self.rank, out, nvars)

    __radd__ = __add__

    def __neg__(self):
        return FreePoly._raw(self.rank, self.nvars,
                             {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, FreePoly):
            return self.__add__(other.__neg__())
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self.__add__(-other)
        return NotImplemented

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __mul__(self, other):
        if isinstance(other, FreePoly):
            return f_mul(self, other)
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def scale(self, coeff):
        nvars = self.nvars
        if isinstance(coeff, LaurentPoly):
            nvars = merge_nvars(nvars, coeff.nvars)
        if not coeff:
            return FreePoly.zero(self.rank, nvars)
        out = {}
        for word, c in self.terms.items():
            acc = coeff * c
            if acc:
                out[word] = acc
        if nvars == self.nvars:
            return FreePoly._raw(self.rank, nvars, out)
        return FreePoly(self.rank, out, nvars)


def _mul_into(out: Dict[Word, object], a_terms, b_terms,
              max_degree: Optional[int]) -> None:
    """Add the product of the term maps ``a_terms`` and ``b_terms`` into ``out``.

    Words longer than ``max_degree`` (if not None) are dropped; zero sums
    are deleted, so canonical inputs leave ``out`` canonical.
    """
    get = out.get
    b_items = b_terms.items()
    for w1, c1 in a_terms.items():
        if max_degree is not None:
            room = max_degree - len(w1)
            b_items = [item for item in b_terms.items() if len(item[0]) <= room]
        for w2, c2 in b_items:
            word = w1 + w2
            acc = c1 * c2
            prev = get(word)
            if prev is not None:
                acc = prev + acc
            if acc:
                out[word] = acc
            elif prev is not None:
                del out[word]


def f_mul(p: FreePoly, q: FreePoly, max_degree: Optional[int] = None) -> FreePoly:
    """Noncommutative product: bilinear extension of word concatenation.

    ``max_degree`` drops all product words longer than the bound; callers
    doing exact work leave it None.
    """
    nvars = p._join(q)
    out: Dict[Word, object] = {}
    _mul_into(out, p.terms, q.terms, max_degree)
    if nvars == p.nvars == q.nvars:
        return FreePoly._raw(p.rank, nvars, out)
    return FreePoly(p.rank, out, nvars)


def _horner(terms, images, max_degree: Optional[int]):
    """Raw terms of p(images), p given by its term map ``terms``, in Horner form.

    Grouping the words by their first letter, p = c + sum_j z_j q_j gives
    p(g) = c + sum_j g_j q_j(g), and each q_j is grouped the same way.  The
    words are walked in lexicographic order, which visits the tree of their
    prefixes depth first with every prefix before its extensions.
    ``frames[d]`` collects the evaluated suffixes that follow the first d
    letters of the previous word, ``path``; once the walk leaves such a
    prefix its frame is multiplied by the image of the prefix's last letter
    and added to the frame below.  The stack, not the call depth, grows
    with the longest word.
    """
    path: Word = EMPTY_WORD
    frames = [{}]
    for word in sorted(terms):
        # the longest common prefix of word and path; only the empty word,
        # which sorts first, does not extend it
        depth = 0
        for a, b in zip(path, word):
            if a != b:
                break
            depth += 1
        for letter in reversed(path[depth:]):
            inner = frames.pop()
            if inner:
                _mul_into(frames[-1], images[letter - 1].terms, inner,
                          max_degree)
        frames.extend({} for _ in word[depth:])
        frames[-1][EMPTY_WORD] = terms[word]
        path = word
    for letter in reversed(path):
        inner = frames.pop()
        if inner:
            _mul_into(frames[-1], images[letter - 1].terms, inner, max_degree)
    return frames[0]


def t_components(poly: FreePoly) -> dict:
    """Split a Laurent-coefficient polynomial into its t-graded parts.

    Returns {m: g_m} with poly = sum_m t^m g_m and each g_m a scalar
    polynomial, in one pass over the terms.
    """
    parts = {}
    for word, coeff in poly.terms.items():
        for m, c in coeff.terms.items():
            parts.setdefault(m, {})[word] = c
    return {m: FreePoly._raw(poly.rank, None, terms)
            for m, terms in parts.items()}


def evaluate_by_t(p: FreePoly, evaluate) -> Dict[Word, LaurentPoly]:
    """Raw terms of p(images) for Laurent ``p`` and scalar images.

    With p = sum_m t^m p_m and every p_m scalar, p(g) = sum_m t^m p_m(g):
    ``evaluate`` maps the term map of one t-part to the raw terms of its
    image, so no Laurent coefficient enters a product, and distinct t-parts
    never cancel.
    """
    out: Dict[Word, LaurentPoly] = {}
    for m, part in t_components(p).items():
        for word, c in evaluate(part.terms).items():
            coeff = out.get(word)
            if coeff is None:
                coeff = out[word] = LaurentPoly(p.nvars)
            coeff.terms[m] = normalize_scalar(c)
    return out


def f_substitute(p: FreePoly, images: Sequence[FreePoly],
                 max_degree: Optional[int] = None) -> FreePoly:
    """Algebra-homomorphism image of ``p`` under z_j -> images[j-1].

    Coefficients multiply through (they are central).  The words of ``p``
    are evaluated in Horner form: p = c + sum_j z_j q_j gives
    p(g) = c + sum_j g_j q_j(g), each q_j(g) evaluated the same way, so the
    suffix sums of words sharing a prefix are formed (and cancel) before
    they are multiplied by that prefix's images; the walk is iterative, so
    word length is not bounded by the recursion limit.  ``max_degree``
    truncates every product at that word length; word lengths never fall
    in a product, so the result is exact in every degree <= max_degree.
    """
    if len(images) != p.rank:
        raise RankMismatch(f"{len(images)} images for rank {p.rank}")
    nvars = p.nvars
    rank = None
    for img in images:
        nvars = merge_nvars(nvars, img.nvars)
        if rank is None:
            rank = img.rank
        elif img.rank != rank:
            raise RankMismatch("substitution images have differing ranks")
    if rank is None:
        rank = p.rank
    out = _horner(p.terms, images, max_degree)
    # only a scalar p under Laurent images can mix kinds (its constant
    # term stays scalar); otherwise every value has the kind
    if nvars == p.nvars:
        return FreePoly._raw(rank, nvars, out)
    return FreePoly(rank, out, nvars)


def abelianize(p: FreePoly) -> LaurentPoly:
    """Project onto the commutative polynomial ring: words become exponent vectors.

    The image lives in a LaurentPoly whose variables are the torus variables
    of ``p`` (if any) followed by the commuting images x1..x{rank} of the
    generators: scalar input yields a pure x-polynomial.  Commutators map
    to zero because letter counts ignore order.
    """
    tvars = p.nvars or 0
    out = {}
    for word, coeff in p.terms.items():
        counts = [0] * p.rank
        for letter in word:
            counts[letter - 1] += 1
        counts = tuple(counts)
        items = (coeff.terms.items() if isinstance(coeff, LaurentPoly)
                 else [((0,) * tvars, coeff)])
        for e, c in items:
            key = e + counts
            out[key] = out.get(key, 0) + c
    return LaurentPoly(tvars + p.rank, out)


def abelianized_representative(p: FreePoly) -> FreePoly:
    """The canonical section of the abelianization: every word sorted.

    Two polynomials have the same image under ``abelianize`` iff their
    representatives are equal, and the representative prints through the
    ordinary document grammar.
    """
    out = {}
    for word, coeff in p.terms.items():
        key = tuple(sorted(word))
        prev = out.get(key)
        out[key] = coeff if prev is None else prev + coeff
    return FreePoly(p.rank, out, p.nvars)
