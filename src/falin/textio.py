"""Parse and print action documents; emit linearization reports as JSON.

The concrete syntax (the package's only wire format besides the JSON
report) is:

    document  := header binding+ "end"
    header    := "rank" INT NEWLINE ("action" | "map") NEWLINE
    binding   := zvar "->" expr NEWLINE
    expr      := term (("+" | "-") term)*
    term      := factor ("*" factor)*
    factor    := atom ("^" SIGNEDINT)?
    atom      := RATIONAL | tvar | zvar | "(" expr ")"
    zvar      := "z" INT     tvar := "t" INT
    RATIONAL  := SIGNEDINT ("/" POSINT)?

"#" starts a comment running to the end of the line.  Whitespace is
insignificant except that a newline ends a binding.  z-variables do not
commute with each other; t-variables commute with everything.  A power on
a z-variable must be a positive integer (it expands into repeated
letters); powers on t-variables may be any integer.  A power or product
that would build words longer than MAX_WORD_LENGTH letters, or form more
than MAX_PRODUCTS products of terms (a Laurent coefficient counting one
term per t-monomial) or scalars of more than MAX_DIGITS digits, is a parse
error, and so is a longer numeral, a non-ASCII token, a power above
MAX_WORD_LENGTH of an expression without z-letters or parentheses nested
more than MAX_NESTING deep.  Map documents may not mention t-variables.

Printing produces the canonical form: free terms in graded-lex word
order, Laurent terms in lexicographic exponent order, coefficients as
reduced rationals, repeated adjacent letters collapsed into powers, and
t-factors hoisted left of the z-letters.  ``parse(render(x))`` rebuilds
``x`` exactly, and ``render(parse(text))`` is idempotent on any valid
``text``.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .coefficients import LaurentPoly, normalize_scalar
from .endo import PolyMap
from .errors import ParseError
from .freealg import FreePoly
from .linearize import LinearizationReport
from .torus import TorusAction

KEYWORDS = {"rank", "action", "map", "end"}

# Powers and products expand while parsing, so a short document could
# otherwise ask for a word of 5e7 letters (z1^50000000), for 2^k words
# ((z1 + z2)^k, or k factors (z1 + z2) multiplied), for O(k^2) Laurent
# terms ((t1 + t2 + 1)^k) or for k multiplications ((1)^k).  An expansion
# is rejected when its words would exceed MAX_WORD_LENGTH letters, when
# the number of term products it forms (s^k for a power of an s-term
# base, s * r * ... for a product, where each t-monomial of a Laurent
# coefficient is a term) exceeds MAX_PRODUCTS, or when it raises an
# expression without z-letters to a power above MAX_WORD_LENGTH.
MAX_WORD_LENGTH = 10_000
MAX_PRODUCTS = 100_000
# Scalars stay printable (CPython converts at most 4,300 digits between
# int and str): a numeral has at most MAX_DIGITS digits, and a product or
# power is rejected before it is formed when its scalars could have more.
MAX_DIGITS = 1_000
# The parser recurses once per parenthesis, so nesting is bounded well
# inside Python's recursion limit.
MAX_NESTING = 100


@dataclass(frozen=True)
class ActionDocument:
    """A parsed document: header data plus one expression per generator."""

    rank: int
    kind: str                                  # "action" | "map"
    bindings: Tuple[Tuple[int, FreePoly], ...]  # textual order

    def images(self):
        by_index = dict(self.bindings)
        return tuple(by_index[i] for i in range(1, self.rank + 1))

    def to_map(self) -> PolyMap:
        return PolyMap(self.images())

    def to_action(self) -> TorusAction:
        if self.kind != "action":
            raise ParseError("document is a map, not an action", 1, 1)
        return TorusAction(self.to_map())


# -- tokenizer ----------------------------------------------------------

class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


# ASCII only: str.isdigit also accepts superscripts and other scripts
_DIGITS = frozenset(string.digits)
_LETTERS = frozenset(string.ascii_letters)


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < size and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch == "\n":
            tokens.append(_Token("newline", None, line, col))
            i += 1
            line += 1
            col = 1
            continue
        start_col = col
        if ch in _DIGITS:
            j = i
            while j < size and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", _numeral(text[i:j], line, start_col),
                                 line, start_col))
            col += j - i
            i = j
            continue
        if ch in _LETTERS:
            j = i
            while j < size and (text[j] in _LETTERS or text[j] in _DIGITS):
                j += 1
            name = text[i:j]
            col += j - i
            i = j
            if name in KEYWORDS:
                tokens.append(_Token(name, name, line, start_col))
            elif name[0] in "zt" and len(name) > 1 and name[1:].isdigit():
                tokens.append(_Token("zvar" if name[0] == "z" else "tvar",
                                     _numeral(name[1:], line, start_col + 1),
                                     line, start_col))
            else:
                raise ParseError(f"unknown name '{name}'", line, start_col)
            continue
        if ch == "-" and i + 1 < size and text[i + 1] == ">":
            tokens.append(_Token("->", None, line, start_col))
            i += 2
            col += 2
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, None, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


def _numeral(digits: str, line: int, col: int) -> int:
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"numeral of more than {MAX_DIGITS} digits", line, col)
    return int(digits)


# -- parser -------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.rank = 0
        self.nvars: Optional[int] = None   # None while parsing a map document
        self.depth = 0                     # open parentheses

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.line, tok.col)
        return self.advance()

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.advance()

    def require_newline(self, what: str):
        tok = self.peek()
        if tok.kind != "newline":
            raise ParseError(f"expected end of line after {what}",
                             tok.line, tok.col)
        self.skip_newlines()

    # document structure

    def document(self) -> ActionDocument:
        self.skip_newlines()
        self.expect("rank", "'rank'")
        rank_tok = self.expect("int", "a positive rank")
        if rank_tok.value < 1:
            raise ParseError("rank must be at least 1", rank_tok.line, rank_tok.col)
        self.rank = rank_tok.value
        self.require_newline("the rank header")
        kind_tok = self.peek()
        if kind_tok.kind not in ("action", "map"):
            raise ParseError("expected 'action' or 'map'",
                             kind_tok.line, kind_tok.col)
        self.advance()
        kind = kind_tok.kind
        self.nvars = self.rank if kind == "action" else None
        self.require_newline(f"'{kind}'")

        bindings = []
        seen = set()
        while self.peek().kind == "zvar":
            ztok = self.advance()
            index = ztok.value
            if not 1 <= index <= self.rank:
                raise ParseError(f"z{index} exceeds rank {self.rank}",
                                 ztok.line, ztok.col)
            if index in seen:
                raise ParseError(f"duplicate binding for z{index}",
                                 ztok.line, ztok.col)
            seen.add(index)
            self.expect("->", "'->'")
            poly = self.expr()
            if self.nvars is not None and poly.nvars is None:
                poly = FreePoly(self.rank, poly.terms, self.nvars)
            self.require_newline("the binding expression")
            bindings.append((index, poly))
        end_tok = self.expect("end", "a binding or 'end'")
        missing = [i for i in range(1, self.rank + 1) if i not in seen]
        if missing:
            raise ParseError(f"missing binding for z{missing[0]}",
                             end_tok.line, end_tok.col)
        self.skip_newlines()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError("unexpected text after 'end'", tok.line, tok.col)
        return ActionDocument(self.rank, kind, tuple(bindings))

    # expressions

    def expr(self) -> FreePoly:
        poly = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            poly = poly + rhs if op.kind == "+" else poly - rhs
        return poly

    def term(self) -> FreePoly:
        poly, height = self.factor()
        length, count = poly.degree(), _expansion_terms(poly)
        while self.peek().kind == "*":
            star = self.advance()
            rhs, rhs_height = self.factor()
            length += rhs.degree()
            count *= _expansion_terms(rhs)
            height += rhs_height
            _check_expansion(length, count, star, height)
            poly = poly * rhs
        return poly

    def factor(self):
        """Returns (poly, log2 of a bound on its H; see _log2_height)."""
        poly, zvar, tvar, height = self.atom()
        if self.peek().kind != "^":
            return poly, height
        caret = self.advance()
        power = self.signed_int()
        if zvar is not None:
            if power < 1:
                raise ParseError("power of a z-variable must be a positive integer",
                                 caret.line, caret.col)
            _check_expansion(power, 1, caret)
            return FreePoly(self.rank, {(zvar,) * power: 1}), 0.0
        if tvar is not None:
            coeff = LaurentPoly.var(self.rank, tvar, power)
            return FreePoly.const(self.rank, coeff, self.rank), 0.0
        if power < 0:  # a power of the inverse, whose H is the same
            poly = poly.is_unit()
            if poly is None:
                raise ParseError("negative power of a non-invertible expression",
                                 caret.line, caret.col)
        exponent = abs(power)
        length = max(poly.degree(), 0) * exponent
        if not length and exponent > MAX_WORD_LENGTH:
            raise ParseError(f"power {exponent} of an expression without "
                             f"z-letters is more than {MAX_WORD_LENGTH}",
                             caret.line, caret.col)
        _check_expansion(length, 1, caret)  # bounds the exponent first
        count = _expansion_terms(poly) ** exponent
        height *= exponent
        _check_expansion(length, count, caret, height)
        return poly ** exponent, math.log2(count or 1) + height

    def signed_int(self) -> int:
        negative = False
        if self.peek().kind == "-":
            self.advance()
            negative = True
        tok = self.expect("int", "an integer exponent")
        return -tok.value if negative else tok.value

    def atom(self):
        """Returns (poly, z-index or None, t-index or None, log2 of its H)."""
        tok = self.peek()
        if tok.kind == "int" or tok.kind == "-":
            value = self.rational()
            height = math.log2(max(abs(value.numerator), value.denominator))
            return FreePoly.const(self.rank, value), None, None, height
        if tok.kind == "zvar":
            self.advance()
            if not 1 <= tok.value <= self.rank:
                raise ParseError(f"z{tok.value} exceeds rank {self.rank}",
                                 tok.line, tok.col)
            return FreePoly.gen(self.rank, tok.value), tok.value, None, 0.0
        if tok.kind == "tvar":
            self.advance()
            if self.nvars is None:
                raise ParseError("t-variables are not allowed in a map document",
                                 tok.line, tok.col)
            if not 1 <= tok.value <= self.rank:
                raise ParseError(f"t{tok.value} exceeds rank {self.rank}",
                                 tok.line, tok.col)
            coeff = LaurentPoly.var(self.rank, tok.value)
            coeff_poly = FreePoly.const(self.rank, coeff, self.rank)
            return coeff_poly, None, tok.value, 0.0
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested more than {MAX_NESTING} "
                                 f"deep", tok.line, tok.col)
            self.advance()
            self.depth += 1
            poly = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
            return poly, None, None, _log2_height(poly)
        raise ParseError("expected a rational, a variable, or '('",
                         tok.line, tok.col)

    def rational(self):
        negative = False
        if self.peek().kind == "-":
            self.advance()
            negative = True
        num_tok = self.expect("int", "an integer")
        value = num_tok.value
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("int", "a positive denominator")
            if den_tok.value == 0:
                raise ParseError("denominator must be positive",
                                 den_tok.line, den_tok.col)
            value = Fraction(num_tok.value, den_tok.value)
        return normalize_scalar(-value if negative else value)


def _expansion_terms(poly: FreePoly) -> int:
    """Terms an expansion multiplies: one per t-monomial of a coefficient."""
    return sum(len(c.terms) if isinstance(c, LaurentPoly) else 1
               for c in poly.terms.values())


def _check_expansion(length: int, count: int, tok, log2_height=0.0) -> None:
    if length > MAX_WORD_LENGTH:
        raise ParseError(f"expansion would build words of {length} letters, "
                         f"more than {MAX_WORD_LENGTH}", tok.line, tok.col)
    if count > MAX_PRODUCTS:
        raise ParseError(f"expansion would form {count} term products, "
                         f"more than {MAX_PRODUCTS}", tok.line, tok.col)
    if (math.log2(count or 1) + log2_height) * math.log10(2) > MAX_DIGITS:
        raise ParseError(f"expansion would form scalars of more than "
                         f"{MAX_DIGITS} digits", tok.line, tok.col)


def _log2_height(poly: FreePoly) -> float:
    """log2 of H = max(V, 1) * L, V the largest absolute scalar and L the lcm
    of the denominators of ``poly``.  A coefficient of a product p_1 ... p_k
    summing K term products has num and den at most K * H_1 * ... * H_k."""
    log2_v, lcm = 0.0, 1
    for c in poly.terms.values():
        for x in (c.terms.values() if isinstance(c, LaurentPoly) else (c,)):
            if type(x) is int:
                log2_v = max(log2_v, math.log2(abs(x)))
            else:
                log2_v = max(log2_v, math.log2(abs(x.numerator))
                             - math.log2(x.denominator))
                lcm = math.lcm(lcm, x.denominator)
    return log2_v + math.log2(lcm)


def parse(text: str) -> ActionDocument:
    """Parse a document; every failure raises ParseError with line/column."""
    return _Parser(text).document()


# -- printer ------------------------------------------------------------

def _default_tname(k: int) -> str:
    return f"t{k}"


def _monomial_str(exps, tname) -> str:
    return "*".join(
        tname(k + 1) if e == 1 else f"{tname(k + 1)}^{e}"
        for k, e in enumerate(exps) if e)


def _word_str(word) -> str:
    if not word:
        return ""
    parts = []
    run_letter, run_len = word[0], 0
    for letter in word:
        if letter == run_letter:
            run_len += 1
        else:
            parts.append(f"z{run_letter}" if run_len == 1
                         else f"z{run_letter}^{run_len}")
            run_letter, run_len = letter, 1
    parts.append(f"z{run_letter}" if run_len == 1 else f"z{run_letter}^{run_len}")
    return "*".join(parts)


def _join_terms(pieces) -> str:
    """Assemble (negative, magnitude) pairs into a grammar-valid sum."""
    out = []
    for negative, magnitude in pieces:
        if not out:
            if negative:
                out.append("-" + magnitude if magnitude[0].isdigit()
                           else "-1*" + magnitude)
            else:
                out.append(magnitude)
        else:
            out.append((" - " if negative else " + ") + magnitude)
    return "".join(out)


def laurent_str(p: LaurentPoly, tname=_default_tname) -> str:
    """Canonical textual form of a Laurent polynomial (no outer parens)."""
    if not p.terms:
        return "0"
    pieces = []
    for exps, coeff in p.sorted_terms():
        negative = coeff < 0
        mono = _monomial_str(exps, tname)
        mag = abs(coeff)
        if not mono:
            pieces.append((negative, str(mag)))
        elif mag == 1:
            pieces.append((negative, mono))
        else:
            pieces.append((negative, f"{mag}*{mono}"))
    return _join_terms(pieces)


def _term_parts(word, coeff, tname):
    """(negative, magnitude) of one free term, per the canonical form."""
    word_text = _word_str(word)
    if not isinstance(coeff, LaurentPoly):
        negative = coeff < 0
        mag = abs(coeff)
        if word_text and mag == 1:
            return negative, word_text
        if word_text:
            return negative, f"{mag}*{word_text}"
        return negative, str(mag)
    unit = coeff.as_unit_monomial()
    if unit is not None:
        exps, q = unit
        negative = q < 0
        mono = _monomial_str(exps, tname)
        parts = []
        if abs(q) != 1 or not (mono or word_text):
            parts.append(str(abs(q)))
        if mono:
            parts.append(mono)
        if word_text:
            parts.append(word_text)
        return negative, "*".join(parts)
    inner = laurent_str(coeff, tname)
    mag = f"({inner})*{word_text}" if word_text else f"({inner})"
    return False, mag


def poly_str(p: FreePoly, tname=_default_tname) -> str:
    """Canonical textual form of a free polynomial."""
    if not p.terms:
        return "0"
    return _join_terms(_term_parts(w, c, tname) for w, c in p.sorted_terms())


def _doc_kind(pm: PolyMap) -> str:
    return "map" if pm.nvars is None else "action"


def map_document(pm: PolyMap, kind: Optional[str] = None,
                 tname=_default_tname) -> str:
    kind = kind or _doc_kind(pm)
    lines = [f"rank {pm.rank}", kind]
    for i, img in enumerate(pm.images, start=1):
        lines.append(f"z{i} -> {poly_str(img, tname)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def render(obj) -> str:
    """The canonical printer for every document-expressible value."""
    if isinstance(obj, ActionDocument):
        return map_document(obj.to_map(), obj.kind)
    if isinstance(obj, TorusAction):
        return map_document(obj.map, "action")
    if isinstance(obj, PolyMap):
        return map_document(obj)
    if isinstance(obj, FreePoly):
        return poly_str(obj)
    if isinstance(obj, LaurentPoly):
        return laurent_str(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")


# -- reports ------------------------------------------------------------

def _frac_str(x) -> str:
    return str(Fraction(x))


def emit_report(report: LinearizationReport) -> str:
    """Serialize a report as a single JSON object with fixed key order.

    Rationals are serialized as strings to avoid any precision loss; for a
    non-effective action the beta, beta_inverse and verified keys are
    absent.
    """
    data = {
        "rank": report.rank,
        "effective": report.effective,
        "fixed_point": [_frac_str(c) for c in report.fixed_point],
        "base_change": [[_frac_str(x) for x in row] for row in report.base_change],
        "weights": [[int(x) for x in row] for row in report.weights],
    }
    if report.effective:
        data["beta"] = {f"z{i}": poly_str(img)
                        for i, img in enumerate(report.beta.images, start=1)}
        data["beta_inverse"] = {f"z{i}": poly_str(img)
                                for i, img in enumerate(report.beta_inverse.images,
                                                        start=1)}
        data["degree"] = report.degree
        data["verified"] = report.verified
    else:
        data["degree"] = report.degree
    return json.dumps(data, separators=(",", ":"))
