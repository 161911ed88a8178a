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
error, and so is a sum that forms such a scalar, a longer numeral, a
non-ASCII token, a power above MAX_WORD_LENGTH of an expression without
z-letters or parentheses nested more than MAX_NESTING deep.  Map documents
may not mention t-variables.

The parser holds every expression as one flat term map {(word,
t-exponents): scalar} with no zero values; the t-exponents are () in a map
document.  Sums add scalars per key, products concatenate words and add
exponents, and each binding's FreePoly (with LaurentPoly coefficients in
an action document) is built once, from the map of its whole expression.

Printing produces the canonical form: free terms in graded-lex word
order, Laurent terms in lexicographic exponent order, coefficients as
reduced rationals, repeated adjacent letters collapsed into powers, and
t-factors hoisted left of the z-letters.  ``parse(render(x))`` rebuilds
``x`` exactly, and ``render(parse(text))`` is idempotent on any valid
``text``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import string
from dataclasses import dataclass
from fractions import Fraction
from operator import add
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
# int and str): a numeral has at most MAX_DIGITS digits, a product or
# power is rejected before it is formed when its scalars could have more,
# and a sum when a scalar it forms has more.
MAX_DIGITS = 1_000
_SCALAR_BOUND = 10 ** MAX_DIGITS
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

# One token per match, after optional blanks and a comment; the empty
# match at the end of the text is the "eof" token.  ASCII classes only (\d
# and str.isdigit also accept superscripts and other scripts' digits); the
# "." alternative catches any other character.
_TOKEN = re.compile(r"[ \t\r]*(?:#[^\n]*)?"
                    r"(\n|[0-9]+|[A-Za-z][A-Za-z0-9]*|->|[-+*/^()]|.|\Z)")
_OPERATORS = frozenset(["->", "+", "-", "*", "/", "^", "(", ")"])
_DIGITS = frozenset(string.digits)
_LETTERS = frozenset(string.ascii_letters)


def _tokenize(text: str):
    """(kind, value, index) tuples, ending with an "eof" token.

    A token stores its index, not its position: ``_position`` finds the
    line and column again when an error needs them."""
    tokens = []
    for i, s in enumerate(_TOKEN.findall(text)):
        if s in _OPERATORS:
            tokens.append((s, None, i))
        elif not s:
            tokens.append(("eof", None, i))
            return tokens
        elif s[0] in "zt" and s[1:].isdigit():
            kind = "zvar" if s[0] == "z" else "tvar"
            tokens.append((kind, _numeral(s[1:], text, i, 1), i))
        elif s[0] in _DIGITS:
            tokens.append(("int", _numeral(s, text, i), i))
        elif s == "\n":
            tokens.append(("newline", None, i))
        elif s in KEYWORDS:
            tokens.append((s, s, i))
        elif s[0] in _LETTERS:
            raise ParseError(f"unknown name '{s}'", *_position(text, i))
        else:
            raise ParseError(f"unexpected character {s!r}", *_position(text, i))


def _numeral(digits: str, text: str, index: int, skip: int = 0) -> int:
    if len(digits) > MAX_DIGITS:
        line, col = _position(text, index)
        raise ParseError(f"numeral of more than {MAX_DIGITS} digits",
                         line, col + skip)
    return int(digits)


def _position(text: str, index: int):
    """(line, col) of token ``index``."""
    offset = next(itertools.islice(_TOKEN.finditer(text), index, None)).start(1)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# -- parser -------------------------------------------------------------

class _Parser:
    """Recursive descent over the tokens; expressions are term maps."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.rank = 0
        self.nvars: Optional[int] = None   # None while parsing a map document
        self.t0 = ()                       # t-exponents of a scalar
        self.depth = 0                     # open parentheses

    def error(self, message: str, tok) -> ParseError:
        return ParseError(message, *_position(self.text, tok[2]))

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        # callers look at a token before consuming it, so eof never is
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise self.error(f"expected {what}", tok)
        return self.advance()

    def skip_newlines(self):
        while self.peek()[0] == "newline":
            self.advance()

    def require_newline(self, what: str):
        tok = self.peek()
        if tok[0] != "newline":
            raise self.error(f"expected end of line after {what}", tok)
        self.skip_newlines()

    def check_expansion(self, length: int, count: int, tok,
                        log2_height=0.0) -> None:
        if length > MAX_WORD_LENGTH:
            raise self.error(f"expansion would build words of {length} letters, "
                             f"more than {MAX_WORD_LENGTH}", tok)
        if count > MAX_PRODUCTS:
            raise self.error(f"expansion would form {count} term products, "
                             f"more than {MAX_PRODUCTS}", tok)
        if (math.log2(count or 1) + log2_height) * math.log10(2) > MAX_DIGITS:
            raise self.error(f"expansion would form scalars of more than "
                             f"{MAX_DIGITS} digits", tok)

    # document structure

    def document(self) -> ActionDocument:
        self.skip_newlines()
        self.expect("rank", "'rank'")
        rank_tok = self.expect("int", "a positive rank")
        if rank_tok[1] < 1:
            raise self.error("rank must be at least 1", rank_tok)
        self.rank = rank_tok[1]
        self.require_newline("the rank header")
        kind_tok = self.peek()
        kind = kind_tok[0]
        if kind not in ("action", "map"):
            raise self.error("expected 'action' or 'map'", kind_tok)
        self.advance()
        if kind == "action":
            self.nvars = self.rank
            self.t0 = (0,) * self.rank
        self.require_newline(f"'{kind}'")

        bindings = []
        seen = set()
        while self.peek()[0] == "zvar":
            ztok = self.advance()
            index = ztok[1]
            if not 1 <= index <= self.rank:
                raise self.error(f"z{index} exceeds rank {self.rank}", ztok)
            if index in seen:
                raise self.error(f"duplicate binding for z{index}", ztok)
            seen.add(index)
            self.expect("->", "'->'")
            poly = self.build(self.expr())
            self.require_newline("the binding expression")
            bindings.append((index, poly))
        end_tok = self.expect("end", "a binding or 'end'")
        missing = [i for i in range(1, self.rank + 1) if i not in seen]
        if missing:
            raise self.error(f"missing binding for z{missing[0]}", end_tok)
        self.skip_newlines()
        tok = self.peek()
        if tok[0] != "eof":
            raise self.error("unexpected text after 'end'", tok)
        return ActionDocument(self.rank, kind, tuple(bindings))

    def build(self, terms) -> FreePoly:
        """The binding's FreePoly, built once from its term map."""
        if self.nvars is None:
            return FreePoly(self.rank, {word: c for (word, _), c in terms.items()})
        coeffs = {}
        for (word, exps), c in terms.items():
            coeffs.setdefault(word, {})[exps] = c
        return FreePoly(self.rank, {word: LaurentPoly(self.nvars, t)
                                    for word, t in coeffs.items()}, self.nvars)

    # expressions: each returns a fresh term map (module docstring)

    def expr(self):
        terms = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()
            plus = op[0] == "+"
            for key, c in self.term().items():
                acc = terms.get(key, 0) + c if plus else terms.get(key, 0) - c
                if not acc:
                    del terms[key]
                elif max(abs(acc.numerator), acc.denominator) >= _SCALAR_BOUND:
                    raise self.error(f"sum would form scalars of more than "
                                     f"{MAX_DIGITS} digits", op)
                else:
                    terms[key] = acc
        return terms

    def term(self):
        terms, height = self.factor()
        length, count = _degree(terms), len(terms)
        while self.peek()[0] == "*":
            star = self.advance()
            rhs, rhs_height = self.factor()
            length += _degree(rhs)
            count *= len(rhs)
            height += rhs_height
            self.check_expansion(length, count, star, height)
            terms = _mul(terms, rhs)
        return terms

    def factor(self):
        """Returns (terms, log2 of a bound on its H; see _log2_height)."""
        if self.peek()[0] in ("zvar", "tvar"):
            return self.variable(), 0.0
        terms, height = self.atom()
        if self.peek()[0] != "^":
            return terms, height
        caret = self.advance()
        power = self.signed_int()
        if power < 0:  # a power of the inverse, whose H is the same
            key = next(iter(terms)) if len(terms) == 1 else None
            if key is None or key[0]:
                raise self.error("negative power of a non-invertible expression",
                                 caret)
            terms = {((), tuple(-e for e in key[1])):
                     normalize_scalar(1 / Fraction(terms[key]))}
        exponent = abs(power)
        length = max(_degree(terms), 0) * exponent
        if not length and exponent > MAX_WORD_LENGTH:
            raise self.error(f"power {exponent} of an expression without "
                             f"z-letters is more than {MAX_WORD_LENGTH}", caret)
        self.check_expansion(length, 1, caret)  # bounds the exponent first
        count = len(terms) ** exponent
        height *= exponent
        self.check_expansion(length, count, caret, height)
        result = {((), self.t0): 1}
        for _ in range(exponent):
            result = _mul(result, terms)
        return result, math.log2(count or 1) + height

    def variable(self):
        """A z- or t-variable with its optional power, as a term map."""
        tok = self.advance()
        kind, index = tok[0], tok[1]
        if kind == "tvar" and self.nvars is None:
            raise self.error("t-variables are not allowed in a map document", tok)
        if not 1 <= index <= self.rank:
            raise self.error(f"{kind[0]}{index} exceeds rank {self.rank}", tok)
        power = 1
        if self.peek()[0] == "^":
            caret = self.advance()
            power = self.signed_int()
            if kind == "zvar":
                if power < 1:
                    raise self.error("power of a z-variable must be a positive "
                                     "integer", caret)
                self.check_expansion(power, 1, caret)
        if kind == "zvar":
            return {((index,) * power, self.t0): 1}
        exps = list(self.t0)
        exps[index - 1] = power
        return {((), tuple(exps)): 1}

    def signed_int(self) -> int:
        negative = False
        if self.peek()[0] == "-":
            self.advance()
            negative = True
        value = self.expect("int", "an integer exponent")[1]
        return -value if negative else value

    def atom(self):
        """A rational or a parenthesized expression: (terms, log2 of its H)."""
        tok = self.peek()
        if tok[0] == "int" or tok[0] == "-":
            value = self.rational()
            height = math.log2(max(abs(value.numerator), value.denominator))
            return ({((), self.t0): value} if value else {}), height
        if tok[0] == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested more than {MAX_NESTING} "
                                 f"deep", tok)
            self.advance()
            self.depth += 1
            terms = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
            return terms, _log2_height(terms)
        raise self.error("expected a rational, a variable, or '('", tok)

    def rational(self):
        negative = False
        if self.peek()[0] == "-":
            self.advance()
            negative = True
        value = self.expect("int", "an integer")[1]
        if self.peek()[0] == "/":
            self.advance()
            den_tok = self.expect("int", "a positive denominator")
            if den_tok[1] == 0:
                raise self.error("denominator must be positive", den_tok)
            value = Fraction(value, den_tok[1])
        return normalize_scalar(-value if negative else value)


def _mul(a, b):
    """Product of term maps: words concatenate, t-exponents add."""
    out = {}
    for (w1, e1), c1 in a.items():
        for (w2, e2), c2 in b.items():
            key = (w1 + w2, tuple(map(add, e1, e2)))
            acc = out.get(key, 0) + c1 * c2
            if acc:
                out[key] = acc
            else:
                del out[key]
    return out


def _degree(terms) -> int:
    """Max word length; -1 for the zero map."""
    return max([len(word) for word, _ in terms], default=-1)


def _log2_height(terms) -> float:
    """log2 of H = max(V, 1) * L, V the largest absolute scalar and L the lcm
    of the denominators of ``terms``.  A coefficient of a product p_1 ... p_k
    summing K term products has num and den at most K * H_1 * ... * H_k."""
    log2_v, lcm = 0.0, 1
    for x in terms.values():
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


def _scaled(coeff, *factors):
    """(negative, magnitude) of ``coeff`` times the nonempty ``factors``;
    the magnitude shows only if it is not 1 or nothing else does."""
    parts = [f for f in factors if f]
    mag = abs(coeff)
    if mag != 1 or not parts:
        parts.insert(0, str(mag))
    return coeff < 0, "*".join(parts)


def laurent_str(p: LaurentPoly, tname=_default_tname) -> str:
    """Canonical textual form of a Laurent polynomial (no outer parens)."""
    if not p.terms:
        return "0"
    return _join_terms(_scaled(coeff, _monomial_str(exps, tname))
                       for exps, coeff in p.sorted_terms())


def _term_parts(word, coeff):
    """(negative, magnitude) of one free term, per the canonical form."""
    word_text = _word_str(word)
    if not isinstance(coeff, LaurentPoly):
        return _scaled(coeff, word_text)
    unit = coeff.as_unit_monomial()
    if unit is not None:
        exps, q = unit
        return _scaled(q, _monomial_str(exps, _default_tname), word_text)
    inner = laurent_str(coeff)
    mag = f"({inner})*{word_text}" if word_text else f"({inner})"
    return False, mag


def poly_str(p: FreePoly) -> str:
    """Canonical textual form of a free polynomial."""
    if not p.terms:
        return "0"
    return _join_terms(_term_parts(w, c) for w, c in p.sorted_terms())


def map_document(pm: PolyMap, kind: Optional[str] = None) -> str:
    kind = kind or ("map" if pm.nvars is None else "action")
    lines = [f"rank {pm.rank}", kind]
    for i, img in enumerate(pm.images, start=1):
        lines.append(f"z{i} -> {poly_str(img)}")
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
    if report.effective:
        data["verified"] = report.verified
    return json.dumps(data, separators=(",", ":"))
