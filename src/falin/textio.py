"""Parse and print action documents; emit linearization reports as JSON.

The concrete syntax (the package's only wire format besides the JSON
report) is:

    document  := header binding+ "end"
    header    := "rank" INT NEWLINE ("action" | "map") NEWLINE
    binding   := zvar "->" expr NEWLINE
    expr      := term (("+" | "-") term)*
    term      := factor ("*" factor)*
    factor    := VARIABLE | atom ("^" SIGNEDINT)?
    atom      := RATIONAL | "(" expr ")"
    VARIABLE  := ("z" | "t") INT ("^" SIGNEDINT)?
    zvar      := "z" INT
    RATIONAL  := SIGNEDINT ("/" POSINT)?

"#" starts a comment running to the end of the line.  Whitespace is
insignificant except that a newline ends a binding.  A variable and its
power are one token, VARIABLE, with blanks allowed around its "^" and "-"
(t1 ^ -3) but no comment; a letter right after the index makes the token
a name (z1a is an unknown name).  Tokens are the matched strings, and
each distinct numeral or variable is read once.  z-variables do not
commute with each other; t-variables commute with everything.  A power on
a z-variable must be a positive integer (it expands into repeated
letters); powers on t-variables may be any integer.  A power or product
that would build words longer than MAX_WORD_LENGTH letters, or form more
than MAX_PRODUCTS products of terms (a Laurent coefficient counting one
term per t-monomial) or scalars of more than MAX_DIGITS digits, is a parse
error, and so is a sum that forms such a scalar, a longer numeral, a
non-ASCII token, a power above MAX_WORD_LENGTH of an expression without
z-letters or parentheses nested more than MAX_NESTING deep.  So is a rank
above the document's length in characters, which no document could bind.
Map documents may not mention t-variables.

The parser holds every expression as one flat term map {(word,
t-exponents): scalar} with no zero values; the t-exponents are () in a map
document.  Sums add scalars per key and products concatenate words and
add exponents.  A run of "*"-joined variable factors is gathered into one
monomial (letters and t-exponents) and taken in by re-keying every term of
the left factor once, with no scalar product.  Each binding's FreePoly
(with LaurentPoly coefficients in an action document) is built once, from
the map of its whole expression.

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
# match at the end of the text is the eof token "".  A variable token takes
# in its power, blanks allowed around "^" and "-" (t1 ^ -3), so a "^" left
# after a variable token is not followed by a signed integer; the lookahead
# leaves a name such as z1a whole.  _VARIABLE splits a variable token.
# A run of blanks in a power can match only one way (the blanks after "-"
# follow the "-"), so an unfinished power is scanned in linear time.
# ASCII classes only (\d and str.isdigit also accept superscripts and
# other scripts' digits); the "." alternative catches any other character.
_TOKEN = re.compile(r"[ \t\r]*(?:#[^\n]*)?"
                    r"(\n|[zt][0-9]+(?![A-Za-z0-9])"
                    r"(?:[ \t\r]*\^[ \t\r]*(?:-[ \t\r]*)?[0-9]+)?"
                    r"|[0-9]+|[A-Za-z][A-Za-z0-9]*|->|[-+*/^()]|.|\Z)")
_VARIABLE = re.compile(r"([zt])([0-9]+)"
                       r"(?:[ \t\r]*\^[ \t\r]*(?:(-)[ \t\r]*)?([0-9]+))?")
# tokens that stand for themselves: operators, keywords, newline and eof
_PLAIN = frozenset(["->", "+", "-", "*", "/", "^", "(", ")", "\n", ""]) | KEYWORDS
_DIGITS = frozenset(string.digits)
_LETTERS = frozenset(string.ascii_letters)


def _tokenize(text: str):
    """(tokens, numerals, variables) of ``text``.

    The tokens are the strings ``_TOKEN`` matches, ending with "" (eof).
    ``numerals`` maps each distinct numeral token to its value, and
    ``variables`` each distinct variable token to (letter, index, power,
    offset of its "^" or None), so names and numerals are checked once per
    distinct string.  A token is known by its index in the list:
    ``_position`` finds the line and column again when an error needs them.
    """
    tokens = _TOKEN.findall(text)
    numerals, variables = {}, {}
    for s in dict.fromkeys(tokens):
        if s in _PLAIN:
            continue
        if s[0] in _DIGITS:
            numerals[s] = _numeral(s, text, tokens, s)
        elif m := _VARIABLE.fullmatch(s):
            letter, index, sign, power = m.groups()
            index = _numeral(index, text, tokens, s, 1)
            if power is None:
                variables[s] = (letter, index, 1, None)
            else:
                power = _numeral(power, text, tokens, s, m.start(4))
                variables[s] = (letter, index, -power if sign else power,
                                s.index("^"))
        elif s[0] in _LETTERS:
            raise ParseError(f"unknown name '{s}'",
                             *_position(text, tokens.index(s)))
        else:
            raise ParseError(f"unexpected character {s!r}",
                             *_position(text, tokens.index(s)))
    return tokens, numerals, variables


def _numeral(digits: str, text: str, tokens, token: str, offset: int = 0) -> int:
    """The value of ``digits``, found ``offset`` characters into ``token``."""
    if len(digits) > MAX_DIGITS:
        line, col = _position(text, tokens.index(token))
        raise ParseError(f"numeral of more than {MAX_DIGITS} digits",
                         line, col + offset)
    return int(digits)


def _position(text: str, index: int):
    """(line, col) of token ``index``."""
    offset = next(itertools.islice(_TOKEN.finditer(text), index, None)).start(1)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# -- parser -------------------------------------------------------------

class _Parser:
    """Recursive descent over the tokens; expressions are term maps.

    Tokens are named by their index in ``self.tokens``; ``self.pos`` is the
    index of the next one."""

    def __init__(self, text: str):
        self.text = text
        self.tokens, self.numerals, self.variables = _tokenize(text)
        self.pos = 0
        self.rank = 0
        self.nvars: Optional[int] = None   # None while parsing a map document
        self.t0 = ()                       # t-exponents of a scalar
        self.depth = 0                     # open parentheses

    def error(self, message: str, at: int, offset: int = 0) -> ParseError:
        """The error at token ``at``, ``offset`` characters into it."""
        line, col = _position(self.text, at)
        return ParseError(message, line, col + offset)

    def peek(self) -> str:
        return self.tokens[self.pos]

    def advance(self) -> int:
        # callers look at a token before consuming it, so eof never is
        self.pos += 1
        return self.pos - 1

    def expect(self, token: str, what: str) -> int:
        if self.peek() != token:
            raise self.error(f"expected {what}", self.pos)
        return self.advance()

    def numeral(self, what: str) -> int:
        """The value of the numeral token, which it consumes."""
        value = self.numerals.get(self.peek())
        if value is None:
            raise self.error(f"expected {what}", self.pos)
        self.advance()
        return value

    def skip_newlines(self):
        while self.peek() == "\n":
            self.advance()

    def require_newline(self, what: str):
        if self.peek() != "\n":
            raise self.error(f"expected end of line after {what}", self.pos)
        self.skip_newlines()

    def check_expansion(self, length: int, count: int, at: int,
                        log2_height=0.0, offset: int = 0) -> None:
        if length > MAX_WORD_LENGTH:
            raise self.error(f"expansion would build words of {length} letters, "
                             f"more than {MAX_WORD_LENGTH}", at, offset)
        if count > MAX_PRODUCTS:
            raise self.error(f"expansion would form {count} term products, "
                             f"more than {MAX_PRODUCTS}", at, offset)
        if (math.log2(count or 1) + log2_height) * math.log10(2) > MAX_DIGITS:
            raise self.error(f"expansion would form scalars of more than "
                             f"{MAX_DIGITS} digits", at, offset)

    # document structure

    def document(self) -> ActionDocument:
        self.skip_newlines()
        self.expect("rank", "'rank'")
        rank_at = self.pos
        self.rank = self.numeral("a positive rank")
        if self.rank < 1:
            raise self.error("rank must be at least 1", rank_at)
        # every generator needs its own binding, so no document binds more
        # generators than it has characters; checked before t0 is built
        if self.rank > len(self.text):
            raise self.error(f"rank {self.rank} is more than a document of "
                             f"{len(self.text)} characters can bind", rank_at)
        self.require_newline("the rank header")
        kind = self.peek()
        if kind not in ("action", "map"):
            raise self.error("expected 'action' or 'map'", self.pos)
        self.advance()
        if kind == "action":
            self.nvars = self.rank
            self.t0 = (0,) * self.rank
        self.require_newline(f"'{kind}'")

        bindings = []
        seen = set()
        while (var := self.variables.get(self.peek())) and var[0] == "z":
            head = self.advance()
            _, index, _, caret = var
            if not 1 <= index <= self.rank:
                raise self.error(f"z{index} exceeds rank {self.rank}", head)
            if index in seen:
                raise self.error(f"duplicate binding for z{index}", head)
            seen.add(index)
            if caret is not None:
                raise self.error("expected '->'", head, caret)
            self.expect("->", "'->'")
            poly = self.build(self.expr())
            self.require_newline("the binding expression")
            bindings.append((index, poly))
        end_at = self.expect("end", "a binding or 'end'")
        missing = [i for i in range(1, self.rank + 1) if i not in seen]
        if missing:
            raise self.error(f"missing binding for z{missing[0]}", end_at)
        self.skip_newlines()
        if self.peek():
            raise self.error("unexpected text after 'end'", self.pos)
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
        while self.peek() in ("+", "-"):
            op = self.advance()
            plus = self.tokens[op] == "+"
            for key, c in self.term().items():
                acc = terms.get(key)
                if acc is None:
                    acc = c if plus else -c
                else:
                    acc = acc + c if plus else acc - c
                if not acc:
                    del terms[key]
                elif (-_SCALAR_BOUND < acc < _SCALAR_BOUND if type(acc) is int
                      else max(abs(acc.numerator), acc.denominator)
                      < _SCALAR_BOUND):
                    terms[key] = acc
                else:
                    raise self.error(f"sum would form scalars of more than "
                                     f"{MAX_DIGITS} digits", op)
        return terms

    def term(self):
        terms, height = self.factor()
        length, count = _degree(terms), len(terms)
        while self.peek() == "*":
            star = self.advance()
            if self.peek() in self.variables:
                # a run of variable factors is one monomial, re-keying every
                # term once; it forms no scalar, so its "*"s check no height,
                # and past the first only a "*" that adds letters can fail
                letters, exps, first = [], list(self.t0), star
                tokens, variables = self.tokens, self.variables
                while True:
                    grown = self.take_variable(letters, exps)
                    length += grown
                    if grown or star == first:
                        self.check_expansion(length, count, star)
                    star = self.pos
                    if tokens[star] != "*" or tokens[star + 1] not in variables:
                        break
                    self.pos += 1
                suffix, shift = tuple(letters), tuple(exps)
                terms = {(word + suffix, tuple(map(add, e, shift))): c
                         for (word, e), c in terms.items()}
            else:
                rhs, rhs_height = self.factor()
                length += _degree(rhs)
                count *= len(rhs)
                height += rhs_height
                self.check_expansion(length, count, star, height)
                terms = _mul(terms, rhs)
        return terms

    def factor(self):
        """Returns (terms, log2 of a bound on its H; see _log2_height)."""
        tok = self.peek()
        if tok in self.variables:
            letters, exps = [], list(self.t0)
            self.take_variable(letters, exps)
            return {(tuple(letters), tuple(exps)): 1}, 0.0
        value = self.numerals.get(tok)
        if value is not None and self.tokens[self.pos + 1] not in ("/", "^"):
            self.advance()
            return ({((), self.t0): value} if value else {}), math.log2(value or 1)
        terms, height = self.atom()
        if self.peek() != "^":
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

    def take_variable(self, letters, exps) -> int:
        """Take the variable token with its power into the monomial
        (``letters``, ``exps``); returns the number of letters it adds."""
        at = self.advance()
        letter, index, power, caret = self.variables[self.tokens[at]]
        if letter == "t" and self.nvars is None:
            raise self.error("t-variables are not allowed in a map document", at)
        if not 1 <= index <= self.rank:
            raise self.error(f"{letter}{index} exceeds rank {self.rank}", at)
        if caret is None and self.peek() == "^":
            # the token took in any signed integer after "^", so this raises
            self.advance()
            self.signed_int()
        if letter == "t":
            exps[index - 1] += power
            return 0
        if caret is not None:
            if power < 1:
                raise self.error("power of a z-variable must be a positive "
                                 "integer", at, caret)
            self.check_expansion(power, 1, at, offset=caret)
        letters += (index,) * power
        return power

    def signed_int(self) -> int:
        negative = self.peek() == "-"
        if negative:
            self.advance()
        value = self.numeral("an integer exponent")
        return -value if negative else value

    def atom(self):
        """A rational or a parenthesized expression: (terms, log2 of its H)."""
        tok = self.peek()
        if tok == "-" or tok in self.numerals:
            value = self.rational()
            height = math.log2(max(abs(value.numerator), value.denominator))
            return ({((), self.t0): value} if value else {}), height
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested more than {MAX_NESTING} "
                                 f"deep", self.pos)
            self.advance()
            self.depth += 1
            terms = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
            return terms, _log2_height(terms)
        raise self.error("expected a rational, a variable, or '('", self.pos)

    def rational(self):
        negative = self.peek() == "-"
        if negative:
            self.advance()
        value = self.numeral("an integer")
        if self.peek() == "/":
            self.advance()
            den_at = self.pos
            denominator = self.numeral("a positive denominator")
            if not denominator:
                raise self.error("denominator must be positive", den_at)
            value = Fraction(value, denominator)
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
