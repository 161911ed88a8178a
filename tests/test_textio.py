"""Document grammar: parsing, canonical printing, reports, round trips."""

import json
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falin import (FreePoly, LaurentPoly, ParseError, emit_report,
                   laurent_str, linearize, map_document, parse, poly_str, render)
from falin.textio import MAX_DIGITS, MAX_NESTING, MAX_PRODUCTS, MAX_WORD_LENGTH

from helpers import rand_laurent_map, rand_scalar_map, rank45_actions

EX_A = """rank 2
action
z1 -> t1*z1
z2 -> t2*z2 + (t2 - t1^2)*z1^2
end
"""

EX_A_REPORT = ('{"rank":2,"effective":true,"fixed_point":["0","0"],'
               '"base_change":[["1","0"],["0","1"]],"weights":[[1,0],[0,1]],'
               '"beta":{"z1":"z1","z2":"z2 + z1^2"},'
               '"beta_inverse":{"z1":"z1","z2":"z2 - z1^2"},'
               '"degree":2,"verified":true}')


class TestParse:
    def test_standard_one_torus(self):
        doc = parse("rank 1\naction\nz1 -> t1*z1\nend\n")
        action = doc.to_action()
        assert action.map.images[0] == \
            FreePoly(1, {(1,): LaurentPoly.var(1, 1)}, 1)

    def test_ex_a_power_expansion(self):
        doc = parse(EX_A)
        image2 = doc.images()[1]
        coeff = LaurentPoly(2, {(0, 1): 1, (2, 0): -1})
        assert image2 == FreePoly(
            2, {(2,): LaurentPoly.var(2, 2), (1, 1): coeff}, 2)

    def test_negative_z_power_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("rank 1\naction\nz1 -> z1^-1\nend\n")
        assert err.value.line == 3

    def test_comments_and_blank_lines(self):
        text = ("# a comment line\nrank 1\n\naction  # trailing comment\n\n"
                "z1 -> t1*z1   # the image\n\nend\n\n")
        assert parse(text).to_action().map == parse(
            "rank 1\naction\nz1 -> t1*z1\nend\n").to_action().map

    def test_binding_order_is_free(self):
        a = parse("rank 2\nmap\nz2 -> z1\nz1 -> z2\nend\n").to_map()
        b = parse("rank 2\nmap\nz1 -> z2\nz2 -> z1\nend\n").to_map()
        assert a == b

    def test_general_powers_and_units(self):
        doc = parse("rank 1\naction\nz1 -> (2*t1)^-2*z1 + (z1)^2*3\nend\n")
        img = doc.images()[0]
        assert img.coeff((1,)) == LaurentPoly(1, {(-2,): Fraction(1, 4)})
        assert img.coeff((1, 1)) == LaurentPoly.const(1, 3)
        # inverses are exact, and integral ones are stored as int
        img = parse("rank 1\nmap\nz1 -> (1/2)^-1*z1 + (2)^-1\nend\n").images()[0]
        assert type(img.coeff((1,))) is int and img.coeff((1,)) == 2
        assert img.constant_coeff() == Fraction(1, 2)

    @pytest.mark.parametrize("text,line,col", [
        ("rank 1\naction\nz1 -> z1 +\nend\n", 3, 11),
        ("rank 1\naction\nz1 -> q1\nend\n", 3, 7),
        ("rank 1\naction\nz1 -> z1\n", 4, 1),
        ("rank 0\naction\nend\n", 1, 6),
        ("rank 1\nmap\nz1 -> 1/0\nend\n", 3, 9),
        ("rank 1\naction\nz1 -> (z1+1)^-1\nend\n", 3, 13),
    ])
    def test_errors_carry_positions(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("expr, op", [
        (f"z1^{MAX_WORD_LENGTH + 1}", "^"),
        ("z1^50000000", "^"),
        (f"(z1^100)^{MAX_WORD_LENGTH // 100 + 1}", "^"),
        (f"(z1 + 1)^{MAX_PRODUCTS.bit_length()}", "^"),
        ("(z1 + z2)^18", "^"),
        (f"z1^{MAX_WORD_LENGTH}*z2", "*"),
        ("(z1 + z2)^10*(z1 + z2)^10", "*"),
    ], ids=["z_word", "z_huge", "paren_word", "paren_products", "paren_huge",
            "product_word", "product_products"])
    def test_oversized_expansion_rejected_at_operator(self, expr, op):
        with pytest.raises(ParseError) as err:
            parse(f"rank 2\nmap\nz1 -> {expr}\nz2 -> z2\nend\n")
        col = len("z1 -> ") + expr.rindex(op) + 1
        assert (err.value.line, err.value.col) == (3, col)

    @pytest.mark.parametrize("expr, op", [
        ("(1)^1000000", "^"),
        (f"(0)^{MAX_WORD_LENGTH + 1}", "^"),
        ("(t1 + t2 + 1)^60", "^"),
        ("*".join(["(t1 + t2)"] * 17), "*"),  # 2^17 term products
        ("((t1 + t2 + 1)*z1)^11", "^"),
        ("(2*t1)^-50000000", "^"),
    ], ids=["unit_power", "zero_power", "laurent_power", "laurent_product",
            "laurent_coefficient_power", "negative_unit_power"])
    def test_oversized_laurent_expansion_rejected_at_operator(self, expr, op):
        with pytest.raises(ParseError) as err:
            parse(f"rank 2\naction\nz1 -> {expr}\nz2 -> t2*z2\nend\n")
        col = len("z1 -> ") + expr.rindex(op) + 1
        assert (err.value.line, err.value.col) == (3, col)

    @pytest.mark.parametrize("expr, op", [
        ("t1*z1 + (10)^5000", "^"),
        ("(2*t1)^-4000", "^"),
        ("(1/" + "7" * 600 + ")^2", "^"),
        ("z1*" + "9" * 600 + "*" + "9" * 600, "*"),
        ("(" + "9" * 600 + "*z1 + z2)^2", "^"),
    ], ids=["integer_power", "negative_power", "denominator_power",
            "numeral_product", "coefficient_power"])
    def test_oversized_scalars_rejected_at_operator(self, expr, op):
        # "(10)^5000" once parsed, and printing it died past 4,300 digits
        with pytest.raises(ParseError) as err:
            parse(f"rank 2\naction\nz1 -> {expr}\nz2 -> t2*z2\nend\n")
        col = len("z1 -> ") + expr.rindex(op) + 1
        assert (err.value.line, err.value.col) == (3, col)
        assert "digits" in str(err.value)

    def test_scalars_at_the_limit_accepted(self):
        numeral = "9" * MAX_DIGITS
        doc = parse(f"rank 1\naction\nz1 -> {numeral}*t1*z1 + (10)^{MAX_DIGITS - 1}"
                    f"\nend\n")
        image = doc.images()[0]
        assert image.coeff((1,)) == LaurentPoly(1, {(1,): int(numeral)})
        assert render(doc) == (f"rank 1\naction\nz1 -> 1{'0' * (MAX_DIGITS - 1)}"
                               f" + {numeral}*t1*z1\nend\n")

    @pytest.mark.parametrize("text, col, message", [
        ("z1 -> t1*z1 + \u00b2", 15, "unexpected character"),   # superscript 2
        ("z1 -> t1*z1 + \u0663", 15, "unexpected character"),   # Arabic-Indic 3
        ("z\u0661 -> t1*z1", 1, "unknown name 'z'"),            # z, Arabic-Indic 1
        ("z1 -> t1*z1 + \u00e9", 15, "unexpected character"),   # non-ASCII letter
        ("z1 -> t1*z1 + " + "1" * (MAX_DIGITS + 1), 15, "numeral"),
        ("z" + "1" * (MAX_DIGITS + 1) + " -> t1*z1", 2, "numeral"),
    ], ids=["superscript_digit", "arabic_digit", "arabic_index",
            "non_ascii_letter", "long_numeral", "long_index"])
    def test_tokens_are_ascii_and_numerals_bounded(self, text, col, message):
        with pytest.raises(ParseError) as err:
            parse(f"rank 1\naction\n{text}\nend\n")
        assert (err.value.line, err.value.col) == (3, col)
        assert message in str(err.value)

    def test_laurent_expansions_at_the_limits_accepted(self):
        # 3^10 = 59,049 term products; (1)^k multiplies k times
        doc = parse(f"rank 2\naction\nz1 -> (t1 + t2 + 1)^10"
                    f" + (1)^{MAX_WORD_LENGTH}\nz2 -> t2*z2\nend\n")
        coeff = doc.images()[0].constant_coeff()
        assert len(coeff.terms) == 66 and coeff.constant_coeff() == 2
        assert coeff.terms[(5, 5)] == 252

    def test_expansions_at_the_limits_accepted(self):
        k = MAX_PRODUCTS.bit_length() - 1      # 2^k <= MAX_PRODUCTS
        doc = parse(f"rank 1\nmap\nz1 -> z1^{MAX_WORD_LENGTH} + (z1 + 1)^{k}"
                    f"\nend\n")
        image = doc.images()[0]
        assert image.degree() == MAX_WORD_LENGTH
        assert image.coeff((1,) * k) == 1 and len(image.terms) == k + 2

    def test_nesting_at_the_limit_accepted(self):
        expr = "(" * MAX_NESTING + "t1*z1" + ")" * MAX_NESTING
        doc = parse(f"rank 1\naction\nz1 -> {expr}\nend\n")
        assert doc.images()[0] == FreePoly(1, {(1,): LaurentPoly.var(1, 1)}, 1)

    def test_nesting_beyond_the_limit_rejected_at_paren(self):
        depth = MAX_NESTING + 1
        expr = "(" * depth + "t1*z1" + ")" * depth
        with pytest.raises(ParseError) as err:
            parse(f"rank 1\naction\nz1 -> {expr}\nend\n")
        # the innermost '(' is the one past the limit
        assert (err.value.line, err.value.col) == (3, len("z1 -> ") + depth)

    @pytest.mark.parametrize("kind", ["action", "map"])
    def test_rank_beyond_the_document_rejected_at_numeral(self, kind):
        # once a MemoryError: an action document built a tuple of rank
        # t-exponents before it read a binding
        text = f"rank 100000000000\n{kind}\nz1 -> z1\nend\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == (f"1:6: rank 100000000000 is more than a "
                                  f"document of {len(text)} characters can bind")

    def test_rank_up_to_the_document_length_reads_the_bindings(self):
        text = "rank 25\nmap\nz1 -> z1\nend\n"
        assert len(text) == 25
        with pytest.raises(ParseError, match="^4:1: missing binding for z2$"):
            parse(text)
        with pytest.raises(ParseError, match="^1:6: rank 26 is more than"):
            parse(text.replace("25", "26"))

    def test_all_listed_errors_have_positions(self):
        bad_inputs = [
            "",                                           # empty
            "rank 1\naction\nz1 -> z2\nend\n",            # index above rank
            "rank 2\naction\nz1 -> z1\nend\n",            # missing binding
            "rank 1\naction\nz1 -> z1\nz1 -> z1\nend\n",  # duplicate binding
            "rank 1\nmap\nz1 -> t1*z1\nend\n",            # t in a map
            "rank 1\naction\nz1 -> z1 ? 1\nend\n",        # stray character
            "rank 1\naction\nz1 -> z1\nend\njunk\n",      # text after end
            "rank 1\nactoin\nz1 -> z1\nend\n",            # bad keyword
        ]
        for text in bad_inputs:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.line >= 1 and err.value.col >= 1


class TestSumBound:
    # p and p + 1 are coprime 1,000-digit numbers: 1/p + 1/(p + 1) has a
    # denominator of 2,000 digits
    P = 10 ** (MAX_DIGITS - 1)

    @pytest.mark.parametrize("op", ["+", "-"])
    def test_sum_of_long_denominators_rejected_at_operator(self, op):
        # six such terms once built a 6,000-digit constant that no report
        # could print
        expr = f"t1*z1 + 1/{self.P}" + "".join(
            f" {op} 1/{self.P + k}" for k in range(1, 6))
        with pytest.raises(ParseError) as err:
            parse(f"rank 1\naction\nz1 -> {expr}\nend\n")
        second = expr.index(f" {op} 1/{self.P + 1}") + 1
        assert (err.value.line, err.value.col) == (3, len("z1 -> ") + second + 1)
        assert "sum" in str(err.value) and "digits" in str(err.value)

    def test_integer_sum_past_the_limit_rejected_at_operator(self):
        nines = "9" * MAX_DIGITS
        with pytest.raises(ParseError) as err:
            parse(f"rank 1\nmap\nz1 -> z1 + {nines} + 0 + 1\nend\n")
        assert err.value.col == len(f"z1 -> z1 + {nines} + 0 +")
        assert "digits" in str(err.value)

    def test_sums_at_the_limit_accepted(self):
        nines = "9" * MAX_DIGITS
        half = "4" * MAX_DIGITS
        doc = parse(f"rank 1\nmap\nz1 -> z1 + {nines} - 1 + 1 + 0*z1"
                    f" + {half}*z1 + {half}*z1 + 1/{self.P}*z1^2 - 1/{self.P}*z1^2"
                    f"\nend\n")
        image = doc.images()[0]
        assert image.constant_coeff() == int(nines)
        assert image.coeff((1,)) == 1 + 2 * int(half)

    def test_long_sum_of_small_integers_accepted(self):
        count = 20_000
        doc = parse("rank 1\naction\nz1 -> t1*z1" + " + 1 - t1" * count
                    + "\nend\n")
        image = doc.images()[0]
        assert image.constant_coeff() == LaurentPoly(
            1, {(0,): count, (1,): -count})


# -- parser against FreePoly/LaurentPoly arithmetic ---------------------

RANK = 2


def _node(text, value, prec):
    """A generated expression: its text, its value and its precedence
    (0 a sum, 1 a product, 2 a factor that may stand anywhere)."""
    return text, value, prec


def _paren(node, below):
    return f"({node[0]})" if node[2] < below else node[0]


def _leaves(nvars):
    const = (lambda c: FreePoly.const(RANK, c, nvars))
    rationals = st.builds(
        lambda n, d: _node(f"{n}/{d}" if d > 1 else str(n),
                           const(Fraction(n, d)), 2),
        st.integers(-12, 12), st.integers(1, 4))
    zvars = st.builds(
        lambda i, k: _node(f"z{i}^{k}" if k > 1 else f"z{i}",
                           _power(FreePoly.gen(RANK, i, nvars), k), 2),
        st.integers(1, RANK), st.integers(1, 3))
    if nvars is None:
        return rationals | zvars
    tvars = st.builds(
        lambda i, k: _node(f"t{i}^{k}", const(LaurentPoly.var(RANK, i, k)), 2),
        st.integers(1, RANK), st.integers(-3, 3))
    return rationals | zvars | tvars


def _power(poly, k):
    result = FreePoly.const(RANK, 1, poly.nvars)
    for _ in range(k):
        result = result * poly
    return result


def _inverse_powers(nvars):
    """(u)^-k for a unit u, written with a sum that cancels down to u."""
    def build(n, d, exps, j, k):
        c = Fraction(n, d)
        if nvars is None:
            mono, value = "", c ** -k
        else:
            mono = "".join(f"*t{i}^{e}" for i, e in enumerate(exps, start=1))
            value = LaurentPoly(RANK, {tuple(-k * e for e in exps): c ** -k})
        return _node(f"({c}{mono} + z{j} - z{j})^-{k}",
                     FreePoly.const(RANK, value, nvars), 2)
    return st.builds(build, st.sampled_from([-3, -2, -1, 1, 2, 5]),
                     st.integers(1, 3), st.tuples(*[st.integers(-2, 2)] * RANK),
                     st.integers(1, RANK), st.integers(1, 3))


def _extend(nvars):
    def sums(children):
        def build(a, b, op):
            if op == "-":
                return _node(f"{a[0]} - {_paren(b, 1)}", a[1] - b[1], 0)
            return _node(f"{a[0]} + {b[0]}", a[1] + b[1], 0)
        return st.builds(build, children, children, st.sampled_from("+-"))

    def products(children):
        return st.builds(lambda a, b: _node(f"{_paren(a, 1)}*{_paren(b, 1)}",
                                            a[1] * b[1], 1), children, children)

    def powers(children):
        return st.builds(lambda a, k: _node(f"({a[0]})^{k}", _power(a[1], k), 2),
                         children, st.integers(0, 2))

    def cancelled(children):
        return st.builds(lambda a: _node(f"{a[0]} - ({a[0]})",
                                         a[1] - a[1], 0), children)

    return lambda children: (sums(children) | products(children)
                             | powers(children) | cancelled(children))


def _expressions(nvars):
    return st.recursive(_leaves(nvars) | _inverse_powers(nvars),
                        _extend(nvars), max_leaves=10)


def _scalars(poly):
    for c in poly.terms.values():
        yield from (c.terms.values() if isinstance(c, LaurentPoly) else (c,))


class TestParseAgainstArithmetic:
    @pytest.mark.parametrize("kind, nvars", [("action", RANK), ("map", None)])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_parse_equals_evaluated_tree(self, kind, nvars, data):
        text, value, _ = data.draw(_expressions(nvars))
        doc = parse(f"rank {RANK}\n{kind}\nz1 -> {text}\nz2 -> z2\nend\n")
        image = doc.images()[0]
        assert image == value
        for c in _scalars(image):
            assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)



def _run_terms(nvars):
    """One term of the left factor: a rational or (action only) Laurent
    coefficient times up to three z-powers."""
    const = (lambda c: FreePoly.const(RANK, c, nvars))
    rationals = st.builds(lambda n, d: (f"{n}/{d}", Fraction(n, d)),
                          st.integers(-9, 9), st.integers(1, 4))
    coeffs = rationals
    if nvars is not None:
        laurents = st.builds(
            lambda a, b, exps: (f"({a} + {b}*t1^{exps[0]}*t2^{exps[1]})",
                                LaurentPoly(RANK, {(0, 0): a}) + LaurentPoly(
                                    RANK, {exps: b})),
            st.integers(-3, 3), st.integers(-3, 3),
            st.tuples(*[st.integers(-2, 2)] * RANK))
        coeffs = rationals | laurents
    zpowers = st.lists(st.tuples(st.integers(1, RANK), st.integers(1, 3)),
                       max_size=3)
    return st.builds(
        lambda c, zs: ("*".join([c[0]] + [f"z{i}^{k}" for i, k in zs]),
                       _product(const(c[1]), zs, nvars)),
        coeffs, zpowers)


def _product(value, zs, nvars):
    for i, k in zs:
        value = value * _power(FreePoly.gen(RANK, i, nvars), k)
    return value


def _run_factors(nvars):
    """One factor of the run: a z-power or (action only) a t-power."""
    zvars = st.builds(lambda i, k: (f"z{i}^{k}" if k > 1 else f"z{i}",
                                    _power(FreePoly.gen(RANK, i, nvars), k)),
                      st.integers(1, RANK), st.integers(1, 3))
    if nvars is None:
        return zvars
    tvars = st.builds(
        lambda i, k: (f"t{i}^{k}", FreePoly.const(RANK, LaurentPoly.var(
            RANK, i, k), nvars)), st.integers(1, RANK), st.integers(-3, 3))
    return zvars | tvars


class TestRunOfVariables:
    """A parenthesised sum of 1-6 terms, some of them cancelling pairs,
    times a run of 1-5 variable factors: every key of the sum takes in
    the whole run."""

    @pytest.mark.parametrize("kind, nvars", [("action", RANK), ("map", None)])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_sum_times_run_equals_arithmetic(self, kind, nvars, data):
        terms = data.draw(st.lists(_run_terms(nvars), min_size=1, max_size=6))
        texts, value = [terms[0][0]], terms[0][1]
        for text, term in terms[1:]:
            if data.draw(st.booleans()):   # a pair that cancels
                texts += [f"+ {text}", f"- {text}"]
            else:
                texts.append(f"+ {text}")
                value = value + term
        run = data.draw(st.lists(_run_factors(nvars), min_size=1, max_size=5))
        for _, factor in run:
            value = value * factor
        expr = f"({' '.join(texts)})*" + "*".join(text for text, _ in run)
        doc = parse(f"rank {RANK}\n{kind}\nz1 -> {expr}\nz2 -> z2\nend\n")
        image = doc.images()[0]
        assert image == value
        for c in _scalars(image):
            assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)

# -- tokenizer positions ------------------------------------------------

class TestPositions:
    @pytest.mark.parametrize("text, line, col", [
        ("rank 1\naction\nz1 ->\t\t?\n", 3, 8),
        ("rank 1\naction\nz1 -> z1\r + ?\nend\n", 3, 13),
        ("rank 1\r\naction\r\nz1 -> z1 ? 1\r\nend\r\n", 3, 10),
        ("rank 1\r\naction\r\nz1 -> z1\r\nend\r\nz1\r\n", 5, 1),
        ("# c ? \u00e9\nrank 1 # ?\naction\n\n# z1 ->\nz1 -> z1 + q\nend\n",
         6, 12),
        ("rank 1\naction\nz1 ->?\nend\n", 3, 6),
        ("rank 1\naction\nz1 ->-> z1\nend\n", 3, 6),
        ("rank 1\naction\nz1 -> z1 +", 3, 11),
        ("rank 1\naction\nz1 -> z1 +  \t# trailing", 3, 24),
        ("rank 1\naction\nz1 -> z1", 3, 9),
        ("rank 1\naction\nz1 -> z1\n\n  ", 5, 3),
    ], ids=["tabs", "carriage_return", "crlf", "crlf_after_end", "comments",
            "after_arrow", "arrow_twice", "eof_after_operator",
            "eof_after_comment", "eof_without_newline", "eof_after_blanks"])
    def test_error_positions(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_crlf_document_parses_like_its_lf_copy(self):
        texts = [EX_A] + [render(a) for a in rank45_actions()[:2]]
        for text in texts:
            crlf = text.replace("\n", "\r\n")
            assert parse(crlf) == parse(text)
            assert render(parse(crlf)) == text


# -- powers written after a variable ------------------------------------

LONG = "1" * (MAX_DIGITS + 1)


class TestVariablePowers:
    """Blank and malformed powers, pinned to what the parser has always
    done with them (rank 1, one binding for z1)."""

    @pytest.mark.parametrize("expr, image", [
        ("t1 ^ -3*z1", "t1^-3*z1"),
        ("t1^ - 3*z1", "t1^-3*z1"),
        ("t1^ -\t3*z1", "t1^-3*z1"),
        ("z1 ^ 2", "z1^2"),
        ("z1 ^ 3*z1", "z1^4"),
        ("z1^\t2 # c", "z1^2"),
        ("2*t1^2*t1^-2*z1", "2*z1"),
        ("z1^2*t1^ 1", "t1*z1^2"),
        ("3*z1 ^ 2*t1 ^ -1 + t1^1*z1", "t1*z1 + 3*t1^-1*z1^2"),
        ("t1^00*z1", "z1"),
        ("z1^002", "z1^2"),
        # products whose terms cancel
        ("(z1 + 1)*(z1 - 1)", "-1 + z1^2"),
        ("(t1 + 1)*(t1 - 1)*z1 + z1", "t1^2*z1"),
    ])
    def test_powers_parse(self, expr, image):
        doc = parse(f"rank 1\naction\nz1 -> {expr}\nend\n")
        assert render(doc) == f"rank 1\naction\nz1 -> {image}\nend\n"

    @pytest.mark.parametrize("kind, expr, message, col", [
        ("action", "z1^2^3", "expected end of line after the binding expression",
         11),
        ("action", "z1 ^2 ^3", "expected end of line after the binding "
         "expression", 13),
        ("action", "t1 ^ - 2 ^ 3", "expected end of line after the binding "
         "expression", 16),
        ("action", "t1^2 ^ 3", "expected end of line after the binding "
         "expression", 12),
        ("action", "(z1)^2^3", "expected end of line after the binding "
         "expression", 13),
        ("action", "t1^(2)*z1", "expected an integer exponent", 10),
        ("action", "t1^-(2)*z1", "expected an integer exponent", 11),
        ("action", "t1^+3*z1", "expected an integer exponent", 10),
        ("action", "t1^", "expected an integer exponent", 10),
        ("action", "t1^ # c", "expected an integer exponent", 14),
        ("action", "z1a", "unknown name 'z1a'", 7),
        ("action", "z1^2a", "unknown name 'a'", 11),
        ("action", "t1^x", "unknown name 'x'", 10),
        ("action", "t1^-x*z1", "unknown name 'x'", 11),
        ("action", "z1^-1", "power of a z-variable must be a positive integer",
         9),
        ("action", "z1^0", "power of a z-variable must be a positive integer",
         9),
        ("action", "2*z1^-1", "power of a z-variable must be a positive "
         "integer", 11),
        ("action", "t1*z1^0", "power of a z-variable must be a positive "
         "integer", 12),
        ("map", "z1 ^ - 1", "power of a z-variable must be a positive integer",
         10),
        ("action", "z2^0", "z2 exceeds rank 1", 7),
        ("action", "t2*z1", "t2 exceeds rank 1", 7),
        ("map", "t1 ^ 2*z1", "t-variables are not allowed in a map document",
         7),
        ("action", "z1^10001", "expansion would build words of 10001 letters, "
         "more than 10000", 9),
        ("action", "t1*z1^10001", "expansion would build words of 10001 "
         "letters, more than 10000", 12),
        ("action", "0*t1*z1^10001 + z1", "expansion would build words of "
         "10001 letters, more than 10000", 14),
        ("action", "z1*z1^10000", "expansion would build words of 10001 "
         "letters, more than 10000", 9),
        ("action", "z1^2*z1^10000", "expansion would build words of 10002 "
         "letters, more than 10000", 11),
        ("action", f"z1^{LONG}", "numeral of more than 1000 digits", 10),
        ("action", f"z1 ^ {LONG}", "numeral of more than 1000 digits", 12),
        ("action", f"t1^-{LONG}*z1", "numeral of more than 1000 digits", 11),
        ("action", f"t1*z{LONG}", "numeral of more than 1000 digits", 11),
    ])
    def test_power_errors(self, kind, expr, message, col):
        with pytest.raises(ParseError) as err:
            parse(f"rank 1\n{kind}\nz1 -> {expr}\nend\n")
        assert (str(err.value), err.value.line, err.value.col) == (
            f"3:{col}: {message}", 3, col)

    @pytest.mark.parametrize("head, message, col", [
        ("z1^2", "expected '->'", 3),
        ("z1 ^ 2", "expected '->'", 4),
        ("z2^2", "z2 exceeds rank 1", 1),
        ("t1", "expected a binding or 'end'", 1),
        ("t1^2", "expected a binding or 'end'", 1),
    ])
    def test_binding_head_errors(self, head, message, col):
        with pytest.raises(ParseError) as err:
            parse(f"rank 1\naction\n{head} -> z1\nend\n")
        assert (str(err.value), err.value.line, err.value.col) == (
            f"3:{col}: {message}", 3, col)

    @pytest.mark.parametrize("power, col", [
        ("t1^" + " " * 200_000, 200_010),
        ("t1^" + " " * 200_000 + "-" + " " * 200_000, 400_011),
        ("t1 " + " " * 200_000 + "^ -" + " " * 200_000 + "x", 400_013),
    ])
    def test_long_blank_power_fails_fast(self, power, col):
        # a blank run in an unfinished power is scanned once, not split
        # every way between the blanks around "-" (quadratic backtracking)
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse(f"rank 1\naction\nz1 -> {power}\nend\n")
        elapsed = time.perf_counter() - start
        message = ("unknown name 'x'" if power.endswith("x")
                   else "expected an integer exponent")
        assert (str(err.value), err.value.line, err.value.col) == (
            f"3:{col}: {message}", 3, col)
        assert elapsed < 2.0

    def test_parse_peak_memory(self):
        # the largest rank-4/5 document, r5s0 (9,956 bytes): every token
        # held as a tuple once made this about 0.7 MB
        text = render(rank45_actions()[6])
        tracemalloc.start()
        try:
            parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000


class TestRunRefusals:
    """Refusals inside a run of '*'-joined variable factors after a factor
    of several terms (rank 2, z2 bound to itself)."""

    N, M = int("9" * 999), int("7" * 999)  # 999-digit numerals

    @pytest.mark.parametrize("kind, expr, col, message", [
        ("map", "(z1 + z2)*z1^6000*z2^5000", 24,
         "expansion would build words of 11001 letters, more than 10000"),
        ("map", "(z1 + z2)*z1*t1", 20,
         "t-variables are not allowed in a map document"),
        ("action", "(z1 + t1)*z1*z3", 20, "z3 exceeds rank 2"),
        ("action", "(z1 + 1)*t1*z1^0", 21,
         "power of a z-variable must be a positive integer"),
        # H = V*L of the left factor is past 1,000 digits, and a factor
        # that is not a variable multiplies its scalars
        ("action", f"({N}*z1 + 1/{M}*z2)*(z1 + 1)", 2018,
         "expansion would form scalars of more than 1000 digits"),
    ], ids=["word_length", "t_in_map", "rank", "z_power", "digits"])
    def test_run_refusals(self, kind, expr, col, message):
        with pytest.raises(ParseError) as err:
            parse(f"rank 2\n{kind}\nz1 -> {expr}\nz2 -> z2\nend\n")
        assert (str(err.value), err.value.line, err.value.col) == (
            f"3:{col}: {message}", 3, col)

    def test_run_after_wide_factor_forms_no_scalar(self):
        # the left factor's H = V*L is past 1,000 digits, but its scalars
        # N and 1/M are not, and a run of variables forms no new one
        n, m = self.N, self.M
        doc = parse(f"rank 2\naction\nz1 -> ({n}*z1 + 1/{m}*z2)*z1\n"
                    f"z2 -> z2\nend\n")
        text = f"rank 2\naction\nz1 -> {n}*z1^2 + 1/{m}*z2*z1\nz2 -> z2\nend\n"
        assert render(doc) == text
        assert parse(text) == doc


class TestPrint:
    def test_reduced_power_form(self):
        assert poly_str(FreePoly(2, {(1, 1, 2): 1})) == "z1^2*z2"

    def test_ex_a_canonical_text(self):
        assert render(parse(EX_A)) == EX_A

    def test_integral_coefficients_print_as_integers(self):
        assert render(parse("rank 1\nmap\nz1 -> 4/2*z1\nend\n")) == (
            "rank 1\nmap\nz1 -> 2*z1\nend\n")
        # 4 * (1/2) is held as the Fraction 2, and prints as the int would
        as_fraction = FreePoly(1, {(1,): Fraction(1, 2)}) * Fraction(4)
        as_int = FreePoly(1, {(1,): 2})
        assert type(as_fraction.coeff((1,))) is Fraction
        assert as_fraction == as_int
        assert poly_str(as_fraction) == poly_str(as_int) == "2*z1"

    def test_zero(self):
        assert poly_str(FreePoly.zero(2)) == "0"
        assert render(FreePoly.zero(2)) == "0"

    def test_leading_negative_forms(self):
        assert poly_str(FreePoly(2, {(1,): -1})) == "-1*z1"
        assert poly_str(FreePoly(2, {(1,): Fraction(-3, 2)})) == "-3/2*z1"
        assert poly_str(FreePoly(2, {(): Fraction(-1, 3), (1,): 1})) == "-1/3 + z1"

    def test_laurent_coefficient_forms(self):
        multi = LaurentPoly(2, {(0, 1): 1, (2, 0): -1})
        assert laurent_str(multi) == "t2 - t1^2"
        poly = FreePoly(2, {(1, 1): multi}, 2)
        assert poly_str(poly) == "(t2 - t1^2)*z1^2"
        mono = FreePoly(2, {(1,): LaurentPoly(2, {(-1, 2): Fraction(5, 7)})}, 2)
        assert poly_str(mono) == "5/7*t1^-1*t2^2*z1"
        for q, sign in ((1, ""), (-1, "-1*")):
            unit = LaurentPoly(2, {(1, 0): q})
            assert laurent_str(unit) == f"{sign}t1"
            assert poly_str(FreePoly(2, {(1,): unit}, 2)) == f"{sign}t1*z1"
            assert poly_str(FreePoly(2, {(): unit}, 2)) == f"{sign}t1"
        three = LaurentPoly.const(2, 3)
        assert laurent_str(three) == "3"
        assert poly_str(FreePoly(2, {(): three}, 2)) == "3"
        assert poly_str(FreePoly(2, {(): multi}, 2)) == "(t2 - t1^2)"

    def test_parse_print_round_trip_on_values(self):
        rng = random.Random(99)
        for _ in range(60):
            if rng.randrange(2):
                pm = rand_scalar_map(rng, 2)
            else:
                pm = rand_laurent_map(rng, 2)
            text = map_document(pm)
            assert parse(text).to_map() == pm

    def test_print_parse_idempotent(self):
        texts = [
            "rank 2\nmap\nz2->z1\nz1->z2+0*z1\nend",
            "rank 1\naction\nz1 -> ((t1))*z1 + (1 - 1)\nend\n",
            "rank 2\naction\nz2 -> t2*z2\nz1 -> (t1 - 0)*z1\nend\n",
            "rank 1\nmap\nz1 -> 2/4*z1\nend\n",
        ]
        for text in texts:
            once = render(parse(text))
            assert render(parse(once)) == once


class TestEmitReport:
    def test_golden_ex_a(self):
        report = linearize(parse(EX_A).to_action())
        assert emit_report(report) == EX_A_REPORT

    def test_report_is_valid_json_with_key_order(self):
        report = linearize(parse(EX_A).to_action())
        data = json.loads(emit_report(report))
        assert list(data) == ["rank", "effective", "fixed_point", "base_change",
                              "weights", "beta", "beta_inverse", "degree",
                              "verified"]
        assert data["fixed_point"] == ["0", "0"]

    def test_rationals_serialized_as_strings(self):
        doc = parse("rank 1\naction\nz1 -> t1*z1 + t1 - 1\nend\n")
        report = linearize(doc.to_action())
        data = json.loads(emit_report(report))
        assert data["fixed_point"] == ["-1"]
        assert all(isinstance(x, str) for row in data["base_change"] for x in row)
        assert all(isinstance(x, int) for row in data["weights"] for x in row)
