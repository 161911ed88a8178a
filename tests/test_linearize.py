"""The linearization pipeline on worked examples and constructed failures."""

import hashlib
import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falin import (AxiomsFail, CorpusSpec, FixedPointNotFound, FreePoly,
                   LaurentPoly, NotEffective, NotPolynomialInverseWithinBound,
                   PolyMap, TorusAction, build_tau, check_axioms, compose,
                   conjugate_by_linear, conjugate_by_translation, constant_part,
                   emit_report, extract_beta, fixed_point, gen_action,
                   identity_map, invert, linear_part, linearize, parse,
                   verify_conjugation, weight_decomposition)
from falin import freealg, linalg
from falin.corpusgen import conjugated_action
from falin.endo import linear_map, translation_map
from falin.errors import NotDiagonalizable

from helpers import rank45_actions
from test_acceptance import corpus_spec

EX_A = """rank 2
action
z1 -> t1*z1
z2 -> t2*z2 + (t2 - t1^2)*z1^2
end
"""


# SHA-256 of the reports of the rank-4/5 tier (ranks 4 and 5, seeds 0-1);
# their beta and beta^-1 carry denominators up to 2704, so the certificate
# runs through the compositions that clear denominators
RANK45_REPORT_DIGEST = (
    "63e92c831cfe39ddfcb89a139b5e6b33f0a1bfd8b1afad35fc1a7c0daa772ef5")

# SHA-256 of the reports of the shifted tier (shifted_actions), whose
# fixed points are non-lattice rational points: gamma^-1 has constant terms
SHIFTED_REPORT_DIGEST = (
    "985b16447d3e2eb16c10cf5f9609d68836e68e472aa732cd0940bb9f16fcbcf7")


@pytest.fixture
def ex_a():
    return parse(EX_A).to_action()


def shifted_actions():
    """20 rank-2/3 corpus actions moved to rational fixed points.

    The recipe of the benchmark's ``shifted`` tier: z -> f(z - shift) + shift.
    """
    actions = []
    for i in range(20):
        rank = 2 + i % 2
        action, _ = gen_action(CorpusSpec(rank=rank, seed=i,
                                          n_elementary=1 + (i // 2) % 2,
                                          max_poly_degree=2, weight_bound=3))
        rng = random.Random(i)
        shift = [Fraction(rng.choice((-7, -6, -5, -4, -3, -2, -1,
                                      1, 2, 3, 4, 5, 6, 7)),
                          rng.randint(2, 5)) for _ in range(rank)]
        actions.append(TorusAction(conjugate_by_translation(
            action.map, [-c for c in shift])))
    return actions


# Anick's automorphism of the free algebra on three generators, which
# Umirbaev proved wild: w = z1*z3 - z3*z2 is invariant, so the inverse
# flips both signs
ANICK = """rank 3
map
z1 -> z1 + z3*(z1*z3 - z3*z2)
z2 -> z2 + (z1*z3 - z3*z2)*z3
z3 -> z3
end
"""
ANICK_INVERSE = ANICK.replace("+", "-")

WILD_WEIGHTS = ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[2, -1, 0], [0, 1, 3], [-1, 0, 1]],
                [[1, 1, 1], [0, -2, 1], [3, 0, -1]])

# SHA-256 of each wild action's report as ``falin linearize`` prints it
# (with its newline), by conjugator and weight matrix
WILD_REPORT_DIGESTS = {
    ("anick", 0): "9247a14580072bd5e7ba62fb24a8617c3748e2963b2ffc72d11803e3c666f31e",
    ("anick", 1): "e66ff3555dc0ab4de40d8e4f420b1e086e60cf3d7b987bfc85f9e7c9f5ff2e26",
    ("anick", 2): "ae58ab5034d00fb2363398b8bba6e634f50f3da8721744d5afd4ba11bcbcf241",
    ("sheared", 0): "81d6027767497d09236aae243002e2ff9e6efa543a76c44175b4db709e5b89df",
    ("sheared", 1): "3f231c41d359dd9deae5a938996bcee3beb5de20d38d936bb58b18fbb6af661d",
    ("sheared", 2): "8d5b6b2f79acf452c727beafdb6642334d8bcb8007ca95a7c5bba682b7c61d2c",
}


def wild_actions():
    """[(key, sigma, M)]: sigma = alpha o tau_M o alpha^-1 for alpha Anick's
    map alone and after the shear z1 -> z1 - z2/2, for each M of
    WILD_WEIGHTS, built by compose alone."""
    alpha = parse(ANICK).to_map()
    alpha_inv = parse(ANICK_INVERSE).to_map()
    shear = [[1, Fraction(-1, 2), 0], [0, 1, 0], [0, 0, 1]]
    conjugators = {
        "anick": (alpha, alpha_inv),
        "sheared": (compose(alpha, linear_map(3, shear)),
                    compose(linear_map(3, linalg.inverse(shear)), alpha_inv)),
    }
    return [((name, i),
             TorusAction(compose(a, compose(build_tau(m).map, a_inv))), m)
            for name, (a, a_inv) in conjugators.items()
            for i, m in enumerate(WILD_WEIGHTS)]


def gamma_of(report):
    """gamma = T_-c o P^-1 o beta, the conjugator the certificate checks."""
    n = report.rank
    return compose(translation_map(n, [-x for x in report.fixed_point]),
                   compose(linear_map(n, linalg.inverse(report.base_change)),
                           report.beta))


def elementary_alpha():
    alpha = PolyMap([FreePoly(2, {(1,): 1}), FreePoly(2, {(2,): 1, (1, 1): 1})])
    alpha_inv = PolyMap([FreePoly(2, {(1,): 1}),
                         FreePoly(2, {(2,): 1, (1, 1): -1})])
    return alpha, alpha_inv


class TestBuildTau:
    def test_identity_weights(self):
        tau = build_tau([[1, 0], [0, 1]])
        assert tau.map.images[0] == FreePoly(2, {(1,): LaurentPoly.var(2, 1)}, 2)
        assert tau.map.images[1] == FreePoly(2, {(2,): LaurentPoly.var(2, 2)}, 2)

    def test_general_rows(self):
        tau = build_tau([[1, 2], [0, 1]])
        assert tau.map.images[0] == \
            FreePoly(2, {(1,): LaurentPoly.monomial(2, (1, 2))}, 2)
        assert tau.map.images[1] == FreePoly(2, {(2,): LaurentPoly.var(2, 2)}, 2)

    def test_zero_matrix_gives_identity_action(self):
        tau = build_tau([[0, 0], [0, 0]])
        assert tau.map == PolyMap([FreePoly.gen(2, 1, 2),
                                   FreePoly.gen(2, 2, 2)])
        assert tau.degree == 1


class TestExtractBeta:
    def test_identity_phi(self):
        action = build_tau([[0, 0], [0, 0]])
        beta = extract_beta(action, [[1, 0], [0, 1]], [[0, 0], [0, 0]])
        assert beta == identity_map(2)

    def test_tau_gives_identity_action(self):
        tau = build_tau([[2, 1], [1, 1]])
        beta = extract_beta(tau, [[1, 0], [0, 1]], [[2, 1], [1, 1]])
        assert beta == identity_map(2)

    def test_ex_a(self, ex_a):
        beta = extract_beta(ex_a, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
        assert beta == PolyMap([FreePoly(2, {(1,): 1}),
                                FreePoly(2, {(2,): 1, (1, 1): 1})])

    def test_coefficient_without_constant_part_contributes_nothing(self):
        # twisted by t1^-1 it is t1 - t1^2, which has no constant part
        coeff = LaurentPoly(1, {(2,): 1, (3,): -1})  # t1^2 - t1^3
        action = TorusAction(PolyMap([
            FreePoly(1, {(1,): LaurentPoly.var(1, 1), (1, 1): coeff}, 1)]))
        beta = extract_beta(action, [[1]], [[1]])
        assert beta == identity_map(1)

    def test_matches_twisted_constant_part(self):
        """Oracle: the t^0 part of the diagonalized action twisted by tau^-1."""
        actions = [gen_action(corpus_spec(seed))[0] for seed in range(30)]
        actions += [gen_action(CorpusSpec(rank=rank, seed=seed, n_elementary=rank,
                                          max_poly_degree=2, weight_bound=3))[0]
                    for rank in (4, 5) for seed in (0, 1)]
        for i in range(6):
            rank = 2 + i % 2
            action, _ = gen_action(CorpusSpec(rank=rank, seed=2000 + i,
                                              n_elementary=2, max_poly_degree=2,
                                              weight_bound=3))
            shift = [Fraction(j + 1, i + 2) for j in range(rank)]
            actions.append(TorusAction(conjugate_by_translation(action.map, shift)))
        for action in actions:
            n = action.rank
            moved = conjugate_by_translation(action.map, fixed_point(action))
            base_change, weights = weight_decomposition(linear_part(moved))
            diagonalized = conjugate_by_linear(moved, base_change)
            expected = []
            for img, m in zip(diagonalized.images, weights):
                twisted = img.scale(LaurentPoly.monomial(n, [-w for w in m]))
                expected.append(FreePoly(n, {w: c.constant_coeff()
                                             for w, c in twisted.terms.items()}))
            beta = extract_beta(TorusAction(moved), base_change, weights)
            assert beta == PolyMap(expected)


class TestVerifyConjugation:
    def test_standard_identity(self):
        doc = parse("rank 1\naction\nz1 -> t1*z1\nend\n")
        assert verify_conjugation(doc.to_action(), identity_map(1), [[1]])

    def test_ex_a_beta(self, ex_a):
        beta = PolyMap([FreePoly(2, {(1,): 1}),
                        FreePoly(2, {(2,): 1, (1, 1): 1})])
        assert verify_conjugation(ex_a, beta, [[1, 0], [0, 1]])

    def test_ex_a_identity_fails(self, ex_a):
        assert not verify_conjugation(ex_a, identity_map(2), [[1, 0], [0, 1]])


class TestLinearize:
    def test_standard_action(self):
        doc = parse("rank 2\naction\nz1 -> t1*z1\nz2 -> t2*z2\nend\n")
        report = linearize(doc.to_action())
        assert report.verified and report.effective
        assert report.fixed_point == (0, 0)
        assert report.base_change == [[1, 0], [0, 1]]
        assert report.weights == [[1, 0], [0, 1]]
        assert report.beta == identity_map(2)
        assert report.beta_inverse == identity_map(2)

    def test_ex_a_full_run(self, ex_a):
        report = linearize(ex_a)
        assert report.verified
        assert report.fixed_point == (0, 0)
        assert report.base_change == [[1, 0], [0, 1]]
        assert report.weights == [[1, 0], [0, 1]]
        assert report.beta == PolyMap([FreePoly(2, {(1,): 1}),
                                       FreePoly(2, {(2,): 1, (1, 1): 1})])
        assert report.beta_inverse == PolyMap([FreePoly(2, {(1,): 1}),
                                               FreePoly(2, {(2,): 1, (1, 1): -1})])
        assert report.degree == 2

    def test_ex_a_is_a_conjugated_diagonal_action(self, ex_a):
        alpha, alpha_inv = elementary_alpha()
        built = conjugated_action(alpha, alpha_inv, [[1, 0], [0, 1]])
        assert built.map == ex_a.map

    def test_not_effective(self):
        alpha, alpha_inv = elementary_alpha()
        action = conjugated_action(alpha, alpha_inv, [[1, 0], [1, 0]])
        with pytest.raises(NotEffective) as err:
            linearize(action)
        report = err.value.report
        assert report.effective is False
        assert report.weights in ([[1, 0], [1, 0]],)
        assert report.beta is None

    def test_axioms_failure_raises_with_witness(self):
        doc = parse("rank 1\naction\nz1 -> t1*z1 + 1\nend\n")
        with pytest.raises(AxiomsFail) as err:
            linearize(doc.to_action())
        assert err.value.witness is not None
        assert err.value.witness.axiom == "compatibility"

    def test_translated_ex_a_recovers_center(self, ex_a):
        from falin import conjugate_by_translation
        moved = TorusAction(conjugate_by_translation(ex_a.map, [2, -1]))
        report = linearize(moved)
        assert report.verified
        assert report.fixed_point == (-2, 1)
        assert sorted(map(tuple, report.weights)) == [(0, 1), (1, 0)]

    def test_degree_bound_honored(self, ex_a):
        report = linearize(ex_a)
        assert max(img.degree() for img in report.beta.images) <= ex_a.degree
        assert max(img.degree() for img in report.beta_inverse.images) <= ex_a.degree

    def test_degree_bound_is_tight(self):
        # corpus spec 26 is a rank-3 action of degree 3 whose beta^-1 also
        # has degree 3, so deg beta^-1 <= deg sigma cannot be lowered there
        action, _ = gen_action(corpus_spec(26))
        report = linearize(action)
        assert report.verified
        assert action.degree == report.beta_inverse.degree() == 3

    def test_rejects_non_diagonal_linear_part(self):
        # z1 -> t1*z1 + t1*z2, z2 -> t2*z2: the weight t2 has no eigenvector
        doc = parse("rank 2\naction\nz1 -> t1*z1 + t1*z2\nz2 -> t2*z2\nend\n")
        action = doc.to_action()
        with pytest.raises(NotDiagonalizable):
            weight_decomposition(linear_part(action.map))
        with pytest.raises(AxiomsFail) as err:
            linearize(action)
        assert isinstance(err.value.__context__, NotDiagonalizable)

    def test_beta_always_has_identity_linear_part(self):
        from falin.corpusgen import CorpusSpec, gen_action
        for seed in range(5):
            spec = CorpusSpec(rank=2, seed=seed, n_elementary=1,
                              max_poly_degree=2, weight_bound=2)
            action, _ = gen_action(spec)
            report = linearize(action)
            assert linear_part(report.beta) == [[1, 0], [0, 1]]

    def test_rank45_report_bytes_pinned(self):
        digest = hashlib.sha256()
        for rank in (4, 5):
            for seed in (0, 1):
                spec = CorpusSpec(rank=rank, seed=seed, n_elementary=rank,
                                  max_poly_degree=2, weight_bound=3)
                action, _ = gen_action(spec)
                digest.update(emit_report(linearize(action)).encode())
        assert digest.hexdigest() == RANK45_REPORT_DIGEST

    def test_shifted_report_bytes_pinned(self):
        digest = hashlib.sha256()
        for action in shifted_actions():
            digest.update(emit_report(linearize(action)).encode())
        assert digest.hexdigest() == SHIFTED_REPORT_DIGEST

    def test_rank45_beta_inverse_coefficients_are_canonical(self):
        # int when integral, Fraction otherwise, as normalize_scalar stores
        # them; invert forms each pass's h = A^-1 q from linalg's Fractions
        for action in rank45_actions():
            for img in linearize(action).beta_inverse.images:
                for c in img.terms.values():
                    assert type(c) is (int if c.denominator == 1 else Fraction)


class TestWildConjugators:
    """Actions conjugated by Anick's wild automorphism, which no product of
    linear and elementary maps (every generated alpha) reaches."""

    def test_anick_inverse_flips_both_signs(self):
        alpha = parse(ANICK).to_map()
        alpha_inv = parse(ANICK_INVERSE).to_map()
        assert compose(alpha, alpha_inv) == identity_map(3)
        assert compose(alpha_inv, alpha) == identity_map(3)

    def test_linearize_recovers_the_planted_weights(self):
        for key, sigma, weights in wild_actions():
            assert sigma.degree == 5
            assert check_axioms(sigma).ok
            report = linearize(sigma)
            assert report.verified
            assert sorted(map(tuple, report.weights)) == \
                sorted(map(tuple, weights))
            assert report.beta_inverse.degree() <= sigma.degree
            printed = (emit_report(report) + "\n").encode()
            assert hashlib.sha256(printed).hexdigest() == \
                WILD_REPORT_DIGESTS[key], key


def bumped_corpus_action(seed, k, delta):
    """Corpus action whose k-th graded-lex term of z1's image gains delta(rank)."""
    action, _ = gen_action(corpus_spec(seed))
    first = action.map.images[0]
    word = sorted(first.terms, key=lambda w: (len(w), w))[k]
    terms = dict(first.terms)
    terms[word] = terms[word] + delta(action.rank)
    images = [FreePoly(action.rank, terms, action.rank), *action.map.images[1:]]
    return TorusAction(PolyMap(images))


def doc_action(*images):
    lines = [f"rank {len(images)}", "action",
             *(f"z{i} -> {image}" for i, image in enumerate(images, 1)), "end", ""]
    return parse("\n".join(lines)).to_action()


class TestCertificate:
    """Axioms are checked only where the pipeline gives no certificate."""

    @pytest.mark.parametrize("make, stage_error", [
        (lambda: doc_action("t1*z1 + 1"), FixedPointNotFound),
        (lambda: bumped_corpus_action(1, 0, lambda n: 1), NotDiagonalizable),
        # z2^4 gains t1^2*t2^-6, which is no weight row: a word above the
        # lowest degree of its t-component, so the read-off beta^-1 is
        # still beta's inverse and only the conjugation check fails
        (lambda: bumped_corpus_action(
            10, 9, lambda n: LaurentPoly.monomial(n, (2, -6))), None),
        (lambda: bumped_corpus_action(10, 2, lambda n: LaurentPoly.var(n, 1)),
         NotPolynomialInverseWithinBound),
        (lambda: doc_action("t1*z1 + t1*z1^2"), NotPolynomialInverseWithinBound),
        (lambda: doc_action("t1*z1", "t1*z2 + t2*z1^2"), NotEffective),
    ], ids=["fixed_point", "not_diagonalizable", "verified_false",
            "inverse_read_off", "inverse_bound", "not_effective"])
    def test_non_action_raises_axioms_fail_with_witness(self, make, stage_error):
        action = make()
        verdict = check_axioms(action)
        assert not verdict.ok
        with pytest.raises(AxiomsFail) as err:
            linearize(action)
        assert err.value.witness == verdict
        # the stage that noticed first; verified=False raises no stage error
        context = err.value.__context__
        if stage_error is None:
            assert context is None
        else:
            assert isinstance(context, stage_error)

    def test_genuine_action_never_checks_axioms(self, ex_a, monkeypatch):
        module = importlib.import_module("falin.linearize")
        calls = []

        def counting(action):
            calls.append(action)
            return check_axioms(action)

        monkeypatch.setattr(module, "check_axioms", counting)
        moved = TorusAction(conjugate_by_translation(ex_a.map, [2, -1]))
        assert linearize(ex_a).verified
        assert linearize(moved).verified
        assert calls == []


    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_is_rejected_before_any_stage(
            self, ex_a, monkeypatch, bound):
        module = importlib.import_module("falin.linearize")
        calls = []
        monkeypatch.setattr(module, "check_axioms", calls.append)
        with pytest.raises(ValueError, match="at least 1"):
            linearize(ex_a, max_degree=bound)
        assert calls == []


class TestScalarCertificate:
    """The pipeline certifies sigma = gamma o tau o gamma^-1 over scalar images."""

    def actions(self, ex_a):
        translated, _ = gen_action(corpus_spec(5))  # rank 3
        translated = TorusAction(conjugate_by_translation(
            translated.map, [Fraction(1, 2), -2, Fraction(3, 4)]))
        return [ex_a, translated, rank45_actions()[6]]  # rank 5, seed 0

    def test_linearize_multiplies_no_laurent_coefficients(self, ex_a,
                                                         monkeypatch):
        actions = self.actions(ex_a)
        seen = []
        mul_into = freealg._mul_into

        def kind(terms):
            return next((c.nvars for c in terms.values()
                         if isinstance(c, LaurentPoly)), None)

        def spy(out, a_terms, b_terms, max_degree):
            seen.append((kind(a_terms), kind(b_terms)))
            return mul_into(out, a_terms, b_terms, max_degree)

        # every product, f_mul's and f_substitute's alike, runs this loop;
        # the certificate's kernel (endo.substitute_parts) scales its cached
        # prefix products with it too
        monkeypatch.setattr(freealg, "_mul_into", spy)
        monkeypatch.setattr(importlib.import_module("falin.endo"),
                            "_mul_into", spy)
        for action in actions:
            assert linearize(action).verified
        assert seen and all(kinds == (None, None) for kinds in seen)

    def test_agrees_with_verify_conjugation(self, ex_a):
        conjugates_tau = importlib.import_module(
            "falin.linearize")._conjugates_tau
        actions = self.actions(ex_a) + shifted_actions()[:4]
        for action in actions:
            report = linearize(action)
            gamma = gamma_of(report)
            # h = Y^-1 = beta^-1 o P, and gamma^-1 = h o T_c
            h = compose(report.beta_inverse,
                        linear_map(report.rank, report.base_change))
            center = report.fixed_point

            def certifies(sigma, weights):
                return conjugates_tau(
                    map(freealg.t_components, sigma.map.images), gamma, h,
                    center, weights)

            assert certifies(action, report.weights)
            assert verify_conjugation(action, gamma, report.weights)

            first = action.map.images[0]
            word = max(first.terms, key=lambda w: (len(w), w))
            terms = dict(first.terms)
            terms[word] = terms[word] + 1
            bumped = TorusAction(PolyMap([
                FreePoly(action.rank, terms, action.rank),
                *action.map.images[1:]]))
            assert not certifies(bumped, report.weights)
            assert not verify_conjugation(bumped, gamma, report.weights)

            weights = [list(row) for row in report.weights]
            weights[0], weights[1] = weights[1], weights[0]
            assert not certifies(action, weights)
            assert not verify_conjugation(action, gamma, weights)

    def test_proves_one_inverse_per_effective_linearize(self, ex_a,
                                                         monkeypatch):
        module = importlib.import_module("falin.linearize")
        calls = []
        prove = module.prove_inverse

        def counting(f, h, bound):
            calls.append(bound)
            return prove(f, h, bound)

        monkeypatch.setattr(module, "prove_inverse", counting)
        actions = (self.actions(ex_a) + shifted_actions()[:4]
                   + [sigma for _, sigma, _ in wild_actions()])
        for action in actions:
            calls.clear()
            assert linearize(action).verified
            assert calls == [action.degree]
        calls.clear()
        with pytest.raises(NotPolynomialInverseWithinBound):
            linearize(ex_a, max_degree=1)  # beta^-1 has degree 2
        assert calls == [1]
        calls.clear()
        alpha, alpha_inv = elementary_alpha()
        with pytest.raises(NotEffective):
            linearize(conjugated_action(alpha, alpha_inv, [[1, 0], [1, 0]]))
        assert calls == []


class TestPipelineStepsOnce:
    """At the origin gamma is Y, and each image of sigma is split by t once."""

    @pytest.fixture
    def spies(self, monkeypatch):
        module = importlib.import_module("falin.linearize")
        split, translations = [], []
        t_components = freealg.t_components
        build = module.translation_map

        def splitting(poly):
            split.append(poly)
            return t_components(poly)

        def translating(rank, c):
            translations.append(list(c))
            return build(rank, c)

        monkeypatch.setattr(module, "t_components", splitting)
        monkeypatch.setattr(freealg, "t_components", splitting)
        monkeypatch.setattr(module, "translation_map", translating)
        return split, translations

    def test_origin_composes_no_translation_and_splits_once(self, ex_a,
                                                            spies):
        split, translations = spies
        corpus, _ = gen_action(corpus_spec(5))  # rank 3
        for action in (ex_a, corpus, rank45_actions()[6]):  # rank 5, seed 0
            split.clear()
            report = linearize(action)
            assert report.verified and not any(report.fixed_point)
            assert translations == []
            assert [id(p) for p in split] == [
                id(img) for img in action.map.images]

    def test_moved_fixed_point_translates_gamma(self, spies):
        split, translations = spies
        for action in shifted_actions()[:2]:
            split.clear()
            translations.clear()
            report = linearize(action)
            assert report.verified and any(report.fixed_point)
            assert translations == [[-x for x in report.fixed_point]]
            # the certificate splits sigma's own images, last
            assert [id(p) for p in split[-action.rank:]] == [
                id(img) for img in action.map.images]
            assert len(split) > action.rank  # the moved images, before


class TestReadOffInverse:
    """beta^-1 is read off the lowest-degree parts of sigma's t-components."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda rank: st.tuples(
        st.just(rank), st.integers(0, 10**6), st.integers(1, rank),
        st.lists(st.fractions(-7, 7, max_denominator=5),
                 min_size=rank, max_size=rank))))
    def test_equals_series_inverse(self, case):
        rank, seed, factors, shift = case
        action, _ = gen_action(CorpusSpec(rank=rank, seed=seed,
                                          n_elementary=factors,
                                          max_poly_degree=2, weight_bound=3))
        moved = TorusAction(conjugate_by_translation(
            action.map, [-c for c in shift]))
        for sigma in (action, moved):
            report = linearize(sigma)
            assert report.verified
            assert report.beta_inverse == invert(report.beta, sigma.degree)

    def test_inverts_the_base_change_once(self, ex_a, monkeypatch):
        calls = []
        inverse = linalg.inverse

        def counting(matrix):
            calls.append(matrix)
            return inverse(matrix)

        monkeypatch.setattr(linalg, "inverse", counting)
        actions = TestScalarCertificate().actions(ex_a) + shifted_actions()[:4]
        for action in actions:
            calls.clear()
            assert linearize(action).verified
            assert len(calls) == 1


NON_EFFECTIVE_WITHOUT_INVARIANTS = """\
rank 2
action
z1 -> t1*z1 + (t1^-1 - t1)*z2 + (-1*t1^-1 + t1)*z1^2
z2 -> t1^-1*z2 + (-1*t1^-1 + t1^2)*z1^2 + (1 - t1^2)*z1*z2 \
+ (1 - t1^2)*z2*z1 + (t1^-2 - 2 + t1^2)*z2^2 + (-2 + 2*t1^2)*z1^3 \
+ (-1*t1^-2 + 2 - t1^2)*z1^2*z2 + (-1*t1^-2 + 2 - t1^2)*z2*z1^2 \
+ (t1^-2 - 2 + t1^2)*z1^4
end
"""


class TestFixedPoint:
    """The fixed point is read off the t-constant part of the constant terms."""

    def test_rational_translations_recover_the_moved_point(self):
        nonzero = (-7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7)
        for i in range(24):
            rank = 2 + i % 3
            spec = CorpusSpec(rank=rank, seed=1000 + i,
                              n_elementary=1 + (i // 3) % 2,
                              max_poly_degree=2, weight_bound=3)
            action, truth = gen_action(spec)
            rng = random.Random(i)
            shift = [Fraction(rng.choice(nonzero), rng.randint(2, 5))
                     for _ in range(rank)]
            # z -> f(z - shift) + shift fixes the fixed point of f moved by shift
            moved = TorusAction(conjugate_by_translation(
                action.map, [-s for s in shift]))
            report = linearize(moved)
            assert report.verified
            assert report.fixed_point == tuple(
                c + s for c, s in zip(constant_part(truth.alpha_inverse), shift))

    def test_non_effective_action_without_constant_invariants(self):
        # a genuine action whose t-constant parts g_{i,0} are not constants:
        # the read-off point is not fixed, so no fixed point is reported.
        # Weights ((1, 0), (-1, 0)) conjugated by two elementary factors.
        action = parse(NON_EFFECTIVE_WITHOUT_INVARIANTS).to_action()
        moved = TorusAction(conjugate_by_translation(action.map, [0, 1]))
        assert check_axioms(moved).ok
        with pytest.raises(FixedPointNotFound):
            linearize(moved)
