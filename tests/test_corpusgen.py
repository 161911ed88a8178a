"""Corpus generation: reproducibility, ground truth, degree caps."""

import gc
import hashlib
import json
import random
import tracemalloc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from falin import (DegreeBlowupExceeded, FreePoly, PolyMap, check_axioms,
                   compose, identity_map, map_document, render,
                   verify_conjugation)
from falin import corpusgen, linalg
from falin.corpusgen import (_COST_CAP, _DEGREE_CAP, CorpusSpec, _check_size,
                             _compose_guarded, _prefilter, _random_unimodular,
                             _refuse_by_top_degree, conjugated_action,
                             gen_action, gen_elementary, substitution_cost)
from falin.linearize import build_tau

from helpers import det
from test_acceptance import corpus_spec

# SHA-256 of what `falin generate` writes for acceptance specs 0-99, computed
# by the code before integer-first scalars, which associated the conjugation
# as compose(compose(alpha, tau), alpha^-1) and held every scalar as a
# Fraction; generated bytes must depend on neither choice.
CORPUS_GENERATE_DIGEST = (
    "cc47fa7c9b00264e9590c228111e1b045dd62b07ba6e7a51b7ca5a6827c20272")

# SHA-256 over action, alpha, alpha^-1 and weights for the rank-4/5 specs with
# seeds 0-5 and the 20 specs behind the shifted benchmark tier, computed by
# the code before sigma was built one t-part at a time, when it was
# compose(alpha, compose(tau, alpha^-1)) checked for size once finished.
BEYOND_CORPUS_DIGEST = (
    "94a7ae6c30191b359fdf003535f5057e8e274718688a9c2c19238837b079cd71")

# SHA-256 over action, alpha, alpha^-1 and weights, or the error text, for
# acceptance specs 100-299 and for 4-5 degree-3 factors under degree caps
# 6-13 (REFUSED_SPECS, each spec with the cap it runs under), computed by the
# code before a build could be refused on its top-degree term count; the count
# refuses builds at both call sites.
REFUSED_BUILDS_DIGEST = (
    "99bcc26609bfa75398593e3638212323af29cbd21fb1757f0fe5cf8f62c44003")
# SHA-256 over repr(M) of _random_unimodular(rank, Random(seed)) for ranks
# 1-6 and seeds 0-49, computed by the code that returned M alone and
# inverted it with linalg.inverse: building M^-1 alongside draws nothing more.
UNIMODULAR_DIGEST = (
    "615c9e0a9664c2684e1a5ef8f180b9c4dbc30c50cdb2565a01d4a5e7ee4d8b8e")

REFUSED_SPECS = ([(corpus_spec(seed), _DEGREE_CAP)
                  for seed in range(100, 300)]
                 + [(CorpusSpec(rank=rank, seed=cap, n_elementary=factors,
                                max_poly_degree=3, weight_bound=3), cap)
                    for cap in range(6, 14)
                    for rank, factors in ((2, 4), (3, 5))])


def composed_elementary(rank, seed, factors):
    """alpha and alpha^-1 composed from gen_elementary factors (degree, target).

    None when a composition's predicted cost passes the generator's
    _COST_CAP: four degree-3 factors at rank 3 can otherwise exhaust memory.
    """
    rng = random.Random(seed)
    alpha = alpha_inv = identity_map(rank)
    for degree, target in factors:
        fwd, back = gen_elementary(rank, rng, degree, target)
        if max(substitution_cost(fwd, alpha),
               substitution_cost(alpha_inv, back)) > _COST_CAP:
            return None
        alpha = compose(fwd, alpha)
        alpha_inv = compose(alpha_inv, back)
    return alpha, alpha_inv


@st.composite
def conjugations(draw):
    """(rank, seed, factors, weights, cap) for composed_elementary."""
    rank = draw(st.integers(1, 3))
    factor = st.tuples(st.integers(1, 3), st.integers(1, rank))
    row = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    return (rank, draw(st.integers(0, 2 ** 32)),
            draw(st.lists(factor, max_size=4)),
            draw(st.lists(row, min_size=rank, max_size=rank)),
            draw(st.integers(2, 8)))


def reference_conjugated_action(alpha, alpha_inv, weights, cap):
    """conjugated_action's guards around the finished compose it replaced."""
    tau = build_tau(weights).map
    _check_size(alpha, cap)
    _prefilter(alpha, alpha_inv, cap)
    sigma = compose(alpha, compose(tau, alpha_inv))
    _check_size(sigma, cap)
    if substitution_cost(sigma, sigma) > _COST_CAP:
        raise DegreeBlowupExceeded("action too expensive to check against itself")
    if substitution_cost(sigma, alpha) > _COST_CAP:
        raise DegreeBlowupExceeded("ground-truth verification too expensive")
    return sigma


class TestGenElementary:
    def test_inverse_stored_and_exact(self):
        rng = random.Random(0)
        for k in range(15):
            fwd, back = gen_elementary(3, rng, 3, target=1 + k % 3)
            assert compose(back, fwd) == identity_map(3)
            assert compose(fwd, back) == identity_map(3)

    def test_rank_one_is_affine(self):
        rng = random.Random(1)
        fwd, back = gen_elementary(1, rng, 3, target=1)
        assert fwd.degree() <= 1
        assert compose(back, fwd) == identity_map(1)

    def test_zero_noise_gives_identity(self):
        base = identity_map(2)
        p = FreePoly.zero(2)
        fwd = PolyMap([base.images[0], base.images[1] + p])
        assert fwd == base


class TestConjugatedAction:
    def test_ex_a_construction(self):
        alpha = PolyMap([FreePoly(2, {(1,): 1}),
                         FreePoly(2, {(2,): 1, (1, 1): 1})])
        alpha_inv = PolyMap([FreePoly(2, {(1,): 1}),
                             FreePoly(2, {(2,): 1, (1, 1): -1})])
        action = conjugated_action(alpha, alpha_inv, [[1, 0], [0, 1]])
        assert render(action) == ("rank 2\naction\nz1 -> t1*z1\n"
                                  "z2 -> t2*z2 + (t2 - t1^2)*z1^2\nend\n")

    def test_trivial_alpha_returns_tau(self):
        ident = identity_map(2)
        weights = [[2, -1], [0, 1]]
        action = conjugated_action(ident, ident, weights)
        assert action.map == build_tau(weights).map

    def test_equals_the_other_association(self):
        for seed in (1, 5, 22, 50, 77):
            _, truth = gen_action(corpus_spec(seed))
            tau = build_tau(truth.weights).map
            action = conjugated_action(truth.alpha, truth.alpha_inverse,
                                       truth.weights)
            assert action.map == compose(compose(truth.alpha, tau),
                                         truth.alpha_inverse)

    @pytest.mark.parametrize("cap", [2, 4], ids=["alpha_too_big",
                                                 "result_too_big"])
    def test_rejects_what_the_other_association_rejects(self, cap):
        z1, z2 = FreePoly.gen(2, 1), FreePoly.gen(2, 2)
        alpha = compose(PolyMap([z1, z2 + z1 * z1]),
                        PolyMap([z1 + z2 * z2, z2]))
        alpha_inv = compose(PolyMap([z1 - z2 * z2, z2]),
                            PolyMap([z1, z2 - z1 * z1]))
        weights = [[1, 2], [-1, 1]]
        with pytest.raises(DegreeBlowupExceeded) as new:
            conjugated_action(alpha, alpha_inv, weights, cap)
        with pytest.raises(DegreeBlowupExceeded) as old:
            scaled = _compose_guarded(alpha, build_tau(weights).map, cap)
            _compose_guarded(scaled, alpha_inv, cap)
        assert str(new.value) == str(old.value)

    @settings(max_examples=200, deadline=None)
    @given(conjugations())
    # 1,003 terms at degree 8: only the term cap trips, and the top-degree
    # count proves it before the build
    @example((2, 54, [(3, 2), (2, 2), (2, 1), (2, 2)], [[1, 2], [0, -2]], 8))
    # the top-degree count proves sigma has a word of degree 15, past the
    # cap of 7
    @example((3, 3673165915, [(3, 2), (3, 2), (3, 3)],
              [[0, 1, -2], [-1, 2, -3], [3, -1, 1]], 7))
    def test_early_stop_rejects_exactly_what_the_finished_map_would(self, case):
        rank, seed, factors, weights, cap = case
        composed = composed_elementary(rank, seed, factors)
        assume(composed is not None)
        alpha, alpha_inv = composed
        try:
            expected = reference_conjugated_action(alpha, alpha_inv, weights,
                                                   cap)
        except DegreeBlowupExceeded as err:
            with pytest.raises(DegreeBlowupExceeded) as got:
                conjugated_action(alpha, alpha_inv, weights, cap)
            assert str(got.value) == str(err)
        else:
            action = conjugated_action(alpha, alpha_inv, weights, cap)
            assert action.map == expected

    def test_t_parts_that_share_top_words_count_once(self):
        # sigma(z3) takes z3, z1 and z2 from alpha^-1(z3) at three distinct
        # weights, and all three images have the same 128 top words; summed
        # per t-part the count would read 646 terms, but sigma has 391
        z1, z2, z3, z4, z5 = (FreePoly.gen(5, i) for i in range(1, 6))
        p = z4 + z5
        for _ in range(6):
            p = p * (z4 + z5)
        alpha = PolyMap([z1 + p, z2 + p, z3 - z1 - z2 - p.scale(2), z4, z5])
        alpha_inv = PolyMap([z1 - p, z2 - p, z3 + z1 + z2, z4, z5])
        weights = [[int(i == j) for j in range(5)] for i in range(5)]
        action = conjugated_action(alpha, alpha_inv, weights)
        assert sum(len(img.terms) for img in action.map.images) == 391
        assert action.map == reference_conjugated_action(alpha, alpha_inv,
                                                         weights, _DEGREE_CAP)


@st.composite
def scalar_maps(draw, rank):
    """Scalar maps with rational, constant, zero and repeated images."""
    coeff = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    word = st.lists(st.integers(1, rank), max_size=3).map(tuple)
    image = st.dictionaries(word, coeff, max_size=4).map(
        lambda terms: FreePoly(rank, terms))
    # repeated images give words that tie at the top and cancel there
    pool = draw(st.lists(image, min_size=1, max_size=rank))
    return PolyMap([draw(st.sampled_from(pool)) for _ in range(rank)])


class TestTopDegreeRefusal:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(scalar_maps(n), scalar_maps(n))))
    def test_one_top_word_gives_the_top_term_count(self, maps):
        g, f = maps
        degrees = [img.degree() for img in g.images]
        tops = [sum(len(w) == d for w in img.terms)
                for img, d in zip(g.images, degrees)]
        for f_i, image in zip(f.images, compose(g, f).images):
            reach = {w: sum(degrees[l - 1] for l in w) for w in f_i.terms
                     if all(degrees[l - 1] >= 0 for l in w)}
            top = max(reach.values(), default=None)
            tied = [w for w, d in reach.items() if d == top]
            if len(tied) == 1:
                assert image.degree() == top
                assert (sum(len(w) == top for w in image.terms)
                        == prod(tops[l - 1] for l in tied[0]))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(scalar_maps(n), scalar_maps(n))),
        st.integers(0, 6))
    # z1 and z2 tie at the top of z1 - z2, and their images cancel
    @example((PolyMap([FreePoly.gen(2, 1)] * 2),
              PolyMap([FreePoly(2, {(1,): 1, (2,): -1}),
                       FreePoly.const(2, 1)])), 0)
    def test_refuses_only_maps_past_a_cap(self, maps, cap):
        g, f = maps
        try:
            _refuse_by_top_degree(g, [(img.terms,) for img in f.images], cap)
        except DegreeBlowupExceeded as err:
            with pytest.raises(DegreeBlowupExceeded) as full:
                _check_size(compose(g, f), cap)
            assert str(err) == str(full.value)

    @settings(max_examples=100, deadline=None)
    @given(conjugations())
    # alpha^-1 after three factors: compose would build 1,012 terms of
    # degree 9, and the top-degree count refuses it first
    @example((2, 194, [(2, 1), (3, 2), (3, 1)], [[1, 0], [0, 1]], 12))
    def test_compose_guarded_refuses_exactly_what_the_finished_map_would(
            self, case):
        rank, seed, factors, _, cap = case
        rng = random.Random(seed)
        alpha = alpha_inv = identity_map(rank)
        for degree, target in factors:
            fwd, back = gen_elementary(rank, rng, degree, target)
            for g, f in ((fwd, alpha), (alpha_inv, back)):
                try:
                    _prefilter(g, f, cap)
                    expected = compose(g, f)
                    _check_size(expected, cap)
                except DegreeBlowupExceeded as err:
                    with pytest.raises(DegreeBlowupExceeded) as got:
                        _compose_guarded(g, f, cap)
                    assert str(got.value) == str(err)
                    return
                assert _compose_guarded(g, f, cap) == expected
            alpha, alpha_inv = compose(fwd, alpha), compose(alpha_inv, back)


class TestRandomUnimodular:
    """M and M^-1 from the same row operations, nothing inverted."""

    def test_inverse_is_exact_over_the_integers(self):
        for rank in range(1, 9):
            ident = [[int(i == j) for j in range(rank)] for i in range(rank)]
            for seed in range(100):
                m, inv = _random_unimodular(rank, random.Random(seed))
                assert all(type(x) is int for row in m + inv for x in row)
                assert [[sum(a * b for a, b in zip(row, col))
                         for col in zip(*inv)] for row in m] == ident

    def test_matrices_pinned(self):
        digest = hashlib.sha256()
        for rank in range(1, 7):
            for seed in range(50):
                m, _ = _random_unimodular(rank, random.Random(seed))
                digest.update(repr(m).encode())
        assert digest.hexdigest() == UNIMODULAR_DIGEST

    def test_generation_inverts_no_matrix(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "inverse", calls.append)
        for seed in range(30):
            gen_action(corpus_spec(seed))
        gen_action(CorpusSpec(rank=5, seed=0, n_elementary=5,
                              max_poly_degree=2, weight_bound=3))
        assert calls == []


class TestGenAction:
    def test_reproducible(self):
        spec = CorpusSpec(rank=2, seed=7, n_elementary=2,
                          max_poly_degree=2, weight_bound=3)
        a1, t1 = gen_action(spec)
        a2, t2 = gen_action(spec)
        assert render(a1) == render(a2)
        assert t1.weights == t2.weights
        assert t1.alpha == t2.alpha

    def test_passes_axioms_and_ground_truth(self):
        for seed in range(5):
            spec = CorpusSpec(rank=2, seed=seed, n_elementary=1,
                              max_poly_degree=2, weight_bound=3)
            action, truth = gen_action(spec)
            assert check_axioms(action).ok
            assert verify_conjugation(action, truth.alpha, truth.weights)
            assert compose(truth.alpha, truth.alpha_inverse) == identity_map(2)

    def test_force_effective(self):
        for seed in range(8):
            spec = CorpusSpec(rank=2, seed=seed, n_elementary=1,
                              max_poly_degree=2, weight_bound=1,
                              force_effective=True)
            _, truth = gen_action(spec)
            assert det(truth.weights) != 0

    def test_degree_cap_raises(self, monkeypatch):
        monkeypatch.setattr(corpusgen, "_DEGREE_CAP", 2)
        spec = CorpusSpec(rank=2, seed=0, n_elementary=3,
                          max_poly_degree=9, weight_bound=1)
        with pytest.raises(DegreeBlowupExceeded):
            gen_action(spec)

    def test_generate_bytes_pinned(self):
        digest = hashlib.sha256()
        for seed in range(100):
            action, truth = gen_action(corpus_spec(seed))
            text = (render(action) + map_document(truth.alpha)
                    + json.dumps(truth.weights, separators=(",", ":")) + "\n")
            digest.update(text.encode())
        assert digest.hexdigest() == CORPUS_GENERATE_DIGEST

    def test_generation_beyond_the_corpus_pinned(self):
        specs = [CorpusSpec(rank=rank, seed=seed, n_elementary=rank,
                            max_poly_degree=2, weight_bound=3)
                 for rank in (4, 5) for seed in range(6)]
        specs += [CorpusSpec(rank=2 + i % 2, seed=i,
                             n_elementary=1 + (i // 2) % 2,
                             max_poly_degree=2, weight_bound=3)
                  for i in range(20)]
        digest = hashlib.sha256()
        for spec in specs:
            action, truth = gen_action(spec)
            text = (render(action) + map_document(truth.alpha)
                    + map_document(truth.alpha_inverse)
                    + json.dumps(truth.weights, separators=(",", ":")) + "\n")
            digest.update(text.encode())
        assert digest.hexdigest() == BEYOND_CORPUS_DIGEST

    def test_generation_where_builds_are_refused_pinned(self, monkeypatch):
        digest = hashlib.sha256()
        for spec, cap in REFUSED_SPECS:
            monkeypatch.setattr(corpusgen, "_DEGREE_CAP", cap)
            try:
                action, truth = gen_action(spec)
            except DegreeBlowupExceeded as err:
                text = f"error: {err}\n"
            else:
                text = (render(action) + map_document(truth.alpha)
                        + map_document(truth.alpha_inverse)
                        + json.dumps(truth.weights, separators=(",", ":"))
                        + "\n")
            digest.update(text.encode())
        assert digest.hexdigest() == REFUSED_BUILDS_DIGEST

    def test_generation_peak_memory(self):
        # a failed attempt's maps once stayed alive through the next attempt
        # in the traceback gen_action kept, and refused builds were composed
        # in full: the largest peak was 5.2 MB
        gc.freeze()  # the collections below then skip the session's objects
        tracemalloc.start()
        try:
            peak = 0
            for seed in range(100):
                gc.collect()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                gen_action(corpus_spec(seed))
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
            gc.unfreeze()
        assert peak < 1_000_000
