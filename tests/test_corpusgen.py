"""Corpus generation: reproducibility, ground truth, degree caps."""

import hashlib
import json
import random

import pytest

from falin import (DegreeBlowupExceeded, FreePoly, PolyMap, check_axioms,
                   compose, identity_map, map_document, render,
                   verify_conjugation)
from falin.corpusgen import (CorpusSpec, _compose_guarded, conjugated_action,
                             gen_action, gen_elementary)
from falin.linearize import build_tau

from helpers import det
from test_acceptance import corpus_spec

# SHA-256 of what `falin generate` writes for acceptance specs 0-99, computed
# by the code before integer-first scalars, which associated the conjugation
# as compose(compose(alpha, tau), alpha^-1) and held every scalar as a
# Fraction; generated bytes must depend on neither choice.
CORPUS_GENERATE_DIGEST = (
    "cc47fa7c9b00264e9590c228111e1b045dd62b07ba6e7a51b7ca5a6827c20272")


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

    def test_weights_override(self):
        target = ((1, 0), (1, 0))
        spec = CorpusSpec(rank=2, seed=3, n_elementary=1, max_poly_degree=2,
                          weight_bound=3, force_effective=False, weights=target)
        _, truth = gen_action(spec)
        assert truth.weights == [[1, 0], [1, 0]]

    def test_degree_cap_raises(self):
        spec = CorpusSpec(rank=2, seed=0, n_elementary=3,
                          max_poly_degree=9, weight_bound=1, degree_cap=2)
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

    def test_no_linear_factor(self):
        spec = CorpusSpec(rank=2, seed=5, n_elementary=0, max_poly_degree=2,
                          weight_bound=2, include_linear=False)
        action, truth = gen_action(spec)
        assert truth.alpha == identity_map(2)
        assert action.map == build_tau(truth.weights).map
