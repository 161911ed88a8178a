"""Acceptance criteria, one test per criterion, all exact (tolerance 0).

Each test prints one "ACCEPTANCE <n> ...: PASS" line on success; a failed
criterion fails its test (and prints nothing), so the pytest report and
the printed lines always agree.  The timed criteria assert their stated
wall-clock budgets.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from falin import (FreePoly, LaurentPoly, PolyMap, TorusAction, abelianize,
                   check_axioms, compose, conjugate_by_translation, emit_report,
                   f_mul, f_substitute, fixed_point,
                   linearize, map_document, parse, render)
from falin.cli import run as cli_run
from falin.corpusgen import CorpusSpec, conjugated_action, gen_action
from falin.endo import linear_part
from falin.errors import ParseError
from falin.torus import translated_constant_part

from helpers import det, rand_laurent_map, rand_scalar_map, rand_scalar_poly

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

# SHA-256 of emit_report over the 100 corpus reports, in seed order
CORPUS_REPORT_DIGEST = (
    "440a70fc76e1af4b51f869d6a8f97634374d8c890164938ac17411d860b3a2ad")


def corpus_spec(seed):
    return CorpusSpec(rank=1 + seed % 3,
                      seed=seed,
                      n_elementary=1 + (seed // 3) % 3,
                      max_poly_degree=1 + (seed // 9) % 3,
                      weight_bound=3,
                      force_effective=True)


@pytest.fixture(scope="session")
def corpus100():
    """The 100 seeded round-trip cases with their reports and wall time."""
    t0 = time.time()
    cases = []
    for seed in range(100):
        action, truth = gen_action(corpus_spec(seed))
        report = linearize(action)
        cases.append((action, truth, report))
    return cases, time.time() - t0


def test_criterion_1_round_trip_linearization(corpus100):
    cases, elapsed = corpus100
    assert len(cases) == 100
    digest = hashlib.sha256()
    for action, truth, report in cases:
        assert report.verified is True
        got = sorted(tuple(row) for row in report.weights)
        want = sorted(tuple(row) for row in truth.weights)
        assert got == want
        digest.update(emit_report(report).encode())
    assert digest.hexdigest() == CORPUS_REPORT_DIGEST
    assert elapsed < 120, f"round-trip corpus took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 round-trip linearization: PASS "
          f"(100/100 verified, weights match, {elapsed:.1f}s < 120s)")


def test_criterion_2_degree_bound(corpus100):
    cases, _ = corpus100
    for action, _, report in cases:
        beta_deg = max(img.degree() for img in report.beta.images)
        inv_deg = max(img.degree() for img in report.beta_inverse.images)
        assert beta_deg <= action.degree
        assert inv_deg <= action.degree
    print("\nACCEPTANCE 2 degree bound: PASS "
          "(deg(beta), deg(beta^-1) <= deg(sigma) on all 100 cases)")


def test_criterion_3_golden_worked_example():
    report = linearize(parse(EX_A).to_action())
    assert emit_report(report) == EX_A_REPORT
    print("\nACCEPTANCE 3 golden worked example: PASS (byte-exact report)")


def _singular_weight_matrices(count, rank, bound=3, seed=1234):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        m = [[rng.randint(-bound, bound) for _ in range(rank)]
             for _ in range(rank)]
        if det(m) == 0 and any(any(row) for row in m):
            found.append(tuple(tuple(r) for r in m))
    return found


def test_criterion_4_effectiveness_detection(tmp_path):
    singular = _singular_weight_matrices(20, rank=2)
    for i, weights in enumerate(singular):
        spec = CorpusSpec(rank=2, seed=500 + i, n_elementary=1,
                          max_poly_degree=2, weight_bound=3)
        _, truth = gen_action(spec)
        action = conjugated_action(truth.alpha, truth.alpha_inverse, weights)
        assert det(weights) == 0
        path = tmp_path / f"singular_{i}.act"
        path.write_text(render(action))
        assert cli_run(["linearize", str(path), "--out",
                        str(tmp_path / f"singular_{i}.json")]) == 2
        data = json.loads((tmp_path / f"singular_{i}.json").read_text())
        assert data["effective"] is False
    for i in range(20):
        spec = CorpusSpec(rank=2, seed=700 + i, n_elementary=1,
                          max_poly_degree=2, weight_bound=3,
                          force_effective=True)
        action, truth = gen_action(spec)
        assert abs(det(truth.weights)) >= 1
        path = tmp_path / f"effective_{i}.act"
        path.write_text(render(action))
        assert cli_run(["linearize", str(path), "--out",
                        str(tmp_path / f"effective_{i}.json")]) == 0
        data = json.loads((tmp_path / f"effective_{i}.json").read_text())
        assert data["effective"] is True
    print("\nACCEPTANCE 4 effectiveness detection: PASS "
          "(20 singular -> exit 2, 20 non-singular -> exit 0)")


def test_criterion_5_axiom_suite(corpus100):
    cases, _ = corpus100
    for action, _, _ in cases:
        assert check_axioms(action).ok
    for action, _, _ in cases[:10]:
        mutated_images = list(action.map.images)
        img = mutated_images[0]
        word = sorted(img.terms)[0]
        bumped = dict(img.terms)
        bumped[word] = bumped[word] + LaurentPoly.one(action.rank)
        mutated_images[0] = FreePoly(action.rank, bumped, action.rank)
        verdict = check_axioms(TorusAction(PolyMap(mutated_images)))
        assert not verdict.ok
        assert verdict.axiom in ("compatibility", "identity")
        assert verdict.image is not None and verdict.word is not None
    # the hand case: sigma(s)sigma(t)(z1) = s1t1 z1 + t1 + 1 != s1t1 z1 + 1
    verdict = check_axioms(parse("rank 1\naction\nz1 -> t1*z1 + 1\nend\n")
                           .to_action())
    assert not verdict.ok
    assert verdict.axiom == "compatibility"
    assert (verdict.image, verdict.word) == (1, ())
    assert verdict.got == LaurentPoly(2, {(1, 0): 1, (0, 0): 1})
    assert verdict.expected == LaurentPoly(2, {(0, 0): 1})
    print("\nACCEPTANCE 5 axiom suite: PASS "
          "(100 corpus actions pass, 10 mutations fail with witnesses, "
          "hand case fails as computed)")


def test_criterion_6_fixed_point_translation():
    rng = random.Random(60)
    t0 = time.time()
    for i in range(20):
        spec = CorpusSpec(rank=1 + i % 3, seed=900 + i, n_elementary=1 + i % 2,
                          max_poly_degree=2, weight_bound=3)
        action, _ = gen_action(spec)
        shift = [Fraction(rng.randint(-3, 3)) for _ in range(action.rank)]
        moved = TorusAction(conjugate_by_translation(action.map, shift))
        center = fixed_point(moved)
        assert all(not r for r in translated_constant_part(moved.map, center))
    elapsed = time.time() - t0
    assert elapsed < 30, f"fixed-point recovery took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 6 fixed-point translation: PASS "
          f"(20/20 verified, {elapsed:.1f}s < 30s)")


def test_criterion_7_algebra_laws():
    rng = random.Random(70)
    for _ in range(200):  # free-algebra ring laws
        p = rand_scalar_poly(rng, 2)
        q = rand_scalar_poly(rng, 2)
        r = rand_scalar_poly(rng, 2)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert f_mul(f_mul(p, q), r) == f_mul(p, f_mul(q, r))
        assert f_mul(p, q + r) == f_mul(p, q) + f_mul(p, r)
    z1, z2 = FreePoly.gen(2, 1), FreePoly.gen(2, 2)
    assert f_mul(z1, z2) != f_mul(z2, z1)
    for _ in range(200):  # substitution is a homomorphism
        p = rand_scalar_poly(rng, 2, max_terms=3, max_len=2)
        q = rand_scalar_poly(rng, 2, max_terms=3, max_len=2)
        images = [img for img in rand_scalar_map(rng, 2).images]
        sub = lambda x: f_substitute(x, images)
        assert sub(f_mul(p, q)) == f_mul(sub(p), sub(q))
        assert sub(p + q) == sub(p) + sub(q)
    for _ in range(200):  # abelianization is a homomorphism
        p = rand_scalar_poly(rng, 2)
        q = rand_scalar_poly(rng, 2)
        assert abelianize(f_mul(p, q)) == abelianize(p) * abelianize(q)
        assert abelianize(p + q) == abelianize(p) + abelianize(q)
    for _ in range(200):  # compose is associative
        f = rand_scalar_map(rng, 2, max_terms=2, max_len=2)
        g = rand_scalar_map(rng, 2, max_terms=2, max_len=2)
        h = rand_scalar_map(rng, 2, max_terms=2, max_len=2)
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)
    for _ in range(200):  # linear parts compose in reverse order
        f = rand_scalar_map(rng, 2)
        g = rand_scalar_map(rng, 2)
        a_f = linear_part(f)
        a_g = linear_part(g)
        product = [[sum(a_f[i][k] * a_g[k][j] for k in range(2))
                    for j in range(2)] for i in range(2)]
        assert linear_part(compose(g, f)) == product
    print("\nACCEPTANCE 7 algebra laws: PASS (1000 random triples, all exact)")


def test_criterion_8_standard_lift_recovers_standard_weights():
    for i in range(20):
        rank = 1 + i % 3
        identity_weights = tuple(tuple(int(r == c) for c in range(rank))
                                 for r in range(rank))
        spec = CorpusSpec(rank=rank, seed=800 + i, n_elementary=1 + i % 2,
                          max_poly_degree=2, weight_bound=3)
        _, truth = gen_action(spec)
        action = conjugated_action(truth.alpha, truth.alpha_inverse,
                                   identity_weights)
        report = linearize(action)
        assert report.verified
        got = sorted(tuple(row) for row in report.weights)
        want = sorted(tuple(row) for row in identity_weights)
        assert got == want
    print("\nACCEPTANCE 8 standard-action lift: PASS "
          "(20/20 recover identity weights up to row order)")


def _hand_varied_texts():
    bases = [
        "rank 1\naction\nz1 -> t1*z1\nend\n",
        "rank 2\naction\nz1 -> t1*z1\nz2 -> t2*z2 + (t2 - t1^2)*z1^2\nend\n",
        "rank 2\nmap\nz1 -> z1 + 1/2\nz2 -> z2 - 3*z1^2\nend\n",
        "rank 2\nmap\nz2 -> z1\nz1 -> z2\nend\n",
        "rank 1\naction\nz1 -> t1^-2*z1\nend\n",
        "rank 3\nmap\nz1 -> z2*z3\nz2 -> z2\nz3 -> z3 + z1*z2*z1\nend\n",
        "rank 1\nmap\nz1 -> 0\nend\n",
        "rank 2\naction\nz1 -> (t1 + 0)*z1\nz2 -> ((t2))*z2\nend\n",
        "rank 1\nmap\nz1 -> 2/4*z1 + 6/4\nend\n",
        "rank 2\nmap\nz1 -> -1*z2\nz2 -> z1 - -2\nend\n",
    ]
    variants = []
    for base in bases:
        variants.append(base)
        variants.append(base.replace(" -> ", "->"))
        variants.append(base.replace("\n", "   \n"))
        variants.append("# header comment\n" + base)
        variants.append(base.replace("\nend", "\n# before end\nend"))
        variants.append(base.replace(" + ", "+").replace(" - ", "-"))
        variants.append(base.replace("*", " * "))
        variants.append(base.replace("\nz1", "\n\nz1"))
        variants.append(base.replace("rank", "rank ").replace("  ", " "))
        variants.append(base + "\n\n")
    return variants


def test_criterion_9_parser_round_trips():
    rng = random.Random(90)
    for i in range(500):
        rank = 1 + i % 3
        if i % 2:
            value = rand_scalar_map(rng, rank)
        else:
            value = rand_laurent_map(rng, rank)
        assert parse(map_document(value)).to_map() == value
    texts = _hand_varied_texts()
    assert len(texts) == 100
    for text in texts:
        once = render(parse(text))
        assert render(parse(once)) == once
    bad_inputs = [
        "", "rank\n", "rank 1\n", "rank 1\naction\nend\n",
        "rank 1\naction\nz1 -> z2\nend\n",
        "rank 1\naction\nz1 -> z1\nz1 -> z1\nend\n",
        "rank 1\nmap\nz1 -> t1\nend\n",
        "rank 1\naction\nz1 -> z1^-1\nend\n",
        "rank 1\naction\nz1 -> z1 ?\nend\n",
        "rank 1\naction\nz1 -> 1/0\nend\n",
        "rank 1\naction\nz1 -> (z1\nend\n",
        "rank 1\naction\nz1 -> z1\nend\nextra\n",
    ]
    for text in bad_inputs:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line >= 1 and err.value.col >= 1
    print("\nACCEPTANCE 9 parser round trips: PASS "
          "(500 value round trips, 100 idempotent reprints, "
          "12 positioned errors)")
