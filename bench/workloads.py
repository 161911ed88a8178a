"""The benchmark's three workloads: fixed input tiers, their ops and output checks.

Every workload is a fixed tier of actions.  The workload seed shuffles the
order in which one pass runs them; it does not choose the actions.  Per-action
cost spans four orders of magnitude (2 ms to over a minute), so a seeded draw
of actions moves every median and throughput figure by more than any bound a
regression gate could use: corpus seeds 0-99 take 30.7 s per pass and seeds
100-199 take 21.7 s on the reference machine.  A fixed tier keeps the numbers
comparable between commits.  Output digests are taken in tier order, so runs
of different seeds must print the same digest: a result that depends on what
ran before it shows up there.

Checks never trust the program's own ``verified`` flag alone.  Every report is
compared with the generator's ground truth (weights up to row order, the fixed
point the benchmark put there) and its beta degrees are read off the report
text and bounded by the degree of the input document.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

WORKLOADS = ("corpus100", "rank45", "shifted")

# rank45: the first two spec seeds at each rank.  Seed 2 alone takes 12 s at
# either rank and seeds 3-4 at rank 5 take 46-73 s, so adding any of them
# pushes one pass past the 30 s run.
RANK45_SEEDS = (0, 1)
SHIFTED_SIZE = 20


class WrongAnswer(Exception):
    """A report that contradicts the ground truth the benchmark built."""


def corpus_spec(falin, seed: int):
    """The acceptance corpus recipe (``corpus_spec`` in tests/test_acceptance.py)."""
    return falin.CorpusSpec(rank=1 + seed % 3, seed=seed,
                            n_elementary=1 + (seed // 3) % 3,
                            max_poly_degree=1 + (seed // 9) % 3,
                            weight_bound=3, force_effective=True)


@dataclass
class Case:
    """One action of a tier and everything needed to check its report."""

    key: str                       # stable label, also the digest order
    spec: object                   # CorpusSpec
    text: Optional[str] = None     # the action document; None until generated
    weights: Optional[list] = None  # ground-truth weight matrix
    point: Optional[tuple] = None  # the point the action fixes


def generate(falin, case: Case) -> str:
    """Generate op: what ``falin generate`` writes, as one string."""
    action, truth = falin.gen_action(case.spec)
    case.text = falin.render(action)
    case.weights = truth.weights
    case.point = fixed_by(falin, truth)
    return (case.text + falin.map_document(truth.alpha)
            + json.dumps(truth.weights, separators=(",", ":")) + "\n")


def fixed_by(falin, truth) -> tuple:
    """The point the generated action fixes: alpha^-1(0).

    compose(g, f) substitutes g into f, so as a map of points the action
    compose(compose(alpha, tau), alpha^-1) is x -> alpha^-1(tau(alpha(x))).
    """
    return tuple(Fraction(c) for c in falin.constant_part(truth.alpha_inverse))


def shifted_case(falin, i: int) -> Case:
    """A corpus action conjugated so that it fixes a non-lattice rational point."""
    rank = 2 + i % 2
    spec = falin.CorpusSpec(rank=rank, seed=i, n_elementary=1 + (i // 2) % 2,
                            max_poly_degree=2, weight_bound=3)
    action, truth = falin.gen_action(spec)
    rng = random.Random(i)
    shift = [Fraction(rng.choice((-7, -6, -5, -4, -3, -2, -1,
                                  1, 2, 3, 4, 5, 6, 7)),
                      rng.randint(2, 5)) for _ in range(rank)]
    # z -> f(z - shift) + shift fixes every fixed point of f moved by shift
    moved = falin.conjugate_by_translation(action.map, [-c for c in shift])
    point = tuple(c + s for c, s in zip(fixed_by(falin, truth), shift))
    return Case(f"s{i}", spec, falin.render(falin.TorusAction(moved)),
                truth.weights, point)


def setup(falin, workload: str, seed: int, size: Optional[int] = None) -> list:
    """Build the tier, or its first ``size`` cases, and shuffle it by the seed.

    corpus100 generates nothing here: its generate ops are timed.
    """
    if workload == "corpus100":
        cases = [Case(f"c{s}", corpus_spec(falin, s)) for s in range(100)[:size]]
    elif workload == "rank45":
        cases = []
        for rank, s in [(r, s) for r in (4, 5) for s in RANK45_SEEDS][:size]:
            case = Case(f"r{rank}s{s}", falin.CorpusSpec(
                rank=rank, seed=s, n_elementary=rank, max_poly_degree=2,
                weight_bound=3))
            generate(falin, case)
            cases.append(case)
    elif workload == "shifted":
        cases = [shifted_case(falin, i) for i in range(SHIFTED_SIZE)[:size]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(cases)
    return cases


def run_op(falin, kind: str, case: Case) -> str:
    """One timed op; returns its output bytes as text.

    generate is what ``falin generate`` writes; linearize is the path
    ``falin linearize`` takes, from document text to report bytes.  A
    documented FalinError comes back as ``error:<class>``, which also stands
    in for the report in the digest.
    """
    if kind == "generate":
        return generate(falin, case)
    try:
        report = falin.linearize(falin.parse(case.text).to_action())
    except falin.FalinError as err:
        return f"error:{type(err).__name__}"
    return falin.emit_report(report)


def check_op(kind: str, case: Case, out: str) -> bool:
    """True when the op failed in a documented way; raises WrongAnswer.

    A FalinError or a report with verified=false is a failure, not a wrong
    answer.
    """
    if kind == "generate":
        return False
    if out.startswith("error:"):
        return True
    data = json.loads(out)
    if data.get("verified") is not True:
        return True
    check_report(case, data)
    return False


_TERM_WORD = re.compile(r"z(\d+)(?:\^(\d+))?")


def word_degree(poly_text: str) -> int:
    """Largest word length in a printed polynomial, read from the text alone.

    Parenthesised Laurent coefficients hold no z-letters, so they are dropped
    before the sum is split into terms.
    """
    flat = re.sub(r"\([^()]*\)", "c", poly_text)
    best = 0
    for term in re.split(r" [+-] ", flat):
        best = max(best, sum(int(e or 1) for _, e in _TERM_WORD.findall(term)))
    return best


def document_degree(text: str) -> int:
    return max(word_degree(line.split("->", 1)[1])
               for line in text.splitlines() if "->" in line)


def check_report(case: Case, data: dict):
    if not data.get("effective"):
        raise WrongAnswer(f"{case.key}: effective action reported as not effective")
    got = sorted(tuple(row) for row in data["weights"])
    want = sorted(tuple(row) for row in case.weights)
    if got != want:
        raise WrongAnswer(f"{case.key}: weights {got} != ground truth {want}")
    point = tuple(Fraction(x) for x in data["fixed_point"])
    if point != case.point:
        raise WrongAnswer(f"{case.key}: fixed point {point} != {case.point}")
    bound = document_degree(case.text)
    for part in ("beta", "beta_inverse"):
        degree = max(word_degree(img) for img in data[part].values())
        if degree > bound:
            raise WrongAnswer(
                f"{case.key}: deg {part} = {degree} > deg sigma = {bound}")


def pass_ops(workload: str, cases: list) -> list:
    """The ops of one pass, in run order: (kind, case)."""
    if workload == "corpus100":
        return [(kind, case) for case in cases
                for kind in ("generate", "linearize")]
    return [("linearize", case) for case in cases]
