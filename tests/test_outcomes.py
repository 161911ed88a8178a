"""One digest over every outcome of a fixed input sweep, failures included.

The other digests pin reports.  This one also pins what a failure prints
or carries: the error class and message, the AxiomsFail witness, the stage
error that sent the pipeline to the axiom check, the partial report of
NotEffective, and ``falin check``'s stdout and exit code.  The inputs are
corpus specs 0-99, each as generated and moved to a rational fixed point,
each of those also with the first graded-lex term of z1's image bumped by
1 and by t1, and the six wild actions; ``linearize`` runs each at the
bounds None, 1 and 2.
"""

import hashlib
import random
from fractions import Fraction

from falin import (FalinError, LaurentPoly, TorusAction,
                   conjugate_by_translation, emit_report, gen_action,
                   laurent_str, linearize, render)
from falin.cli import run

from test_acceptance import corpus_spec
from test_linearize import bumped, wild_actions

# SHA-256 of the outcome lines of the sweep, one line per input and bound,
# then one per input for ``falin check``
OUTCOME_DIGEST = (
    "2fded88511eefd7bb3a8a57c34a7a8f163746a27409d3e9e2b442062cf97b458")


def sweep():
    """[(name, action)] in a fixed order."""
    actions = []
    for seed in range(100):
        action, _ = gen_action(corpus_spec(seed))
        n = action.rank
        rng = random.Random(seed)
        shift = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(2, 5))
                 for _ in range(n)]
        moved = TorusAction(conjugate_by_translation(
            action.map, [-c for c in shift]))
        for name, base in (("generated", action), ("moved", moved)):
            actions += [(f"{seed} {name}", base),
                        (f"{seed} {name} +1", bumped(base, 0, 1)),
                        (f"{seed} {name} +t1",
                         bumped(base, 0, LaurentPoly.var(n, 1)))]
    actions += [(f"wild {name} {i}", sigma)
                for (name, i), sigma, _ in wild_actions()]
    return actions


def _coefficient(c):
    return laurent_str(c) if isinstance(c, LaurentPoly) else str(c)


def _error_fields(err):
    fields = [type(err).__name__, str(err)]
    witness = getattr(err, "witness", None)
    if witness is not None:
        fields += [str(witness.ok), str(witness.axiom), str(witness.image),
                   str(witness.word), _coefficient(witness.got),
                   _coefficient(witness.expected)]
    report = getattr(err, "report", None)
    if report is not None:
        fields.append(emit_report(report))
    if isinstance(err.__context__, FalinError):
        fields += ["after", *_error_fields(err.__context__)]
    return fields


def linearize_outcome(action, bound):
    try:
        return emit_report(linearize(action, bound))
    except FalinError as err:
        return " | ".join(_error_fields(err))


def outcome_lines(tmp_path, capsys):
    actions = sweep()
    lines = [f"{name} | linearize {bound} | {linearize_outcome(action, bound)}"
             for name, action in actions for bound in (None, 1, 2)]
    path = tmp_path / "sweep.act"
    for name, action in actions:
        path.write_text(render(action), encoding="utf-8")
        code = run(["check", str(path)])
        lines.append(f"{name} | check {code} | {capsys.readouterr().out}")
    return lines


def test_outcome_digest_pinned(tmp_path, capsys):
    lines = outcome_lines(tmp_path, capsys)
    assert len(lines) == 606 * 4
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == OUTCOME_DIGEST
