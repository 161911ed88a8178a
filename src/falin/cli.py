"""Command-line front end.

Exit codes: 0 success, 1 usage or I/O error (including parse errors),
2 mathematical failure (axioms fail, not effective, verification false,
singular matrix or linear part, no inverse within the bound), 3 broken
internal invariant.  Data goes to
stdout, diagnostics to stderr, so shell harnesses can assert each stream
and code independently.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpusgen import CorpusSpec, gen_action
from .endo import PolyMap, compose, invert
from .errors import (AxiomsFail, DegreeBlowupExceeded, FalinError,
                     FixedPointNotFound, InternalInvariant, NotDiagonalizable,
                     NotEffective, NotPolynomialInverseWithinBound, ParseError,
                     SingularMatrix)
from .freealg import abelianized_representative
from .linearize import linearize
from .textio import emit_report, laurent_str, map_document, parse, render, _word_str
from .torus import check_axioms

_MATH_ERRORS = (FixedPointNotFound, NotDiagonalizable, SingularMatrix,
                NotPolynomialInverseWithinBound, DegreeBlowupExceeded)


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="falin",
                     description="Torus actions on the free algebra: "
                                 "check, linearize, and generate.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    cmd = sub.add_parser("check", help="verify the action axioms of a document")
    cmd.add_argument("file")

    cmd = sub.add_parser("linearize", help="run the full linearization pipeline")
    cmd.add_argument("file")
    cmd.add_argument("--out", help="write the JSON report here instead of stdout")
    cmd.add_argument("--max-degree", type=int, default=None,
                     help="override the inversion degree bound")

    cmd = sub.add_parser("invert", help="invert a polynomial map document")
    cmd.add_argument("file")
    cmd.add_argument("--max-degree", type=int, default=None)

    cmd = sub.add_parser("compose", help="compose two documents "
                                         "(left applied after right)")
    cmd.add_argument("left")
    cmd.add_argument("right")

    cmd = sub.add_parser("abelianize", help="project a document onto the "
                                            "commutative ring")
    cmd.add_argument("file")

    cmd = sub.add_parser("generate", help="emit a corpus action with ground truth")
    cmd.add_argument("--rank", type=int, required=True)
    cmd.add_argument("--seed", type=int, required=True)
    cmd.add_argument("--elementary", type=int, default=1)
    cmd.add_argument("--degree", type=int, default=2)
    cmd.add_argument("--weight-bound", type=int, default=3)
    cmd.add_argument("--allow-singular", action="store_true",
                     help="do not redraw singular weight matrices")
    cmd.add_argument("--out", default=None, help="output file prefix")
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError:
            raise OSError(f"{path}: not valid UTF-8") from None


def _witness_lines(verdict, rank):
    def tname(k):
        return f"t{k}" if k <= rank else f"s{k - rank}"

    def coeff_text(c):
        return laurent_str(c, tname) if hasattr(c, "terms") else str(c)

    word = _word_str(verdict.word) if verdict.word else "1"
    return [
        f"axioms fail: {verdict.axiom} axiom broken at image z{verdict.image}, "
        f"word {word}",
        f"  got:      {coeff_text(verdict.got)}",
        f"  expected: {coeff_text(verdict.expected)}",
    ]


def _cmd_check(args) -> int:
    doc = parse(_read(args.file))
    if doc.kind != "action":
        print("check requires an action document", file=sys.stderr)
        return 1
    verdict = check_axioms(doc.to_action())
    if verdict.ok:
        print(f"axioms hold for the rank-{doc.rank} action")
        return 0
    for line in _witness_lines(verdict, doc.rank):
        print(line)
    return 2


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_linearize(args) -> int:
    doc = parse(_read(args.file))
    if doc.kind != "action":
        print("linearize requires an action document", file=sys.stderr)
        return 1
    try:
        report = linearize(doc.to_action(), max_degree=args.max_degree)
    except AxiomsFail as err:
        for line in _witness_lines(err.witness, doc.rank):
            print(line, file=sys.stderr)
        return 2
    except NotEffective as err:
        _emit(emit_report(err.report), args.out)
        print(f"not effective: {err}", file=sys.stderr)
        return 2
    _emit(emit_report(report), args.out)
    if not report.verified:
        print("verification failed: conjugation identity does not hold",
              file=sys.stderr)
        return 2
    return 0


def _cmd_invert(args) -> int:
    doc = parse(_read(args.file))
    if doc.kind != "map":
        print("invert requires a map document", file=sys.stderr)
        return 1
    inverse = invert(doc.to_map(), args.max_degree)
    sys.stdout.write(map_document(inverse))
    return 0


def _cmd_compose(args) -> int:
    left = parse(_read(args.left))
    right = parse(_read(args.right))
    if left.rank != right.rank:
        print(f"rank mismatch: {left.rank} vs {right.rank}", file=sys.stderr)
        return 1
    result = compose(left.to_map(), right.to_map())
    sys.stdout.write(map_document(result))
    return 0


def _cmd_abelianize(args) -> int:
    doc = parse(_read(args.file))
    pm = doc.to_map()
    images = [abelianized_representative(img) for img in pm.images]
    sys.stdout.write(map_document(PolyMap(images), doc.kind))
    return 0


def _cmd_generate(args) -> int:
    for flag, value, least in (("--rank", args.rank, 1), ("--degree", args.degree, 1),
                               ("--weight-bound", args.weight_bound, 0),
                               ("--elementary", args.elementary, 0)):
        if value < least:
            print(f"generate: {flag} must be at least {least}", file=sys.stderr)
            return 1
    spec = CorpusSpec(rank=args.rank, seed=args.seed,
                      n_elementary=args.elementary,
                      max_poly_degree=args.degree,
                      weight_bound=args.weight_bound,
                      force_effective=not args.allow_singular)
    action, truth = gen_action(spec)
    prefix = args.out or f"action_r{args.rank}_s{args.seed}"
    files = {
        f"{prefix}.act": render(action),
        f"{prefix}.alpha.map": map_document(truth.alpha),
        f"{prefix}.weights.json":
            json.dumps(truth.weights, separators=(",", ":")) + "\n",
    }
    for path, text in files.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(path)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "linearize": _cmd_linearize,
    "invert": _cmd_invert,
    "compose": _cmd_compose,
    "abelianize": _cmd_abelianize,
    "generate": _cmd_generate,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as err:
        print(f"error: {err}", file=sys.stderr)
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1
    except SystemExit as err:          # argparse --help
        return int(err.code or 0)
    if not args.command:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1
    max_degree = getattr(args, "max_degree", None)
    if max_degree is not None and max_degree < 1:
        print(f"{args.command}: --max-degree must be at least 1", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 1
    except _MATH_ERRORS as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except InternalInvariant as err:
        print(f"internal invariant violated: {err}", file=sys.stderr)
        return 3
    except FalinError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
