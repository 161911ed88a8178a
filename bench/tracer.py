"""Spans around falin's public functions, installed from outside the package.

A target is named by module and qualified name.  Installing the tracer wraps
the function object found there and replaces *every* attribute bound to that
same object in every loaded ``falin.*`` module and class, so that re-exports
(``from .torus import check_axioms``) and aliases (``__rmul__ = __mul__``) are
traced too.  Modules are looked up in ``sys.modules``, because
``import falin.linearize`` yields the function the package re-exports under
that name.  Uninstalling restores every original.

Each call records one span: name, start, end, parent span and op id.  Spans
live in flat arrays while the run lasts and are written out when it ends.  A
span's self time is its duration minus the durations of its child spans;
children of one span never overlap, because the program is single-threaded.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction


def _count_laurent_mul(counts, args):
    a, b = args[0], args[1]
    other = getattr(b, "terms", None)
    if isinstance(other, dict) and type(b) is type(a):
        pairs = len(a.terms) * len(other)
    elif isinstance(b, (int, Fraction)):
        pairs = len(a.terms)
    else:
        return  # the call returns NotImplemented
    counts["term_pairs"] += pairs
    if a.nvars > counts["max_nvars"]:
        counts["max_nvars"] = a.nvars


def _count_f_mul(counts, args):
    counts["term_pairs"] += len(args[0].terms) * len(args[1].terms)


# (module, qualified name, metric prefix, operand counter)
TARGETS = (
    ("falin.torus", "check_axioms", "torus.check_axioms", None),
    ("falin.coefficients", "LaurentPoly.__mul__", "coefficients.LaurentPoly.mul",
     _count_laurent_mul),
    ("falin.coefficients", "LaurentPoly.__add__", "coefficients.LaurentPoly.add", None),
    ("falin.freealg", "f_mul", "freealg.f_mul", _count_f_mul),
    ("falin.freealg", "f_substitute", "freealg.f_substitute", None),
    ("falin.endo", "compose", "endo.compose", None),
    ("falin.endo", "invert", "endo.invert", None),
    ("falin.endo", "conjugate_by_translation", "endo.conjugate_by_translation", None),
    ("falin.endo", "conjugate_by_linear", "endo.conjugate_by_linear", None),
    ("falin.linearize", "linearize", "linearize.linearize", None),
    ("falin.linearize", "verify_conjugation", "linearize.verify_conjugation", None),
    ("falin.torus", "fixed_point", "torus.fixed_point", None),
    ("falin.torus", "specialize", "torus.specialize", None),
    ("falin.torus", "weight_decomposition", "torus.weight_decomposition", None),
    ("falin.linalg", "rref", "linalg.rref", None),
    ("falin.linalg", "solve_particular", "linalg.solve_particular", None),
    ("falin.linalg", "inverse", "linalg.inverse", None),
    ("falin.corpusgen", "gen_action", "corpusgen.gen_action", None),
    ("falin.corpusgen", "conjugated_action", "corpusgen.conjugated_action", None),
    ("falin.textio", "parse", "textio.parse", None),
    ("falin.textio", "emit_report", "textio.emit_report", None),
    ("falin.textio", "render", "textio.render", None),
)

NO_PARENT = -1
SETUP_OP = -1


def _resolve(module: str, qualname: str):
    obj = sys.modules.get(module)
    for part in qualname.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part)
    return obj if callable(obj) else None


def _owners():
    """Every loaded falin module and every class defined in one, once each."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if name != "falin" and not name.startswith("falin."):
            continue
        for owner in [module, *vars(module).values()]:
            if owner is module or (isinstance(owner, type)
                                   and owner.__module__.startswith("falin")):
                if id(owner) not in seen:
                    seen.add(id(owner))
                    yield owner


class Tracer:
    """Collects spans and operand counts for the targets while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = []                 # span name by name id
        self.name_ids = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [NO_PARENT]
        self.current_op = [SETUP_OP]
        self.counts = {}                # metric prefix -> Counter
        self.raised = Counter()         # metric prefix -> calls that raised
        self.missing = []
        self._patched = []              # (owner, attribute, original)

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, prefix: str, counter):
        name_id = self._name_id(prefix)
        counts = self.counts.setdefault(prefix, Counter())
        raised = self.raised
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        stack, current_op = self.stack, self.current_op
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_op.append(current_op[0])
            span_start.append(0.0)
            span_end.append(0.0)
            if counter is not None:
                counter(counts, args)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[prefix] += 1
                raise
            finally:
                span_end[sid] = clock()
                span_start[sid] = start
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target that exists; the others go to ``self.missing``."""
        owners = list(_owners())
        for module, qualname, prefix, counter in self.targets:
            original = _resolve(module, qualname)
            if original is None:
                self.missing.append(prefix)
                continue
            wrapper = self._wrap(original, prefix, counter)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @contextmanager
    def op(self, op_id: int, kind: str):
        """A root span for one op; spans opened inside it carry ``op_id``."""
        sid = len(self.span_start)
        self.span_name.append(self._name_id(f"op.{kind}"))
        self.span_parent.append(self.stack[-1])
        self.span_op.append(op_id)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(sid)
        self.current_op[0] = op_id
        try:
            yield
        finally:
            self.span_end[sid] = time.perf_counter()
            self.stack.pop()
            self.current_op[0] = SETUP_OP

    # -- after the run -------------------------------------------------

    def self_times(self) -> array:
        """Self time of every span, indexed by span id."""
        start, end = self.span_start, self.span_end
        selfs = array("d", (e - s for s, e in zip(start, end)))
        for i, parent in enumerate(self.span_parent):
            if parent != NO_PARENT:
                selfs[parent] -= end[i] - start[i]
        return selfs

    def count_under(self, child: str, ancestor: str) -> int:
        """Spans called ``child`` that have a span called ``ancestor`` above them."""
        child_id = self.name_ids.get(child)
        ancestor_id = self.name_ids.get(ancestor)
        names = self.span_name
        inside = bytearray(len(names))
        count = 0
        for i, parent in enumerate(self.span_parent):
            if parent != NO_PARENT and (names[parent] == ancestor_id or inside[parent]):
                inside[i] = 1
                count += names[i] == child_id
        return count

    def write(self, path):
        """Gzipped TSV, one line per span: id, name, parent, op, start, end."""
        names = self.names
        rows = zip(self.span_name, self.span_parent, self.span_op,
                   self.span_start, self.span_end)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id\tname\tparent\top\tstart\tend\n")
            handle.writelines(f"{i}\t{names[n]}\t{p}\t{o}\t{s!r}\t{e!r}\n"
                              for i, (n, p, o, s, e) in enumerate(rows))
