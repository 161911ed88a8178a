"""falin's benchmark: one closed-loop caller, one workload per process.

    python3 bench/run.py --workload corpus100 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; falin is imported from its ``src``.  The
workload's tier is set up (a fresh import of falin plus the inputs) at least
three times and for at least a second, and ``setup_s`` is the median.  Then
whole passes over the tier run back to back, each op starting when the
previous one has returned, until another pass would end after ``--seconds``;
at least one pass always runs, so a run whose single pass takes longer than
``--seconds`` overruns it.  Every output is checked against ground truth
(see workloads.py), and every later pass must give the bytes of the first.  Times are scaled to the reference host speed (see
hostspeed.py); the info line also carries them unscaled, under ``raw``.

With ``--trace 0`` the result line carries the end-to-end metrics listed in
BENCHMARK.json.  With ``--trace 1`` one untraced pass runs, then the tracer
wraps falin's functions and one traced set-up and one traced pass run; the
result line carries the per-layer metrics and the spans go to
``bench/out/spans-<workload>-s<seed>.tsv.gz``.

The line before the last is informational JSON: figures that exist only on
some workloads (tail latency, generate ops, failed share) and a digest of
every output byte, in tier order, for comparing output between commits.  The
last line is the result object.  A wrong answer prints ``"correct": false``
and exits 1; a missing falin source tree exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from hostspeed import HostSpeed
from tracer import SETUP_OP, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
TAIL_BEYOND = 10


def fresh_import():
    """Import falin from this checkout, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "falin" or m.startswith("falin.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    falin = importlib.import_module("falin")
    if SRC not in Path(falin.__file__).resolve().parents:
        raise ImportError(f"falin imported from {falin.__file__}, not {SRC}")
    return falin


class Pass:
    """Op intervals and outputs of one pass over the tier."""

    def __init__(self):
        self.intervals = {"generate": [], "linearize": []}  # (start, end)
        self.outputs = {}            # (kind, case key) -> output text
        self.failed = 0
        self.start = self.end = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start


def run_pass(falin, workload: str, cases: list, tracer=None) -> Pass:
    result = Pass()
    clock = time.perf_counter
    result.start = clock()
    for op_id, (kind, case) in enumerate(workloads.pass_ops(workload, cases)):
        if tracer is None:
            t0 = clock()
            out = workloads.run_op(falin, kind, case)
            t1 = clock()
        else:
            with tracer.op(op_id, kind):
                t0 = clock()
                out = workloads.run_op(falin, kind, case)
                t1 = clock()
        result.intervals[kind].append((t0, t1))
        result.outputs[(kind, case.key)] = out
        result.failed += workloads.check_op(kind, case, out)
    result.end = clock()
    return result


def digests(outputs: dict) -> dict:
    found = {}
    for kind in ("generate", "linearize"):
        keys = sorted(key for k, key in outputs if k == kind)
        if keys:
            h = hashlib.sha256()
            for key in keys:
                h.update(outputs[(kind, key)].encode())
                h.update(b"\n")
            found[f"{kind}_digest"] = h.hexdigest()
    return found


def tail(samples: list):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    k = len(samples) - TAIL_BEYOND
    if k < 1:
        return None
    return {"value": sorted(samples)[k - 1], "unit": "s",
            "percentile": round(100 * k / len(samples), 2),
            "samples": len(samples)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, size=None):
    """Timed set-ups and passes; ``size`` cuts the tier, as in ``traced``."""
    clock = time.perf_counter
    setups, passes = [], []
    with HostSpeed() as speed:
        while (len(setups) < SETUP_REPEATS
               or sum(end - start for start, end in setups) < SETUP_MIN_S):
            start = clock()
            falin = fresh_import()
            cases = workloads.setup(falin, workload, seed, size)
            setups.append((start, clock()))
        while True:
            passes.append(run_pass(falin, workload, cases))
            if passes[-1].end - passes[0].start + passes[-1].wall > seconds:
                break
    for later in passes[1:]:
        if later.outputs != passes[0].outputs:
            raise workloads.WrongAnswer("a later pass gave different output")
    spans = {kind: [iv for p in passes for iv in p.intervals[kind]]
             for kind in ("generate", "linearize")}
    times = {kind: [speed.seconds(*iv) for iv in ivs] for kind, ivs in spans.items()}
    ops = sum(len(v) for v in spans.values())
    failed = sum(p.failed for p in passes)
    measured = (passes[0].start, passes[-1].end)
    metrics = {
        "setup_s": metric(statistics.median(speed.seconds(*iv) for iv in setups), "s"),
        "ops_per_s": metric(ops / speed.seconds(*measured), "1/s"),
        "linearize_p50_s": metric(statistics.median(times["linearize"]), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    probes = statistics.quantiles(speed.cost, n=10)
    info = {"workload": workload, "seed": seed, "passes": len(passes),
            "setups": len(setups), "measured_s": measured[1] - measured[0],
            "speed_scale": speed.scale(*measured),
            "probe_ms": {"p10": probes[0] * 1e3, "p50": probes[4] * 1e3,
                         "p90": probes[8] * 1e3},
            "raw": {"setup_s": statistics.median(b - a for a, b in setups),
                    "ops_per_s": ops / (measured[1] - measured[0]),
                    "linearize_p50_s": statistics.median(
                        b - a for a, b in spans["linearize"])},
            "failed_share": metric(failed / ops, "ratio"),
            "linearize_tail_s": tail(times["linearize"])}
    if times["generate"]:
        info["generate_p50_s"] = metric(statistics.median(times["generate"]), "s")
        info["generate_tail_s"] = tail(times["generate"])
    info.update(digests(passes[0].outputs))
    return metrics, info, ops, failed


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    selfs = tracer.self_times()
    check_self_times(tracer, selfs)
    self_s, calls = Counter(), Counter()
    for name_id, own in zip(tracer.span_name, selfs):
        self_s[name_id] += own
        calls[name_id] += 1
    found = {}
    present = {}
    for _, _, prefix, _ in tracer.targets:
        if prefix in tracer.missing:
            continue
        name_id = tracer.name_ids[prefix]
        present[prefix] = calls[name_id]
        found[f"{prefix}.self_s"] = metric(self_s[name_id], "s")
        found[f"{prefix}.calls"] = metric(calls[name_id], "count")
        for key, value in sorted(tracer.counts[prefix].items()):
            found[f"{prefix}.{key}"] = metric(value, "count")
    if "endo.invert" in present and "endo.compose" in present:
        found["endo.invert.compose_calls"] = metric(
            tracer.count_under("endo.compose", "endo.invert"), "count")
    if present.get("torus.fixed_point"):
        found["torus.fixed_point.failures"] = metric(
            tracer.raised["torus.fixed_point"], "count")
        if "torus.specialize" in present:
            found["torus.fixed_point.attempts_per_call"] = metric(
                tracer.count_under("torus.specialize", "torus.fixed_point")
                / present["torus.fixed_point"], "1/call")
    attempts = present.get("corpusgen.conjugated_action")
    if attempts and "corpusgen.gen_action" in present:
        returned = (present["corpusgen.gen_action"]
                    - tracer.raised["corpusgen.gen_action"])
        found["corpusgen.accept_ratio"] = metric(returned / attempts, "ratio")
    found["trace.overhead_ratio"] = metric(overhead_ratio, "ratio")
    return found


def check_self_times(tracer: Tracer, selfs):
    """Per op, the layers' self times must fit inside the op's traced wall time."""
    layer_sum, op_wall = Counter(), {}
    roots = {tracer.name_ids[name] for name in tracer.names if name.startswith("op.")}
    for sid, (name_id, op) in enumerate(zip(tracer.span_name, tracer.span_op)):
        if name_id in roots:
            op_wall[op] = tracer.span_end[sid] - tracer.span_start[sid]
        else:
            layer_sum[op] += selfs[sid]
    for op, wall in op_wall.items():
        if layer_sum[op] > wall * (1 + 1e-9):
            raise RuntimeError(
                f"op {op}: layer self times {layer_sum[op]} exceed wall {wall}")


def traced(workload: str, seed: int, size=None, tracer=None):
    """One untraced pass, then one traced set-up and pass; ``size`` cuts the tier.

    Self times are wall time as measured, probes included; only the overhead
    ratio compares the two passes at the reference host speed.
    """
    falin = fresh_import()
    cases = workloads.setup(falin, workload, seed, size)
    tracer = tracer or Tracer()
    with HostSpeed() as speed:
        plain = run_pass(falin, workload, cases)
        with tracer:
            with tracer.op(SETUP_OP, "setup"):
                cases = workloads.setup(falin, workload, seed, size)
            spanned = run_pass(falin, workload, cases, tracer)
    if spanned.outputs != plain.outputs:
        raise workloads.WrongAnswer("tracing changed the output")
    metrics = layer_metrics(tracer, speed.seconds(spanned.start, spanned.end)
                            / speed.seconds(plain.start, plain.end))
    info = {"workload": workload, "seed": seed, "spans": len(tracer.span_start),
            "peak_rss_mb": peak_rss_mb(), "missing_targets": tracer.missing}
    info.update(digests(spanned.outputs))
    ops = sum(len(v) for v in spanned.intervals.values())
    return metrics, info, ops, spanned.failed, tracer


def select(found: dict, section: str) -> dict:
    """The metrics BENCHMARK.json lists for this mode, in its order."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    missing = [m["name"] for m in listed if m["name"] not in found]
    if missing:
        print(json.dumps({"missing_metrics": missing}), file=sys.stderr)
    return {m["name"]: found[m["name"]] for m in listed if m["name"] in found}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        fresh_import()
    except ImportError as err:
        print(f"cannot import falin from {SRC}: {err}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            found, info, ops, failed, tracer = traced(args.workload, args.seed)
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-s{args.seed}.tsv.gz"
            tracer.write(spans)
            info["spans_file"] = str(spans.relative_to(ROOT))
        else:
            found, info, ops, failed = end_to_end(args.workload, args.seed,
                                                  args.seconds)
    except workloads.WrongAnswer as err:
        print(f"wrong answer: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    print(json.dumps(info))
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({"correct": True, "attempted": ops, "failed": failed,
                      "metrics": select(found, section)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
