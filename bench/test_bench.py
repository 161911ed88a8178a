"""Tests of the benchmark itself: python3 -m pytest -q bench

They check the tracer (identity wrapping, restore, missing targets, repeatable
counts, self times inside op wall time), the output checks, the check that
later passes repeat the first pass's output, and that the benchmark refuses to
run without falin's sources.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import TARGETS, Tracer

COUNT_UNITS = ("count", "1/call", "ratio")


def counts_only(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] in COUNT_UNITS and name != "trace.overhead_ratio"}


def test_wraps_every_binding_of_a_target_and_restores_it():
    falin = run.fresh_import()
    linearize_module = sys.modules["falin.linearize"]
    laurent = falin.LaurentPoly
    mul, check = laurent.__dict__["__mul__"], linearize_module.check_axioms
    assert laurent.__dict__["__rmul__"] is mul
    with Tracer():
        assert laurent.__dict__["__mul__"].__wrapped__ is mul
        assert laurent.__dict__["__rmul__"] is laurent.__dict__["__mul__"]
        assert linearize_module.check_axioms.__wrapped__ is check
        assert falin.check_axioms is linearize_module.check_axioms
        assert sys.modules["falin.torus"].check_axioms is falin.check_axioms
    assert laurent.__dict__["__mul__"] is mul
    assert laurent.__dict__["__rmul__"] is mul
    assert linearize_module.check_axioms is check
    assert falin.check_axioms is check


def test_missing_target_is_reported_not_zero():
    gone = ("falin.torus", "no_such_stage", "torus.no_such_stage", None)
    tracer = Tracer(TARGETS + (gone,))
    found, info, _, _, _ = run.traced("corpus100", 0, size=3, tracer=tracer)
    assert info["missing_targets"] == ["torus.no_such_stage"]
    assert not any(name.startswith("torus.no_such_stage") for name in found)


@pytest.mark.parametrize("workload,size", [("corpus100", 12), ("shifted", 3)])
def test_traced_counts_repeat_and_self_times_fit(workload, size):
    first, _, ops, failed, tracer = run.traced(workload, 5, size=size)
    second, _, ops2, failed2, _ = run.traced(workload, 5, size=size)
    assert counts_only(first) == counts_only(second)
    assert (ops, failed) == (ops2, failed2)
    assert first["torus.fixed_point.calls"]["value"] == size
    selfs = tracer.self_times()
    roots = {tracer.name_ids[n] for n in tracer.names if n.startswith("op.")}
    walls, layers = {}, {}
    for sid, name_id in enumerate(tracer.span_name):
        op = tracer.span_op[sid]
        if name_id in roots:
            walls[op] = tracer.span_end[sid] - tracer.span_start[sid]
        else:
            layers[op] = layers.get(op, 0.0) + selfs[sid]
            assert selfs[sid] >= -1e-9
    assert len(walls) == ops + 1          # every op plus the set-up
    for op, wall in walls.items():
        assert layers.get(op, 0.0) <= wall * (1 + 1e-9)


def test_short_tier_runs_several_passes_with_equal_output():
    metrics, info, ops, failed = run.end_to_end("corpus100", 0, 0.5, size=4)
    assert info["passes"] > 1
    assert ops == 8 * info["passes"]
    assert failed == 0
    assert set(metrics) == {"setup_s", "ops_per_s", "linearize_p50_s",
                            "peak_rss_mb"}


def test_later_pass_with_other_output_is_a_wrong_answer(monkeypatch):
    real, calls = workloads.run_op, []

    def drifting(falin, kind, case):
        calls.append(kind)
        out = real(falin, kind, case)
        return out if len(calls) <= 8 else out + " "

    monkeypatch.setattr(workloads, "check_op", lambda kind, case, out: False)
    monkeypatch.setattr(workloads, "run_op", drifting)
    with pytest.raises(workloads.WrongAnswer, match="later pass"):
        run.end_to_end("corpus100", 0, 0.5, size=4)


def test_planted_fixed_points_are_fixed():
    falin = run.fresh_import()
    from falin.torus import translated_constant_part
    cases = workloads.setup(falin, "shifted", 0)
    for i in range(30):
        case = workloads.Case(f"c{i}", workloads.corpus_spec(falin, i))
        workloads.generate(falin, case)
        cases.append(case)
    for case in cases:
        action = falin.parse(case.text).to_action()
        assert not any(translated_constant_part(action.map, case.point)), case.key


def test_checks_reject_wrong_reports():
    falin = run.fresh_import()
    [case] = workloads.setup(falin, "corpus100", 0, size=1)
    workloads.run_op(falin, "generate", case)
    out = workloads.run_op(falin, "linearize", case)
    assert workloads.check_op("linearize", case, out) is False
    data = json.loads(out)
    for field, value in (("weights", [[9]]), ("fixed_point", ["1/2"]),
                         ("beta", {"z1": "z1^5"})):
        bad = dict(data, **{field: value})
        with pytest.raises(workloads.WrongAnswer):
            workloads.check_op("linearize", case, json.dumps(bad))
    assert workloads.check_op("linearize", case,
                              json.dumps(dict(data, verified=False))) is True
    assert workloads.check_op("linearize", case, "error:FixedPointNotFound") is True


def test_word_degree_reads_the_printed_form():
    assert workloads.word_degree("z2 + z1^2") == 2
    assert workloads.word_degree("(t2 - t1^2)*z1^2 - 3/2*t1^-1*z1*z2^3") == 4
    assert workloads.word_degree("-1*z1 + 7") == 1
    assert workloads.document_degree("rank 1\naction\nz1 -> t1*z1 + 2\nend\n") == 1


def test_corpus100_is_the_acceptance_corpus():
    falin = run.fresh_import()
    tests_dir = str(run.ROOT / "tests")
    sys.path.insert(0, tests_dir)
    try:
        from test_acceptance import corpus_spec
    finally:
        sys.path.remove(tests_dir)
    for seed in range(100):
        assert (vars(workloads.corpus_spec(falin, seed))
                == vars(corpus_spec(seed)))


def test_refuses_to_run_without_falin_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rank45", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
