"""Run the benchmark over several seeds and write one BENCH JSON file.

    python3 bench/record.py --out BENCH_mine.json

Runs ``bench/run.py`` for every workload in BENCHMARK.json with seeds 0-9 and
tracing off, then once per workload with seed 0 and tracing on, one process
at a time, from
the root of the checkout this file sits in.  The file holds every run's
result line and info line, the machine (``nproc``, Python, CPU model), and
per workload and end-to-end metric the median, quartiles and spread
(quartile distance over median, the figure BENCHMARK.json's bounds apply
to).  Bounds are not copied in: they live in BENCHMARK.json alone.  Compare two such files only when both come from the same machine,
seeds and benchmark code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900
SEEDS = list(range(10))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    run = {"workload": workload, "seed": seed, "trace": trace,
           "result": json.loads(lines[-1])}
    if len(lines) > 1:
        run["info"] = json.loads(lines[-2])
    print(json.dumps(run), flush=True)
    return run


def summarize(runs: list, end_to_end: list) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        plain = [r for r in runs if r["workload"] == workload and not r["trace"]]
        rows = {}
        for m in end_to_end:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in plain]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            rows[m["name"]] = {"unit": m["unit"], "median": median, "q1": q1,
                               "q3": q3, "spread": (q3 - q1) / median,
                               "values": values}
        summary[workload] = rows
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            runs.append(one_run(workload, seed, spec["run_seconds"], 0))
        runs.append(one_run(workload, SEEDS[0], spec["run_seconds"], 1))
    record = {
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "cpu": cpu_model()},
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
