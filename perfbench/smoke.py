"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced with `--scale tiny`, and checks
that each run exits 0 and ends with a correct result that carries every
metric BENCHMARK.json names for that mode, each with its unit. It also
checks that run.py exits non-zero, without a result, in a copy that holds
only BENCHMARK.json and this directory. Exits 1 on any problem.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench_run(root: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def check(workload: str, trace: int, bench: dict) -> list:
    proc = bench_run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        problems.append(f"{where}: correct={result['correct']} attempted="
                        f"{result['attempted']} failed={result['failed']}\n{proc.stderr[-2000:]}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong unit {units}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    csv_line = [line for line in lines if line.startswith("csv ")]
    status = json.loads(csv_line[0][4:])["matches_seed_commit"] if csv_line else "no csv line"
    print(f"{where}: {len(result['metrics'])} metrics, attempted {result['attempted']}, "
          f"CSV matches seed commit: {status}")
    return problems


def check_without_sources() -> list:
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench_run(bare, "sensing_e2e", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    print(f"without sources: exit {proc.returncode}, no result")
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = check_without_sources()
    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            problems += check(workload, trace, bench)
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
