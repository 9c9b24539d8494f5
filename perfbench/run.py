"""airpool benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is an experiment config generated from --seed and run by
`airpool.experiments.run_experiment` in a fresh process (child.py), one
repetition after another until --seconds have passed, so the
process-global caches (`optimizer._BETA_CACHE`, the `lru_cache` in
`channel`) start cold every time. BLAS threads are pinned to 1 and
`experiment.workers` is 1.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
median `run_s` (wall time of the `run_experiment` call) over the
repetitions, median `setup_s` (process spawn to `import airpool` plus
`parse_config` done) over set-up-only processes, one run before each
repetition and more after the last up to SETUP_SAMPLES, and median
`peak_rss_mb` of the run processes.

--trace 1 runs one untraced repetition, then traced ones (tracing.py), and
reports the per-layer metrics of the median traced repetition.

A repetition fails if it raises, reports `failures > 0`, writes a CSV with
a non-finite value or the wrong row count, or writes a CSV whose bytes
differ from the most common one in the run. The last line of stdout is
the result JSON; earlier lines describe the environment, the CSV sha256
against the value recorded at the seed commit, and the result values the
CSV determines (`alpha_error_ratio`, `accuracy_r_ap`).

`--scale tiny` shrinks every workload for the smoke run (smoke.py).
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import tracing  # noqa: E402

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
BLAS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}

# Sizes per scale. "full" is the benchmark proper; "tiny" keeps the
# same code paths at a fraction of the work for the smoke run.
WORKLOADS = {
    "alpha_search": {
        "kind": "alpha_optimality",
        "full": {"k_sensors": 12, "trials": 20000, "snr_grid_db": "20, 30"},
        "tiny": {"k_sensors": 4, "trials": 10000, "snr_grid_db": "20"},
    },
    "bound_gate": {
        "kind": "bound_validation",
        "full": {"k_sensors": 12, "trials": 100000, "snr_grid_db": "0, 6, 12",
                 "alpha_grid": "1, 2, 4, 8, 16"},
        "tiny": {"k_sensors": 4, "trials": 10000, "snr_grid_db": "0, 12",
                 "alpha_grid": "1, 4"},
    },
    "sensing_e2e": {
        "kind": "synthetic_e2e",
        "full": {"trials": 100000, "snr_grid_db": "10, 15, 20, 25, 30",
                 "n_samples": 6000, "epochs": 300},
        "tiny": {"trials": 10000, "snr_grid_db": "10, 30",
                 "n_samples": 600, "epochs": 20},
    },
}
EXPERIMENT_KEYS = ("trials",)
SYSTEM_KEYS = ("k_sensors",)


def config_text(workload: str, scale: str, seed: int, out_dir: str) -> str:
    spec = WORKLOADS[workload]
    sizes = spec[scale]
    lines = ["[experiment]", f"kind = {spec['kind']}", f"seed = {seed}",
             f"output_dir = {out_dir}", "workers = 1"]
    lines += [f"{k} = {sizes[k]}" for k in EXPERIMENT_KEYS if k in sizes]
    lines += ["", "[system]"] + [f"{k} = {sizes[k]}" for k in SYSTEM_KEYS if k in sizes]
    lines += ["", "[sweep]"] + [f"{k} = {v}" for k, v in sizes.items()
                                if k not in EXPERIMENT_KEYS + SYSTEM_KEYS]
    return "\n".join(lines) + "\n"


def expected_rows(workload: str, scale: str):
    """CSV data rows the experiment must write (one per SNR), or None."""
    if workload == "bound_gate":
        return None
    return len(WORKLOADS[workload][scale]["snr_grid_db"].split(","))


class Child:
    """Runs child.py to completion and returns its measurements."""

    def __init__(self, work: str, config: str):
        self.work, self.config, self.count = work, config, 0
        self.env = dict(os.environ, **BLAS_ENV)
        self.env.pop("PYTHONPATH", None)

    def __call__(self, mode: str):
        self.count += 1
        result = os.path.join(self.work, f"{mode}-{self.count}.json")
        log = os.path.join(self.work, f"{mode}-{self.count}.log")
        with open(log, "w", encoding="utf-8") as fh:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), mode, self.config, result],
                cwd=self.work, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
        if code != 0 or not os.path.exists(result):
            with open(log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            return {"error": f"{mode} process exited with {code}:\n{tail}"}
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
        out["setup_s"] = out.pop("ready_at") - t_spawn
        if "csv" in out:
            out["csv"] = os.path.join(self.work, out["csv"])
        return out


def _inf_by_design(row: dict, column: str, number: float) -> bool:
    # bound_validation compares each reconfig-max-monotone row with the
    # previous alpha's error; the first row has none, and the program writes
    # its bound (and so its slack) as +inf.
    return (row.get("check") == "reconfig-max-monotone" and column in ("bound", "slack")
            and number == math.inf)


def check_csv(rep: dict, want_rows):
    """Reads the rep's CSV; returns (sha256, rows, problem or None)."""
    with open(rep["csv"], "rb") as fh:
        data = fh.read()
    rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    for row in rows:
        for column, value in row.items():
            try:
                number = float(value)
            except ValueError:
                continue
            if not math.isfinite(number) and not _inf_by_design(row, column, number):
                return None, rows, f"non-finite {column} {value!r} in the CSV"
    if want_rows is not None and len(rows) != want_rows:
        return None, rows, f"{len(rows)} CSV rows, expected {want_rows}"
    return hashlib.sha256(data).hexdigest(), rows, None


def result_values(workload: str, rows) -> dict:
    """Values the CSV determines; they repeat exactly for a fixed seed."""
    if workload == "alpha_search":
        return {"alpha_error_ratio": statistics.fmean(
            float(r["d_closed"]) / float(r["d_bruteforce"]) for r in rows)}
    if workload == "sensing_e2e":
        return {"accuracy_r_ap": statistics.fmean(float(r["r_ap"]) for r in rows)}
    return {}


def run_reps(child, mode: str, seconds: float, workload: str, scale: str, setups=None):
    """Closed loop: each repetition starts when the previous one ends, and
    only if it should end within `seconds`; at least one runs. With a
    `setups` list, one set-up-only process runs before each repetition, so
    the set-up samples spread over the same window."""
    want_rows = expected_rows(workload, scale)
    reps = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        if setups is not None:
            setups.append(child("setup"))
        rep = child(mode)
        if "error" not in rep:
            if rep["failures"]:
                rep["error"] = f"experiment reported {rep['failures']} failed checks"
            else:
                rep["sha256"], rep["rows"], problem = check_csv(rep, want_rows)
                if problem:
                    rep["error"] = problem
        reps.append(rep)
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return reps


def mark_csv_mismatches(reps) -> None:
    """Fails every repetition whose CSV differs from the most common one."""
    shas = Counter(r["sha256"] for r in reps if "error" not in r)
    if shas:
        common = shas.most_common(1)[0][0]
        for rep in reps:
            if "error" not in rep and rep["sha256"] != common:
                rep["error"] = f"CSV sha256 {rep['sha256']} differs from {common}"


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "not a git checkout"
    except OSError:
        sha = "git not available"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "airpool")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas_threads": BLAS_ENV,
            "loadavg_start": os.getloadavg()}


def layer_metrics(rep: dict, untraced_run_s: float):
    """Derived per-layer values of one traced repetition, and its summary table."""
    spans = rep["spans"]
    table = tracing.summarize(spans)
    run_s = rep["run_s"]

    def stat(name, key):
        return table.get(name, {}).get(key, 0.0)

    by_id = {s["id"]: s for s in spans}
    max_config_for = sum(1 for s in spans if s["name"] == "optimizer.config_for"
                         and s["attrs"].get("mode") == "max")
    beta_draws = sum(1 for s in spans if s["name"] == "features.optimal_beta"
                     and s["parent"] is not None
                     and by_id[s["parent"]]["name"] == "optimizer.config_for")
    module_self = {m: sum(row["self_s"] for name, row in table.items()
                          if name.startswith(m + ".")) for m in tracing.TRACED_MODULES}
    traced_self = sum(module_self.values()) - stat("experiments.parse_config", "s")
    core = sum(module_self[m] for m in ("features", "analysis", "pooling", "optimizer"))
    train_s = stat("sensing.train_classifier", "s")
    metrics = {
        "features.draw.duplicate_ratio":
            stat("features.draw", "duplicate") / max(stat("features.draw", "calls"), 1.0),
        "optimizer.beta_cache.hit_ratio":
            1.0 - beta_draws / max_config_for if max_config_for else 0.0,
        "sensing.train.samples_per_s":
            stat("sensing.train_classifier", "samples") / train_s if train_s else 0.0,
        "trace.run_s": run_s,
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_s": run_s - untraced_run_s,
        "trace.counter_s": rep["counter_s"],
        "trace.untraced_s": run_s - traced_self,
        "trace.other_s": run_s - core,
        "trace.spans": float(len(spans)),
    }
    for module, value in module_self.items():
        metrics[f"{module}.self_s"] = value
    return metrics, table


def emit_layer(name: str, metrics: dict, table: dict) -> float:
    if name in metrics:
        return metrics[name]
    function, key = name.rsplit(".", 1)
    return table.get(function, {}).get(key, 0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "airpool", "__init__.py")):
        print(f"no airpool sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "csv_sha256_seed_commit.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    env = environment()
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        config = os.path.join(work, "experiment.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(config_text(args.workload, args.scale, args.seed, "out"))
        child = Child(work, config)
        warm = child("setup")  # fills __pycache__, so set-up is timed warm
        if "error" in warm:
            print(warm["error"], file=sys.stderr)
            return 1
        if args.trace:
            untraced = run_reps(child, "run", 0, args.workload, args.scale)
            reps = run_reps(child, "trace", args.seconds - untraced[0].get("run_s", 0.0),
                            args.workload, args.scale)
            reps = untraced + reps
        else:
            setups = []
            reps = run_reps(child, "run", args.seconds, args.workload, args.scale, setups)
            setups += [child("setup") for _ in range(SETUP_SAMPLES - len(setups))]
            reps += [s for s in setups if "error" in s]
        mark_csv_mismatches(reps)
        env["loadavg_end"] = os.getloadavg()
        env["versions"] = warm["versions"]
        print("environment " + json.dumps(env, sort_keys=True))

        ok = [r for r in reps if "error" not in r]
        for rep in reps:
            if "error" in rep:
                print(f"failed repetition: {rep['error']}", file=sys.stderr)
        if ok:
            sha = ok[0]["sha256"]
            ref = reference.get(args.scale, {}).get(args.workload, {}).get(str(args.seed))
            print("csv " + json.dumps({
                "workload": args.workload, "seed": args.seed, "csv_sha256": sha,
                "seed_commit_sha256": ref or "not recorded for this seed",
                "matches_seed_commit": None if ref is None else sha == ref}))
            print("result_values " + json.dumps(result_values(args.workload, ok[0]["rows"])))

        metrics = {}
        if ok and args.trace:
            traced = [r for r in ok if "spans" in r]
            untraced = [r for r in ok if "spans" not in r]
            if traced and untraced:
                traced.sort(key=lambda r: r["run_s"])
                median_rep = traced[(len(traced) - 1) // 2]
                values, table = layer_metrics(median_rep, untraced[0]["run_s"])
                print("trace_summary " + json.dumps({
                    "traced_run_s": values["trace.run_s"],
                    "self_s_by_module": {m: values[f"{m}.self_s"]
                                         for m in tracing.TRACED_MODULES},
                    "mc_layers_share_of_run": 1.0 - values["trace.other_s"]
                    / values["trace.run_s"],
                    "untraced_s": values["trace.untraced_s"]}))
                for spec in bench["per_layer"]:
                    metrics[spec["name"]] = {"value": emit_layer(spec["name"], values, table),
                                             "unit": spec["unit"]}
                with open(os.path.join(ROOT, ".perfbench_work",
                                       f"trace-{args.workload}.json"),
                          "w", encoding="utf-8") as fh:
                    json.dump({"environment": env, "spans": median_rep["spans"]}, fh)
        elif ok:
            values = {
                "run_s": statistics.median(r["run_s"] for r in ok),
                "setup_s": statistics.median(s["setup_s"] for s in setups if "error" not in s),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            }
            print("run_s_samples " + json.dumps([r["run_s"] for r in ok]))
            for spec in bench["end_to_end"]:
                metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        failed = sum(1 for r in reps if "error" in r)
        print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": len(reps),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
