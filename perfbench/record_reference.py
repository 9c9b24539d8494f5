"""Record the CSV sha256 of every workload for a range of seeds.

    python3 perfbench/record_reference.py --scale full --seeds 0-12

Writes csv_sha256_seed_commit.json next to this file. Run it only on the
seed commit (the code before any change that could alter results): run.py
compares each run's CSV against these values and prints the result, so a
changed hash is visible next to the hash the seed commit wrote.
"""

import argparse
import json
import os
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", choices=("full", "tiny"), required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-12")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    path = os.path.join(run.HERE, "csv_sha256_seed_commit.json")
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    work = os.path.join(run.ROOT, ".perfbench_work", f"reference-{os.getpid()}")
    os.makedirs(work)
    failed = 0
    try:
        for workload in sorted(run.WORKLOADS):
            for seed in range(lo, hi + 1):
                config = os.path.join(work, "experiment.ini")
                with open(config, "w", encoding="utf-8") as fh:
                    fh.write(run.config_text(workload, args.scale, seed, "out"))
                reps = run.run_reps(run.Child(work, config), "run", 0, workload, args.scale)
                if "error" in reps[0]:
                    print(f"{workload} seed {seed}: {reps[0]['error']}", file=sys.stderr)
                    failed += 1
                    continue
                table.setdefault(args.scale, {}).setdefault(workload, {})[str(seed)] = \
                    reps[0]["sha256"]
                print(workload, seed, reps[0]["sha256"], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
