"""One measured process: `python3 child.py MODE CONFIG RESULT_JSON`.

MODE is `setup` (import airpool and parse the config, then exit), `run`
(also time one `run_experiment` call) or `trace` (the same run with every
public function of the traced modules wrapped; see tracing.py). The
process imports airpool from the `src/` directory of the checkout this
file sits in, never from an installed copy, and writes its measurements
to RESULT_JSON. A run that raises leaves no result file and exits non-zero.
"""

import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def peak_rss_mb() -> float:
    """This process's own peak RSS. Not ru_maxrss: Linux carries the
    parent's peak over fork and exec into it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def main(mode: str, config_path: str, result_path: str) -> int:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import airpool
    from airpool import experiments
    if not os.path.abspath(airpool.__file__).startswith(src + os.sep):
        raise ImportError(f"airpool was imported from {airpool.__file__}, not {src}")

    recorder = None
    if mode == "trace":
        import tracing
        recorder = tracing.Recorder(run_id=os.path.basename(result_path))
        tracing.install(recorder)
    cfg = experiments.parse_config(config_path)
    # perf_counter is CLOCK_MONOTONIC, shared by all processes on the host,
    # so the parent can subtract its spawn time from this.
    out = {"ready_at": time.perf_counter()}
    if mode != "setup":
        clock = recorder.now if recorder else time.perf_counter
        t0 = clock()
        result, paths = experiments.run_experiment(cfg)
        out["run_s"] = clock() - t0
        out["failures"] = result.failures
        out["csv"] = paths["csv"]
        out["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        out["counter_s"] = recorder.counter_s
        out["spans"] = recorder.records()
    import numpy
    out["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("setup", "run", "trace"):
        sys.exit("usage: child.py setup|run|trace CONFIG RESULT_JSON")
    sys.exit(main(*sys.argv[1:]))
