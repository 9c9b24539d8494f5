"""Outside-in span recorder for airpool's public functions.

`install` wraps every public function of the traced modules, and the
`FeatureModel.draw` method, and rebinds each wrapper under every name that
holds the original in any loaded airpool module, so a function imported by
name (`from .pooling import pool_noisy_and_clean`) is traced too.

A span is one JSON object with the keys `id`, `parent`, `run`, `name`,
`start`, `end` and `attrs`: the record an in-program recorder can write
unchanged. Times are seconds on a clock that stops while the recorder
computes counters (content hashes of draws, file sizes), so counter work
is neither in a span nor in the traced run time; it is reported on its own
as `counter_s`.

`summarize` turns spans into per-function totals: calls, inclusive time
(a call nested inside a call of the same function is not counted twice)
and self time (duration minus the time its direct children cover).
"""

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("features", "pooling", "analysis", "optimizer", "sensing",
                  "specfun", "experiments")


class Recorder:
    """Keeps spans in memory; single-threaded, like the runs it traces."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [id, parent, name, start, end, attrs]
        self.counter_s = 0.0     # time spent computing attrs, kept off the clock
        self.seen_draws = set()
        self._stack = []

    def now(self) -> float:
        return time.perf_counter() - self.counter_s

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = self.now()
                stack.pop()
            if attrs is not None:
                t0 = time.perf_counter()
                span[5] = attrs(self, fn, args, kwargs, result)
                self.counter_s += time.perf_counter() - t0
            return result

        return traced

    def records(self):
        return [{"id": s[0], "parent": s[1], "run": self.run_id, "name": s[2],
                 "start": s[3], "end": s[4], "attrs": s[5] or {}}
                for s in self.spans]


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _draw_attrs(rec, fn, args, kwargs, result):
    digest = hashlib.sha1(result.tobytes()).digest()
    duplicate = digest in rec.seen_draws
    rec.seen_draws.add(digest)
    return {"bytes": int(result.size) * 8, "duplicate": duplicate}


def _trials_attrs(rec, fn, args, kwargs, result):
    return {"trials": int(result.trials)}


def _config_for_attrs(rec, fn, args, kwargs, result):
    return {"mode": _arg(fn, args, kwargs, "mode").kind}


def _train_attrs(rec, fn, args, kwargs, result):
    train_idx, _ = _arg(fn, args, kwargs, "dataset").split()
    return {"samples": len(train_idx) * result.epochs}


def _write_attrs(rec, fn, args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result.values() if p)}


COUNTERS = {
    "features.max_second_moment": _trials_attrs,
    "analysis.estimate_errors": _trials_attrs,
    "optimizer.config_for": _config_for_attrs,
    "sensing.train_classifier": _train_attrs,
    "experiments.write_outputs": _write_attrs,
}


def install(recorder: Recorder) -> None:
    """Trace the public functions of TRACED_MODULES and FeatureModel.draw."""
    wrappers = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"airpool.{short}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                name = f"{short}.{attr}"
                wrappers[obj] = recorder.wrap(name, obj, COUNTERS.get(name))
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "airpool" or mod_name.startswith("airpool."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
    feature_model = importlib.import_module("airpool.features").FeatureModel
    feature_model.draw = recorder.wrap("features.draw", feature_model.draw, _draw_attrs)


def summarize(spans):
    """Per-name totals: calls, s (inclusive), self_s, and summed attrs."""
    by_id = {s["id"]: s for s in spans}
    child_s = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    table = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = table[s["name"]]
        dur = s["end"] - s["start"]
        row["calls"] += 1
        row["self_s"] += dur - child_s[s["id"]]
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != s["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            row["s"] += dur
        for key, value in s["attrs"].items():
            if isinstance(value, (bool, int, float)):
                row[key] += float(value)
    return {name: dict(row) for name, row in table.items()}
