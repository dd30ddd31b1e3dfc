"""Spans around the program's public functions, recorded from outside it.

`install()` replaces each traced function with a wrapper at every place the
function is reachable by name: the module that defines it and every
`subnetpack` module that imported it with `from .x import f`. A span records
its name, the module the call went through (its site), start, end, parent and
operation id, plus optional counts taken from the call's arguments. Spans stay
in memory until `Tracer.dump` writes them out.

`job_metrics()` and `open_metrics()` turn span lists into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

JOB_LAYERS = ("scenario", "network", "pruning", "quantization", "store",
              "checkpoint", "runner", "metrics")
OPEN_LAYERS = ("quantization", "store", "checkpoint", "runner", "metrics", "bench")


class Tracer:
    def __init__(self):
        self.active = False
        self.op = 0
        self.spans = []  # [name, site, start, end, parent, op, counts]
        self._stack = []

    def open(self, name, site):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, site, time.perf_counter(), None, parent,
                           self.op, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index, counts=None):
        span = self.spans[index]
        span[3] = time.perf_counter()
        span[6] = counts
        self._stack.pop()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _train_counts(args, kwargs):
    x = args[3][0]
    cfg = args[4]
    steps_per_epoch = -(-len(x) // cfg.batch_size)
    return {"samples": cfg.epochs * len(x), "steps": cfg.epochs * steps_per_epoch}


def _save_counts(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


# (defining module, attribute path, span name, counts from the call's arguments)
TRACED = (
    ("config", "build_suite", "scenario.build_suite", None),
    ("scenario", "ScenarioSuite.get_task", "scenario.get_task", None),
    ("network", "train_masked", "network.train", _train_counts),
    ("network", "evaluate", "network.evaluate", None),
    ("pruning", "adaptive_prune", "pruning.adaptive_prune", None),
    ("pruning", "make_candidate", "pruning.candidate", None),
    ("quantization", "adaptive_quantize", "quantization.adaptive", None),
    ("quantization", "nonlinear_quantize", "quantization.bitwidth", None),
    ("quantization", "dequantize", "quantization.dequantize", None),
    ("store", "sample_candidate_full", "store.sample", None),
    ("store", "WeightSlotStore.commit", "store.commit", None),
    ("store", "WeightSlotStore.from_state_dict", "store.rebuild", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save", _save_counts),
    ("checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("runner", "new_state", "runner.new_state", None),
    ("runner", "execute_run", "runner.execute_run", None),
    ("runner", "execute_task", "runner.execute_task", None),
    ("runner", "task_view", "runner.task_view", None),
    ("runner", "state_from_checkpoint", "runner.state_from_checkpoint", None),
    ("runner", "write_reports", "runner.write_reports", None),
    ("metrics", "capacity_report", "metrics.capacity_report", None),
)


def _wrap(tracer, fn, name, site, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.open(name, site)
        done = None
        try:
            result = fn(*args, **kwargs)
            done = counts(args, kwargs) if counts else None
            return result
        finally:
            tracer.close(index, done)
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function at its definition and at each import site."""
    import subnetpack  # noqa: F401  (loads every submodule)

    modules = {name: mod for name, mod in sys.modules.items()
               if name.startswith("subnetpack.")}
    for mod_name, attr, span_name, counts in TRACED:
        home = modules[f"subnetpack.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = _wrap(tracer, raw.__func__, span_name, mod_name, counts)
                setattr(cls, meth, classmethod(wrapped))
            else:
                setattr(cls, meth, _wrap(tracer, raw, span_name, mod_name, counts))
            continue
        original = getattr(home, attr)
        for site_name, mod in modules.items():
            if getattr(mod, attr, None) is original:
                site = site_name.rsplit(".", 1)[1]
                setattr(mod, attr, _wrap(tracer, original, span_name, site, counts))


# -- analysis --------------------------------------------------------------------

def load_spans(paths):
    """Concatenate dumped span lists, shifting parent indices to match."""
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            part = json.load(fh)
        base = len(spans)
        for s in part:
            if s[4] >= 0:
                s[4] += base
        spans += part
    return spans


def _self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for name, site, start, end, parent, op, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [s[3] - s[2] - c for s, c in zip(spans, child_time)]


def _evaluate_caller(span, spans):
    """Which stage called network.evaluate, from its import site and parent."""
    site, parent = span[1], span[4]
    parent_name = spans[parent][0] if parent >= 0 else ""
    if site == "network":
        return "train"
    if site == "pruning":
        return "candidate" if parent_name == "pruning.candidate" else "winner"
    if site == "quantization":
        return "quant"
    if site == "runner" and parent_name == "runner.execute_task":
        return "reeval"
    return "other"


def job_metrics(spans) -> dict:
    """Totals over one traced task sequence (setup plus execute_run)."""
    selfs = _self_times(spans)

    def total(name):
        return sum(s[3] - s[2] for s in spans if s[0] == name)

    def calls(name, pred=lambda s: True):
        return sum(1 for s in spans if s[0] == name and pred(s))

    def counted(name, key):
        return sum(s[6][key] for s in spans if s[0] == name and s[6])

    def outside_rebuild(s):
        return s[4] < 0 or spans[s[4]][0] != "store.rebuild"

    commits = calls("store.commit", outside_rebuild)
    tasks = max(commits, 1)
    callers = {}
    eval_s = 0.0
    for s in spans:
        if s[0] == "network.evaluate":
            who = _evaluate_caller(s, spans)
            callers[who] = callers.get(who, 0) + 1
            eval_s += s[3] - s[2]

    # re-evaluation: from the commit's end to the checkpoint save in each task
    reeval_s = 0.0
    for i, s in enumerate(spans):
        if s[0] != "runner.execute_task":
            continue
        kids = [k for k in spans if k[4] == i]
        commit_end = next(k[3] for k in kids if k[0] == "store.commit")
        save_start = next(k[2] for k in kids if k[0] == "checkpoint.save")
        reeval_s += save_start - commit_end

    train_s = total("network.train")
    steps = counted("network.train", "steps")
    winner_s = sum(s[3] - s[2] for s in spans
                   if s[1] == "pruning" and s[4] >= 0
                   and spans[s[4]][0] == "pruning.adaptive_prune"
                   and s[0] in ("network.train", "network.evaluate"))
    out = {
        "runner.execute_run_s": total("runner.execute_run"),
        "scenario.build_suite_s": total("scenario.build_suite"),
        "scenario.get_task_calls": calls("scenario.get_task"),
        "scenario.get_task_s": total("scenario.get_task"),
        "network.train_calls": calls("network.train"),
        "network.train_s": train_s,
        "network.sgd_samples": counted("network.train", "samples"),
        "network.step_ms": 1e3 * train_s / steps if steps else 0.0,
        "network.evaluate_calls": sum(callers.values()),
        "network.evaluate_s": eval_s,
        "pruning.candidates": calls("pruning.candidate"),
        "pruning.candidate_s": total("pruning.candidate"),
        "pruning.winner_s": winner_s,
        "pruning.rounds_per_task": calls("pruning.adaptive_prune") / tasks,
        "quantization.adaptive_s": total("quantization.adaptive"),
        "quantization.bitwidths_tried": calls("quantization.bitwidth"),
        "quantization.bitwidths_per_task": calls("quantization.bitwidth") / tasks,
        "store.sample_s": total("store.sample"),
        "store.commit_s": sum(s[3] - s[2] for s in spans
                              if s[0] == "store.commit" and outside_rebuild(s)),
        "checkpoint.save_calls": calls("checkpoint.save"),
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.bytes_written": counted("checkpoint.save", "bytes"),
        "runner.reeval_calls": callers.get("reeval", 0),
        "runner.reeval_s": reeval_s,
        "runner.task_view_s": total("runner.task_view"),
    }
    for who in ("candidate", "winner", "quant", "train"):
        out[f"network.evaluate_{who}_calls"] = callers.get(who, 0)
    for layer in JOB_LAYERS:
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs)
                                     if s[0].split(".", 1)[0] == layer)
    return out


def open_metrics(spans, n_ops) -> dict:
    """Means per traced open of the read-path layers."""
    selfs = _self_times(spans)
    n = max(n_ops, 1)

    def per_op(name):
        return sum(s[3] - s[2] for s in spans if s[0] == name) / n

    out = {
        "runner.open_traced_ms": 1e3 * per_op("bench.open"),
        "checkpoint.load_s": per_op("checkpoint.load"),
        "store.rebuild_s": per_op("store.rebuild"),
        "runner.write_reports_s": per_op("runner.write_reports"),
        "metrics.capacity_report_s": per_op("metrics.capacity_report"),
        "quantization.dequantize_calls": sum(
            1 for s in spans if s[0] == "quantization.dequantize") / n,
        "quantization.dequantize_s": per_op("quantization.dequantize"),
    }
    for layer in OPEN_LAYERS:
        out[f"{layer}.open_self_ms"] = 1e3 * sum(
            t for s, t in zip(spans, selfs) if s[0].split(".", 1)[0] == layer) / n
    return out
