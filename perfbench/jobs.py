"""One benchmark step per process; run.py starts these and reads their output.

    python3 perfbench/jobs.py <step> <json-args>

Steps:
  data   write the seeded IDX files with `write_digit_idx`
  setup  import, load the config and build the suite (training workloads) or
         import the read path (reopen), then exit; times process start to ready
  train  run the config's task sequence in the current directory, then check
         forget-freedom and that every task rebuilt with `task_view`
         reproduces its final-row test accuracy
  open   open a checkpoint in a closed loop for some seconds:
         `state_from_checkpoint`, `write_reports`, `task_view` for every
         task; check every open
  micro  time one forward and one forward+backward step at the desk shape

Each step prints one JSON object as its last line of standard output. Times
that start at process start use CLOCK_MONOTONIC, which the parent and child
share, so `spawned_at` from the parent marks the start.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

REPORTS = ("accuracy_matrix.csv", "capacity.csv", "scenario_manifest.txt",
           "summary.json")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_texts(out_dir) -> dict:
    """The four report files; summary.json without its generated_at line."""
    texts = {}
    for name in REPORTS:
        with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
            text = fh.read()
        if name == "summary.json":
            text = "".join(line for line in text.splitlines(keepends=True)
                           if '"generated_at"' not in line)
        texts[name] = text
    return texts


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


def _tracer(enabled):
    if not enabled:
        return None
    import tracing
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def step_data(a):
    from subnetpack import scenario
    scenario.write_digit_idx(a["out"], n_train=a["n_train"], n_test=a["n_test"],
                             seed=a["seed"])
    return {}


def step_setup(a):
    from subnetpack import config, runner
    if a["kind"] == "train":
        cfg = config.load_run_config(a["config"])
        runner.new_state(cfg)
    return {"setup_s": now() - a["spawned_at"]}


def step_train(a):
    from subnetpack import config, metrics, network, runner
    tracer = _tracer(a["trace"])
    if tracer:
        tracer.active = True
    cfg = config.load_run_config(a["config"])
    state = runner.new_state(cfg)
    start = now()
    runner.execute_run(state)
    run_s = now() - start
    if tracer:
        tracer.active = False
        tracer.dump("spans.json")

    final = state.matrix.final_row()
    replay_mismatches = []
    for t in sorted(state.store.tasks):
        task = state.suite.get_task(t)
        view, mask = runner.task_view(state, t)
        acc = network.evaluate(cfg.model, view, mask, task.x_test, task.y_test)
        if acc != final[t]:
            replay_mismatches.append([t, acc, final[t]])
    return {
        "setup_s": start - a["spawned_at"],
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "forget_violations": metrics.forget_check(state.matrix),
        "replay_mismatches": replay_mismatches,
        "checkpoint_bytes": os.path.getsize(state.checkpoint_path),
        "checkpoint_digest": file_digest(state.checkpoint_path),
    }


def _weights_digest(views) -> str:
    h = hashlib.blake2b(digest_size=16)
    for weights, mask in views:
        for arr in list(weights.weights) + list(weights.biases) + list(mask):
            h.update(arr.tobytes())
    return h.hexdigest()


def step_open(a):
    """Closed loop of opens; with trace, every second open is traced."""
    from subnetpack import runner
    tracer = _tracer(a["trace"])
    expected = report_texts(a["reports"])
    out_dir = "reopen_out"
    latencies, traced_latencies = [], []
    failures = []
    first_digest = a["digest"]
    started = now()
    i = 0
    while i == 0 or now() - started < a["seconds"]:
        traced = tracer is not None and i % 2 == 1
        t0 = now()
        if traced:
            tracer.op = i
            tracer.active = True
            span = tracer.open("bench.open", "bench")
        state = runner.state_from_checkpoint(a["checkpoint"], need_suite=False,
                                             output_dir=out_dir)
        runner.write_reports(state)
        views = [runner.task_view(state, t) for t in sorted(state.store.tasks)]
        if traced:
            tracer.close(span)
            tracer.active = False
        (traced_latencies if traced else latencies).append(now() - t0)

        digest = _weights_digest(views)
        first_digest = first_digest or digest
        bad = [name for name, text in report_texts(out_dir).items()
               if text != expected[name]]
        if digest != first_digest:
            bad.append("weights")
        if bad:
            failures.append([i, bad])
        i += 1
    if tracer:
        tracer.dump("spans.json")
    return {
        "setup_s": started - a["spawned_at"],
        "latencies": latencies,
        "traced_latencies": traced_latencies,
        "failures": failures,
        "digest": first_digest,
        "peak_rss_mb": peak_rss_mb(),
    }


def step_micro(a):
    """Median forward and forward+backward time of one desk-shaped step."""
    import numpy as np
    from subnetpack import network
    spec = network.ModelSpec(tuple(a["layers"]))
    rng = np.random.default_rng(a["seed"])
    weights = network.xavier_init(spec, a["seed"])
    mask = [rng.random(shape) < 0.5 for shape in spec.shapes]
    batch = rng.random((a["batch"], spec.layer_sizes[0]))
    labels = rng.integers(0, spec.layer_sizes[-1], a["batch"])

    def median_ms(fn, reps):
        for _ in range(10):
            fn()
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return 1e3 * sorted(times)[reps // 2]

    fwd = median_ms(lambda: network.forward(spec, weights, mask, batch), a["reps"])
    both = median_ms(lambda: network.loss_and_grads(spec, weights, mask, batch, labels),
                     a["reps"])
    pairs = sum(i * o for o, i in spec.shapes)
    hidden_pairs = sum(i * o for o, i in spec.shapes[1:])
    # matmul FLOPs only: forward, weight gradients, and hidden-layer deltas
    mflop = 2 * a["batch"] * (2 * pairs + hidden_pairs) / 1e6
    return {"forward_ms": fwd, "backward_ms": both - fwd, "step_mflop": mflop}


STEPS = {"data": step_data, "setup": step_setup, "train": step_train,
         "open": step_open, "micro": step_micro}


if __name__ == "__main__":
    args = json.loads(sys.argv[2])
    print(json.dumps(STEPS[sys.argv[1]](args)))
