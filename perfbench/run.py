"""subnetpack benchmark: task-sequence runs and checkpoint reopens.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
Every step runs in its own child process (jobs.py), one at a time, inside
`perfbench/.work/<workload>/`, which is wiped at the start of each run. The
program receives only the IDX files `write_digit_idx(seed=--seed)` writes
(6000 train / 1000 test digits) and a config file. The config names the data
and `run.output_dir` by the same relative paths on every run, because the
checkpoint embeds the config text.

Workloads, each a closed loop driven by one client:
  desk      3 permuted-digit tasks, population 16, 1 short and 10 full
            epochs, every mask at sparsity 0.65. The task sequence runs at
            least three times and until --seconds have passed.
  long-seq  10 tasks, population 4, 1 short and 8 full epochs, sparsity 0.8.
            The task sequence runs at least twice and until --seconds.
  reopen    one long-seq task sequence writes the checkpoint; then only the
            opens repeat, for --seconds.
Each task sequence is followed by 4 s of opens of the first one's checkpoint
(reopen: each 4 s batch of opens follows the previous one), and set-up probes
(a process that imports, loads the config and builds the suite, or on reopen
imports the read path) run before each step and at the end, so that every
kind of measurement samples the whole run.

The first two task sequences of a run use `run.seed = --seed`, so the second
checks that a repeat is byte-identical; later ones use their own run seed, so
that the quality metrics are medians over several seeds. An open is
`state_from_checkpoint(need_suite=False)`, `write_reports` and `task_view` for
every task: the read path of `report`, `inspect-checkpoint` and replay.

End-to-end metrics (--trace 0), all on every workload:
  run_s              median wall time of one task sequence, first task to
                     reports written (reopen: the producing run)
  setup_s            median time from process start to the first task, or to
                     the first open on reopen, over probes and measured steps
  peak_rss_mb        peak RSS of a task-sequence process (reopen: the process
                     doing the opens)
  checkpoint_bytes, lifelong_accuracy, capacity_bits
                     medians over the run seeds (reopen: read back by the opens)
  open_ms_min        latency of the fastest untraced open of the run: the cost
                     of an open when the host leaves the cores alone. On a
                     shared host the speed of the cores drifts by up to a
                     third over seconds to minutes, so the open latencies of
                     a run mix a fast and a slow mode in changing shares, and
                     every percentile between the two modes (the median, p10,
                     p90) moved by up to 25-28% between runs of the same code;
                     the minimum moved by 3-10%. The traced run reports the
                     median and p90 (runner.open_ms_p50, runner.open_ms_p90)

Correctness is counted per operation (task sequence, open):
  - `forget_check` is empty, and every task rebuilt with `task_view`
    reproduces its final-row test accuracy exactly;
  - the repeat of a seed writes the same report files (summary.json apart
    from its generated_at line) and the same checkpoint bytes;
  - every open writes the producing run's reports and rebuilds the same
    weights as the run's first open.

With --trace 1 the second task sequence and every second open are traced, and
the last line holds per-layer metrics: totals over the traced task sequence
and means per traced open, from spans around the program's public functions
(tracing.py), plus a step microbenchmark. Names and units come from
BENCHMARK.json. An environment line precedes the result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import tracing  # noqa: E402

RUN_BUDGET_S = 170.0
PROBES_PER_STEP = 2  # set-up probes before each task sequence or open batch
DATA = {"n_train": 6000, "n_test": 1000}
MICRO = {"layers": [784, 100, 10], "batch": 128, "reps": 200}

BASE_CONFIG = [
    "scenario.kind = permuted",
    "scenario.train_images = ../data/train-images.idx",
    "scenario.train_labels = ../data/train-labels.idx",
    "scenario.test_images = ../data/test-images.idx",
    "scenario.test_labels = ../data/test-labels.idx",
    "model.layers = 784,100,10",
    "run.output_dir = out",
]
DESK = [
    "scenario.n_tasks = 3",
    "prune.v_min = 0.65",
    "prune.v_max = 0.65",
    "prune.short_epochs = 1",
    "prune.full_epochs = 10",
    "train.lr_initial = 0.1",
]
LONG_SEQ = [
    "scenario.n_tasks = 10",
    "prune.population = 4",
    "prune.short_epochs = 1",
    "prune.full_epochs = 8",
    "prune.v_min = 0.8",
    "prune.v_max = 0.8",
    "train.lr_initial = 0.1",
]


OPEN_BATCH_S = 4  # seconds of each batch of opens


@dataclass(frozen=True)
class Workload:
    config: list
    min_runs: int  # task sequences; more run until --seconds have passed
    # True: the task sequence runs once, to write the checkpoint, and only
    # batches of opens repeat for --seconds; set-up, peak RSS and the quality
    # metrics then come from the processes doing the opens.
    reopen: bool = False


WORKLOADS = {
    "desk": Workload(DESK, 3),
    "long-seq": Workload(LONG_SEQ, 2),
    "reopen": Workload(LONG_SEQ, 1, reopen=True),
}


class StepFailed(Exception):
    pass


class Bench:
    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + ([self.env["PYTHONPATH"]]
                                           if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.detail = {}

    def step(self, name, args, cwd):
        """Run one jobs.py step in `cwd` (relative to the work dir)."""
        cwd = os.path.join(self.work, cwd)
        os.makedirs(cwd, exist_ok=True)
        remaining = self.deadline - jobs.now()
        if remaining <= 1.0:
            raise StepFailed(f"{name}: run budget of {RUN_BUDGET_S:.0f} s used up")
        args = dict(args, spawned_at=jobs.now())
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "jobs.py"), name, json.dumps(args)],
                cwd=cwd, env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise StepFailed(f"{name}: timed out") from None
        if proc.returncode != 0:
            raise StepFailed(f"{name} in {cwd}: exit code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def environment():
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
    }


def load_metric_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_seed(seed, k):
    """Run seed of the k-th task sequence: the first two share the workload
    seed (the repeat check), later ones get their own so that the quality
    metrics are medians over several seeds."""
    return seed if k < 2 else seed * 100 + k


def write_config(bench, wl, rseed):
    """Config file for run seed `rseed`; returns its path from a step's cwd."""
    name = f"run-{rseed}.cfg"
    with open(os.path.join(bench.work, name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(BASE_CONFIG + [f"run.seed = {rseed}"] + wl.config) + "\n")
    return os.path.join("..", name)


def task_sequence(bench, wl, seed, k, trace, first):
    """Run the k-th task sequence in a fresh process and check it; in trace
    mode the second one is traced. `first` is the first run's result."""
    traced = trace and k == 1
    rseed = run_seed(seed, k)
    res = bench.step("train", {"config": write_config(bench, wl, rseed),
                               "trace": traced}, f"run{k}")
    out = os.path.join(bench.work, f"run{k}", "out")
    res.update(dir=f"run{k}", seed=rseed, traced=traced, reports=jobs.report_texts(out))
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        res["summary"] = json.load(fh)
    problems = []
    if res["forget_violations"]:
        problems.append(f"forget_check {res['forget_violations']}")
    if res["replay_mismatches"]:
        problems.append(f"task_view replay {res['replay_mismatches']}")
    if k == 1 and res["reports"] != first["reports"]:
        problems.append("reports differ from the first run of this seed")
    if k == 1 and res["checkpoint_digest"] != first["checkpoint_digest"]:
        problems.append("checkpoint differs from the first run of this seed")
    bench.record(not problems, f"run{k} (seed {rseed}): {'; '.join(problems)}")
    return res


def open_batch(bench, producer, b, trace, digest):
    """OPEN_BATCH_S seconds of opens of the producer's checkpoint, each one
    checked against the producer's reports and the first open's weights."""
    opened = bench.step("open", {
        "checkpoint": os.path.join(producer, "checkpoint.bin"),
        "reports": producer,
        "seconds": OPEN_BATCH_S,
        "trace": trace,
        "digest": digest,
    }, f"open{b}")
    failures = dict(opened["failures"])
    n = len(opened["latencies"]) + len(opened["traced_latencies"])
    for i in range(n):
        bench.record(i not in failures, f"open{b} #{i}: differs in {failures.get(i)}")
    return opened


def measure(bench, wl, seed, seconds, trace):
    """Set-up probes, task sequences and open batches, interleaved so that
    each of them samples the whole run; see Workload. Returns the task
    sequences, the open batches and the set-up times."""
    kind = "open" if wl.reopen else "train"
    probe_cfg = write_config(bench, wl, seed)
    runs, batches, probes = [], [], []

    def probe():
        for _ in range(PROBES_PER_STEP):
            probes.append(bench.step("setup", {"kind": kind, "config": probe_cfg},
                                     f"probe{len(probes)}")["setup_s"])

    started = jobs.now()
    while True:
        probe()
        if not (wl.reopen and runs):
            runs.append(task_sequence(bench, wl, seed, len(runs), trace,
                                      runs[0] if runs else None))
            if wl.reopen:
                started = jobs.now()  # reopen times its opens only
        producer = os.path.join("..", runs[0]["dir"], "out")
        batches.append(open_batch(bench, producer, len(batches), trace,
                                  batches[0]["digest"] if batches else None))
        if len(runs) >= wl.min_runs and (trace or jobs.now() - started >= seconds):
            break
    probe()
    own = [b["setup_s"] for b in batches] if wl.reopen else [r["setup_s"] for r in runs]
    return runs, batches, probes + own


def run_workload(bench, wl, seed, seconds, trace):
    """Run every step of one workload; returns the metrics to print."""
    bench.step("data", dict(DATA, out="data", seed=seed), ".")
    runs, batches, setups = measure(bench, wl, seed, seconds, trace)
    latencies = [x for b in batches for x in b["latencies"]]
    traced_latencies = [x for b in batches for x in b["traced_latencies"]]
    bench.detail.update(run_s=[r["run_s"] for r in runs], setup_s=setups,
                        run_seeds=[r["seed"] for r in runs],
                        opens=len(latencies) + len(traced_latencies),
                        open_s=[b["latencies"] for b in batches])
    if trace:
        return trace_metrics(bench, runs, len(batches), latencies, traced_latencies, seed)

    distinct = [r for k, r in enumerate(runs) if k != 1]
    if wl.reopen:
        # the reports measured are the ones the opens wrote
        with open(os.path.join(bench.work, "open0", "reopen_out", "summary.json"),
                  encoding="utf-8") as fh:
            summaries = [json.load(fh)]
        peak_rss = statistics.median(b["peak_rss_mb"] for b in batches)
    else:
        summaries = [r["summary"] for r in distinct]
        peak_rss = statistics.median(r["peak_rss_mb"] for r in runs)
    return {
        "run_s": statistics.median(r["run_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        "checkpoint_bytes": statistics.median(r["checkpoint_bytes"] for r in distinct),
        "lifelong_accuracy": statistics.median(s["lifelong_accuracy"] for s in summaries),
        "capacity_bits": statistics.median(s["capacity"]["total_bits"] for s in summaries),
        "open_ms_min": 1e3 * min(latencies),
    }


def trace_metrics(bench, runs, n_batches, latencies, traced_latencies, seed):
    traced = [r for r in runs if r["traced"]]
    spans = tracing.load_spans(
        [os.path.join(bench.work, r["dir"], "spans.json") for r in traced])
    open_spans = tracing.load_spans(
        [os.path.join(bench.work, f"open{b}", "spans.json") for b in range(n_batches)])
    micro = bench.step("micro", dict(MICRO, seed=seed), "micro")
    out = tracing.job_metrics(spans)
    out.update(tracing.open_metrics(open_spans, len(traced_latencies)))
    out.update({f"network.{k}": v for k, v in micro.items()})
    # the traced run repeats the first run's seed, so the two did the same work
    out["trace.run_overhead_pct"] = (
        100.0 * (traced[0]["run_s"] / runs[0]["run_s"] - 1.0) if traced else 0.0)
    deciles = statistics.quantiles([1e3 * v for v in latencies], n=10,
                                   method="inclusive")
    out["runner.open_ms_p50"] = deciles[4]
    out["runner.open_ms_p90"] = deciles[8]
    out["trace.open_overhead_pct"] = 100.0 * (
        statistics.median(traced_latencies) / statistics.median(latencies) - 1.0)
    out["trace.spans"] = len(spans) + len(open_spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running step
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "subnetpack", "__init__.py")):
        print(f"no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    units = load_metric_units(args.trace)

    deadline = jobs.now() + RUN_BUDGET_S
    work = os.path.join(HERE, ".work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(work, deadline)
    env = environment()
    try:
        values = run_workload(bench, WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    except StepFailed as exc:
        print(f"benchmark step failed: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not "
                         "match BENCHMARK.json")
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "environment": env, "detail": bench.detail, **result},
                  fh, indent=1)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
