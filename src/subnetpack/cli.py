"""Command-line entry point.

Subcommands: run, resume, report, inspect-checkpoint, make-data. Exit codes:
0 success, 2 bad configuration or input data, an input file that cannot be
read, or an output directory that cannot be created (found before any task
trains), 3 capacity exhausted,
4 corrupt or unsupported checkpoint, or `report` on one with no completed
task, 5 a training worker process died, 130 interrupted (Ctrl-C); a run
or resume names the checkpoint it last wrote to.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .config import load_run_config
from .errors import (CapacityExhausted, CheckpointError, ConfigError, IdxFormatError,
                     WorkerDied)
from .metrics import lifelong_accuracy
from .runner import execute_run, new_state, state_from_checkpoint, write_reports
from .scenario import write_digit_idx

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_CHECKPOINT = 4
EXIT_WORKER = 5
EXIT_INTERRUPTED = 130


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subnetpack",
        description="Forget-free continual learning on bit-budgeted weight slots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a full scenario run")
    run_p.add_argument("--config", required=True, help="key=value config file")
    run_p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    resume_p = sub.add_parser("resume", help="continue a checkpointed run")
    resume_p.add_argument("--checkpoint", required=True)
    resume_p.add_argument("--output-dir", default=None,
                          help="redirect reports and new checkpoints")

    report_p = sub.add_parser("report", help="re-emit reports from a checkpoint")
    report_p.add_argument("--checkpoint", required=True)
    report_p.add_argument("--output-dir", default=None)

    inspect_p = sub.add_parser("inspect-checkpoint",
                               help="print a checkpoint's contents")
    inspect_p.add_argument("--checkpoint", required=True)

    data_p = sub.add_parser("make-data",
                            help="generate procedural digit IDX files")
    data_p.add_argument("--out", required=True, help="output directory")
    for name in ("n_train", "n_test", "seed", "noise"):
        default = inspect.signature(write_digit_idx).parameters[name].default
        data_p.add_argument("--" + name.replace("_", "-"), type=type(default),
                            default=default)
    return parser


def _print_outcome(state) -> None:
    print(f"tasks completed: {state.matrix.n_episodes}")
    print(f"lifelong accuracy: {lifelong_accuracy(state.matrix):.4f}")
    widths = " ".join(f"{t}:{state.store.tasks[t].psi}" for t in sorted(state.store.tasks))
    print(f"bit-widths per task: {widths}")
    print(f"reports in: {state.config.output_dir}")


def _execute(args, state) -> int:
    args.saves_to = state.checkpoint_path  # named if the run is interrupted
    execute_run(state)
    _print_outcome(state)
    return EXIT_OK


def _cmd_run(args) -> int:
    return _execute(args, new_state(load_run_config(args.config, args.set)))


def _cmd_resume(args) -> int:
    return _execute(args, state_from_checkpoint(args.checkpoint, need_suite=True,
                                                output_dir=args.output_dir))


def _cmd_report(args) -> int:
    state = state_from_checkpoint(args.checkpoint, need_suite=False,
                                  output_dir=args.output_dir)
    if state.matrix.n_episodes == 0:
        raise CheckpointError(f"{args.checkpoint}: no task has completed, so "
                              "there is nothing to report")
    paths = write_reports(state)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    state = state_from_checkpoint(args.checkpoint, need_suite=False)
    print(f"format version: {state.format_version}")
    print(f"mode: {state.config.mode}")
    print(f"model layers: {','.join(str(v) for v in state.config.model.layer_sizes)}")
    print(f"next task: {state.next_task}")
    sizes = {t: state.store.packed_bytes(t) for t in sorted(state.store.tasks)}
    for t, (mask_bytes, code_bytes) in sizes.items():
        alloc = state.store.tasks[t]
        used = sum(alloc.active_counts())
        print(f"task {t}: psi={alloc.psi} slots={used} "
              f"val_acc={state.tasks[t].q_quant:.4f} "
              f"bytes={mask_bytes + code_bytes} (mask {mask_bytes}, codes {code_bytes})")
    masks = sum(m for m, _ in sizes.values())
    codes = sum(c for _, c in sizes.values())
    print(f"store bytes: {masks + codes} (masks {masks}, codes {codes})")
    for e, row in enumerate(state.matrix.rows):
        print(f"episode {e}: " + " ".join(f"{v:.4f}" for v in row))
    return EXIT_OK


def _cmd_make_data(args) -> int:
    try:
        paths = write_digit_idx(args.out, n_train=args.n_train, n_test=args.n_test,
                                seed=args.seed, noise=args.noise)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "resume": _cmd_resume,
    "report": _cmd_report,
    "inspect-checkpoint": _cmd_inspect,
    "make-data": _cmd_make_data,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, IdxFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityExhausted as exc:
        print(f"capacity exhausted in layers {list(exc.layers)}: {exc}",
              file=sys.stderr)
        return EXIT_CAPACITY
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except WorkerDied as exc:
        print(f"{exc}; the last checkpoint can be resumed", file=sys.stderr)
        return EXIT_WORKER
    except KeyboardInterrupt:
        saves_to = getattr(args, "saves_to", None)
        print("interrupted" + (f"; the last checkpoint saved, if any, is {saves_to}"
                               if saves_to else ""), file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
