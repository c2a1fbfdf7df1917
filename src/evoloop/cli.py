"""Command line interface.

Verbs:

  init RUN_DIR --env NAME     create a run directory with its config
  run RUN_DIR                 train; --resume continues a started run
  eval RUN_DIR                frozen evaluation on a question pool
  audit RUN_DIR               consistency checks over the run record
  stats RUN_DIR               per-iteration growth table (TSV)

Exit codes: 0 success, 1 validation or usage error, 2 integrity failure
(corrupt logs, failed audit checks), 3 a model backend call that failed or
broke its reply contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .audit import audit_run
from .engine import EngineConfig
from .envs import ENVS
from .errors import BackendError, EvoloopError, IntegrityError, ValidationError
from .runner import init_run, read_committed, run_eval, run_training, stats_rows
from .runstore import RunStore

STATS_HEADER = "iter\tskills\tfailure_memories\tsuccess_memories\tcoverage"


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors, not integrity errors
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evoloop", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_init = sub.add_parser("init", help="create a run directory")
    p_init.add_argument("run_dir")
    p_init.add_argument("--env", required=True, choices=sorted(ENVS))
    p_init.add_argument("--config", help="JSON file of config overrides")
    p_init.add_argument("--seed", type=int)
    p_init.add_argument("--iterations", type=int)
    p_init.add_argument("--pool", type=int, help="evolution pool size")

    p_run = sub.add_parser("run", help="train the run")
    p_run.add_argument("run_dir")
    p_run.add_argument("--iterations", type=int, help="target committed iterations")
    p_run.add_argument("--resume", action="store_true", help="continue a started run")

    p_eval = sub.add_parser("eval", help="frozen evaluation")
    p_eval.add_argument("run_dir")
    p_eval.add_argument(
        "--pool", choices=("held_out", "evolution"), default="held_out"
    )
    p_eval.add_argument(
        "--no-retrieval", action="store_true", help="skip exemplar bundles"
    )
    p_eval.add_argument("--tag", help="eval record name (eval-<tag>.json)")

    p_audit = sub.add_parser("audit", help="run consistency checks")
    p_audit.add_argument("run_dir")

    p_stats = sub.add_parser("stats", help="growth table")
    p_stats.add_argument("run_dir")
    return parser


def _cmd_init(args) -> int:
    overrides = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ValidationError(f"config file not found: {path}")
        try:
            overrides = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ValidationError(f"config file {path} is not JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ValidationError("config file must hold a JSON object")
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.pool is not None:
        overrides["pool_size"] = args.pool
    config = EngineConfig.from_dict(overrides)
    init_run(args.run_dir, config, args.env)
    print(f"initialized {args.run_dir} (env={args.env}, seed={config.seed})")
    return 0


def _cmd_run(args) -> int:
    store = RunStore(args.run_dir)
    store.require()
    committed = read_committed(store)
    done = committed[0]
    if done > 0 and not args.resume:
        raise ValidationError(
            f"{args.run_dir} already has {done} committed iterations; pass --resume"
        )

    def progress(report):
        print(
            f"iter {report.iteration:3d}  accuracy {report.accuracy:.4f}  "
            f"committed {report.committed_accuracy:.4f}  "
            f"skills {report.skills_count}  rollback {report.rollback}"
        )

    written = run_training(
        store, iterations=args.iterations, on_iteration=progress, committed=committed
    )
    total = done + written
    if written:
        print(f"done: {total} committed iterations")
    else:
        print(f"nothing to do: {total} committed iterations already present")
    return 0


def _cmd_eval(args) -> int:
    store = RunStore(args.run_dir)
    store.require()
    record = run_eval(
        store,
        pool=args.pool,
        retrieval=not args.no_retrieval,
        tag=args.tag,
    )
    print(
        f"pool {args.pool}  questions {record['questions']}  "
        f"accuracy {record['accuracy']:.4f}  retrieval "
        f"{'on' if record['retrieval_enabled'] else 'off'}"
    )
    return 0


def _cmd_audit(args) -> int:
    store = RunStore(args.run_dir)
    store.require()
    result = audit_run(store)
    for line in result.lines():
        print(line)
    if result.call_summary:
        print(
            "calls: train guidance "
            f"{result.call_summary['train_guidance_fraction']:.2%}, "
            f"inference guidance {result.call_summary['infer_guidance_calls']}"
        )
    if not result.passed:
        print("audit FAILED", file=sys.stderr)
        return 2
    print("audit passed")
    return 0


def _cmd_stats(args) -> int:
    store = RunStore(args.run_dir)
    store.require()
    print(STATS_HEADER)
    for row in stats_rows(store):
        print(
            f"{row['iter']}\t{row['skills']}\t{row['failure_memories']}\t"
            f"{row['success_memories']}\t{row['coverage']:.4f}"
        )
    return 0


_COMMANDS = {
    "init": _cmd_init,
    "run": _cmd_run,
    "eval": _cmd_eval,
    "audit": _cmd_audit,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.verb](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3
    except EvoloopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
