"""Command-line interface.

    tune {rs,dehb,pbt} --space F --objective NAME|cmd:... --budget-runs N
         --tuning-seeds 0,1,2,3,4 --test-seeds 5..14 --repetitions R
         --rng-seed S --workers W --out DIR
    report {checklist,ranks,incumbents,trials} DIR...
    sweep --space F --objective NAME|cmd:... --param NAME --values ... --seeds ...
          --budget B --base K=V --out DIR

``report`` with one DIR writes DIR/exports/ and prints the paths; with
several DIRs it prints the combined report to stdout. ``trials`` takes one
DIR. ``sweep`` journals into DIR/sweeps/ and writes its table to DIR; run
again with the same arguments, it resumes from that journal. As with
``tune``, a rerun whose arguments differ is refused. AUTOTUNE_RUN_DIR
overrides --out. Results go to stdout; errors, and warnings the ``autotune``
logger gives (such as torn records a resume drops), go to stderr. Exit
codes: 0 success, 2 usage error, 3 objective failure, 4 journal corruption.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from ._version import __version__
from .journal import JournalCorrupt, JournalError, space_digest
from .objectives import EvaluationError, ObjectiveSpec, make_objective
from .protocol import MethodSpec, SeedPlan
from .runner import NoIncumbentError
from .runs import (
    TuneExports,
    default_run_dir,
    export,
    opened_run,
    render,
    rep_dir,
    repetition_dirs,
    run_repetition,
)
from .space import Configuration, SpaceError, from_unit, parse_space
from .sweeps import SweepSpec, run_sweep, sweep_label

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OBJECTIVE = 3
EXIT_CORRUPT = 4


class UsageError(ValueError):
    pass


def parse_seed_list(text: str) -> list[int]:
    """Accept '0,1,2' and '5..14' (inclusive), or a mix; a range runs up."""
    seeds: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo, hi = (int(end) for end in chunk.split("..", 1))
            if hi < lo:
                raise UsageError(f"seed range {chunk!r} runs down; write it as {hi}..{lo}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(chunk))
    if not seeds:
        raise UsageError(f"no seeds in {text!r}")
    return seeds


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"expected key=value, got {pair!r}")
        k, v = pair.split("=", 1)
        try:
            out[k] = int(v)
        except ValueError:
            try:
                out[k] = float(v)
            except ValueError:
                out[k] = v
    return out


def _objective_spec(name: str, params: dict) -> ObjectiveSpec:
    if name.startswith("cmd:"):
        return ObjectiveSpec("external_command", {"command": name[len("cmd:") :], **params})
    return ObjectiveSpec(name, params)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", required=True, help="space definition file")
    p.add_argument("--objective", required=True, help="objective name or cmd:<command>")
    p.add_argument("--objective-param", action="append", default=[], metavar="K=V")
    p.add_argument("--budget-runs", type=int, default=16)
    p.add_argument("--tuning-seeds", default="0,1,2,3,4")
    p.add_argument("--test-seeds", default="5..14")
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes that evaluate trials, this one included; at most the CPU count",
    )
    p.add_argument("--out", default=None, help="run directory (AUTOTUNE_RUN_DIR overrides)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="autotune")
    parser.add_argument("--version", action="version", version=f"autotune {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="run an optimizer")
    tsub = tune.add_subparsers(dest="method", required=True)

    rs = tsub.add_parser("rs", help="random search at full budget")
    _add_common(rs)

    dehb = tsub.add_parser("dehb", help="differential evolution on a fidelity ladder")
    _add_common(dehb)
    dehb.add_argument("--eta", type=float, default=1.9)
    dehb.add_argument("--min-budget", type=float, default=0.01)
    dehb.add_argument("--iterations", type=int, default=None)
    dehb.add_argument("--de-f", type=float, default=0.5, dest="de_f")
    dehb.add_argument("--de-cr", type=float, default=0.5, dest="de_cr")

    pbt = tsub.add_parser("pbt", help="population-based training")
    _add_common(pbt)
    pbt.add_argument("--explore", choices=["perturb", "gp"], default="perturb")
    pbt.add_argument("--population", type=int, default=None)
    pbt.add_argument("--intervals", type=int, default=20)
    pbt.add_argument("--quantile", type=float, default=0.125)
    pbt.add_argument("--warmstart-runs", type=int, default=0)
    pbt.add_argument("--restart-patience", type=int, default=3)
    pbt.add_argument("--explore-prob", type=float, default=1.0)
    pbt.add_argument("--factor-up", type=float, default=1.2)
    pbt.add_argument("--factor-down", type=float, default=0.8)
    pbt.add_argument("--resample-prob", type=float, default=0.25)

    report = sub.add_parser("report", help="export reports from run directories")
    report.add_argument("kind", choices=["checklist", "ranks", "incumbents", "trials"])
    report.add_argument("dirs", nargs="+", metavar="DIR")

    sweep = sub.add_parser("sweep", help="vary one hyperparameter over a value list")
    sweep.add_argument("--space", required=True)
    sweep.add_argument("--objective", required=True)
    sweep.add_argument("--objective-param", action="append", default=[], metavar="K=V")
    sweep.add_argument("--param", required=True)
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.add_argument("--seeds", default="0,1,2,3,4")
    sweep.add_argument("--budget", type=float, default=1.0)
    sweep.add_argument("--base", action="append", default=[], metavar="K=V",
                       help="base configuration value (defaults to space midpoints)")
    sweep.add_argument("--out", default=None)
    return parser


def _method_from_args(args) -> MethodSpec:
    if args.method == "rs":
        return MethodSpec("rs", options={"n_configs": args.budget_runs})
    if args.method == "dehb":
        options = {"eta": args.eta, "min_budget": args.min_budget, "F": args.de_f, "CR": args.de_cr}
        if args.iterations is not None:
            options["iterations"] = args.iterations
        return MethodSpec("dehb", options=options)
    options = {
        "explore_mode": args.explore,
        "num_intervals": args.intervals,
        "quantile": args.quantile,
        "warmstart_runs": args.warmstart_runs,
        "restart_patience": args.restart_patience,
        "explore_prob": args.explore_prob,
        "factor_up": args.factor_up,
        "factor_down": args.factor_down,
        "resample_prob": args.resample_prob,
    }
    if args.population is not None:
        options["population_size"] = args.population
    name = "pbt" if args.explore == "perturb" else "pbt-gp"
    return MethodSpec("pbt", name=name, options=options)


def _cmd_tune(args) -> int:
    if args.repetitions < 1:
        raise UsageError(f"repetitions must be >= 1, got {args.repetitions}")
    if args.workers < 1:
        raise UsageError(f"workers must be >= 1, got {args.workers}")
    with open(args.space, "r", encoding="utf-8") as fh:
        space_text = fh.read()
    method = _method_from_args(args)
    objective_spec = _objective_spec(args.objective, _parse_params(args.objective_param))
    seed_plan = SeedPlan(parse_seed_list(args.tuning_seeds), parse_seed_list(args.test_seeds))
    out = os.environ.get("AUTOTUNE_RUN_DIR") or args.out
    if out is None:
        out = default_run_dir("run", method.name)
    planned = [rep_dir(out, rep) for rep in range(args.repetitions)]
    exports = TuneExports(out, planned)
    for rep, directory in enumerate(planned):
        result = run_repetition(
            directory,
            method,
            space_text,
            objective_spec,
            seed_plan,
            args.budget_runs,
            args.rng_seed,
            rep,
            workers=args.workers,
            exports=exports,
        )
        if result.failed:  # no incumbent, or every test seed failed
            print(f"repetition {rep}: failed")
        else:
            print(
                f"repetition {rep}: incumbent cost {result.tuning_cost:.6g}, "
                f"test mean {result.test_mean:.6g} +- {result.test_std:.6g}, "
                f"spend {result.spend:.3f} runs"
            )
    exports.close()
    print(f"run directory: {out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    if len(args.dirs) == 1:
        for name in export(args.dirs[0], args.kind):
            print(os.path.join(args.dirs[0], "exports", name))
        return EXIT_OK
    dirs = [d for arg in args.dirs for d in repetition_dirs(arg)]
    if args.kind == "trials":
        raise UsageError("trials reports take a single directory")
    for text in render(args.kind, dirs).values():
        print(text, end="")
    return EXIT_OK


def _integral(param: str, text: str) -> int:
    value = float(text)
    if not value.is_integer():
        raise UsageError(f"{param} takes integers, got {text!r}")
    return int(value)


def _cmd_sweep(args) -> int:
    with open(args.space, "r", encoding="utf-8") as fh:
        space_text = fh.read()
    space = parse_space(space_text)
    objective_spec = _objective_spec(args.objective, _parse_params(args.objective_param))
    objective = make_objective(objective_spec, space=space)
    base_values = {}
    midpoint = from_unit(space, np.full(space.dimension, 0.5))
    base_values.update(midpoint.values)
    base_values.update(_parse_params(args.base))
    p = space[args.param]
    raw = [v.strip() for v in args.values.split(",") if v.strip()]
    if p.kind == "integer":
        values = [_integral(args.param, v) for v in raw]
    elif p.kind == "categorical":
        values = raw
    else:
        values = [float(v) for v in raw]
    spec = SweepSpec(
        space,
        Configuration(base_values),
        args.param,
        values,
        parse_seed_list(args.seeds),
        budget=args.budget,
    )
    header = {
        "method": "sweep",
        "space_text": space_text,
        "space_digest": space_digest(space_text),
        "objective": objective_spec.as_dict(),
        "base": dict(spec.base_config.values),
        "param": spec.param,
        "values": list(spec.values),
        "seeds": list(spec.seeds),
        "budget": spec.budget,
    }
    out_dir = os.environ.get("AUTOTUNE_RUN_DIR") or args.out or "."
    directory = os.path.join(out_dir, "sweeps", f"{sweep_label(objective)}_{spec.param}")
    with opened_run(directory, header, objective, spec.seeds) as runner:
        table = run_sweep(spec, runner)
    path = os.path.join(out_dir, table.csv_name())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table.to_csv())
    print(path)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logger = logging.getLogger("autotune")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    logger.addHandler(handler)
    try:
        if args.command == "tune":
            return _cmd_tune(args)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_sweep(args)
    except (UsageError, SpaceError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (NoIncumbentError, EvaluationError) as err:
        print(f"objective failure: {err}", file=sys.stderr)
        return EXIT_OBJECTIVE
    except JournalCorrupt as err:
        print(f"journal corruption: {err}", file=sys.stderr)
        return EXIT_CORRUPT
    except JournalError as err:
        print(f"journal error: {err}", file=sys.stderr)
        return EXIT_CORRUPT
    finally:
        logger.removeHandler(handler)


def main_tune(argv: list[str] | None = None) -> int:
    return main(["tune", *(argv if argv is not None else sys.argv[1:])])


def main_report(argv: list[str] | None = None) -> int:
    return main(["report", *(argv if argv is not None else sys.argv[1:])])


def main_sweep(argv: list[str] | None = None) -> int:
    return main(["sweep", *(argv if argv is not None else sys.argv[1:])])


if __name__ == "__main__":
    sys.exit(main())
