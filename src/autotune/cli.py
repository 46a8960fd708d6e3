"""Command-line interface.

    autotune tune {rs,dehb,pbt} --space F --objective NAME|cmd:... --budget-runs N
                  --tuning-seeds 0,1,2,3,4 --test-seeds 5..14 --repetitions R
                  --rng-seed S --workers W --out DIR
    autotune report {checklist,ranks,incumbents,trials} DIR...
    autotune sweep --space F --objective NAME|cmd:... --param NAME --values ...
                   --seeds ... --budget B --base K=V --out DIR

``report`` with one DIR writes DIR/exports/ and prints the paths; with
several DIRs it prints the combined report to stdout. ``trials`` takes one
DIR. ``sweep`` journals into DIR/sweeps/ and writes its table to DIR; run
again with the same arguments, it resumes from that journal. As with
``tune``, a rerun whose arguments differ is refused. ``tune`` and ``sweep``
require ``--out``, the one name of a run directory: no default and no
environment variable stands in for it. Results go to stdout; errors, and
warnings the ``autotune`` logger gives (such as torn records a resume drops),
go to stderr. Exit codes: 0 success, 2 usage error, 3 objective failure, 4
journal corruption.
"""
from __future__ import annotations

import argparse
import functools
import logging
import os
import shutil
import sys

import numpy as np

from ._version import __version__
from .journal import JournalCorrupt, JournalError, space_digest
from .objectives import EvaluationError, ObjectiveSpec, make_objective
from .protocol import MethodSpec, SeedPlan, defaults
from .runner import NoIncumbentError
from .runs import (
    TuneExports,
    export,
    opened_run,
    render,
    rep_dir,
    repetition_dirs,
    run_repetition,
)
from .space import ConfigSpace, Configuration, Hyperparameter, SpaceError, from_unit, parse_space
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


def _parse_params(pairs: list[str], space: ConfigSpace | None = None) -> dict:
    """``K=V`` pairs as a dict: a value of a parameter in ``space`` as its
    kind takes it (see :func:`_value`), any other as an int, a float or its
    text, whichever parses first."""
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"expected key=value, got {pair!r}")
        k, v = pair.split("=", 1)
        if space is not None and k in space:
            out[k] = _value(space[k], v)
            continue
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


def _add_run(p: argparse.ArgumentParser) -> None:
    """The flags of every command that writes a run directory."""
    p.add_argument("--space", required=True, help="space definition file")
    p.add_argument("--objective", required=True, help="objective name or cmd:<command>")
    p.add_argument("--objective-param", action="append", default=[], metavar="K=V")
    p.add_argument("--out", required=True, help="run directory; a rerun resumes it")


def _run_inputs(args) -> tuple[str, ObjectiveSpec]:
    """The space file's text and the objective spec that ``args`` name. An
    unreadable space file, or an ``--out`` that is, or lies below, a file,
    is a usage error."""
    existing = os.path.abspath(args.out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise UsageError(f"--out {args.out!r} is not a directory: {existing!r} is a file")
    try:
        with open(args.space, "r", encoding="utf-8") as fh:
            space_text = fh.read()
    except OSError as err:
        raise UsageError(f"cannot read space file {args.space!r}: {err.strerror}") from None
    return space_text, _objective_spec(args.objective, _parse_params(args.objective_param))


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_run(p)
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


def build_parser() -> argparse.ArgumentParser:
    # argparse builds a HelpFormatter for each argument it adds, and each one
    # would read the terminal's width: every parser here shares one reading
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser_class = functools.partial(argparse.ArgumentParser, formatter_class=formatter)
    parser = parser_class(prog="autotune")
    parser.add_argument("--version", action="version", version=f"autotune {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    tune = sub.add_parser("tune", help="run an optimizer")
    tsub = tune.add_subparsers(dest="method", required=True, parser_class=parser_class)

    rs = tsub.add_parser("rs", help="random search at full budget")
    _add_common(rs)

    # a tuner's flags store under its settings' names, and their defaults are
    # the tuner's own
    dehb = tsub.add_parser("dehb", help="differential evolution on a fidelity ladder")
    _add_common(dehb)
    dehb.add_argument("--eta", type=float)
    dehb.add_argument("--min-budget", type=float)
    dehb.add_argument("--iterations", type=int)
    dehb.add_argument("--de-f", type=float, dest="F")
    dehb.add_argument("--de-cr", type=float, dest="CR")
    dehb.set_defaults(**defaults("dehb"))

    pbt = tsub.add_parser("pbt", help="population-based training")
    _add_common(pbt)
    pbt.add_argument("--explore", choices=["perturb", "gp"], dest="explore_mode")
    pbt.add_argument("--population", type=int, dest="population_size")
    pbt.add_argument("--intervals", type=int, dest="num_intervals")
    pbt.add_argument("--quantile", type=float)
    pbt.add_argument("--warmstart-runs", type=int)
    pbt.add_argument("--restart-patience", type=int)
    pbt.add_argument("--explore-prob", type=float)
    pbt.add_argument("--factor-up", type=float)
    pbt.add_argument("--factor-down", type=float)
    pbt.add_argument("--resample-prob", type=float)
    pbt.set_defaults(**defaults("pbt"))

    report = sub.add_parser("report", help="export reports from run directories")
    report.add_argument("kind", choices=["checklist", "ranks", "incumbents", "trials"])
    report.add_argument("dirs", nargs="+", metavar="DIR")

    sweep = sub.add_parser("sweep", help="vary one hyperparameter over a value list")
    _add_run(sweep)
    sweep.add_argument("--param", required=True)
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.add_argument("--seeds", default="0,1,2,3,4")
    sweep.add_argument("--budget", type=float, default=1.0)
    sweep.add_argument("--base", action="append", default=[], metavar="K=V",
                       help="base configuration value (defaults to space midpoints)")
    return parser


def _method_from_args(args) -> MethodSpec:
    options = {name: getattr(args, name) for name in defaults(args.method)}
    # the setting a tuner sizes to the budget, where a flag gives it
    for name in ("iterations", "population_size"):
        if getattr(args, name, None) is not None:
            options[name] = getattr(args, name)
    if args.method == "rs":
        options["n_configs"] = args.budget_runs
    name = "pbt-gp" if options.get("explore_mode") == "gp" else args.method
    return MethodSpec(args.method, name=name, options=options)


def _cmd_tune(args) -> int:
    if args.repetitions < 1:
        raise UsageError(f"repetitions must be >= 1, got {args.repetitions}")
    if args.workers < 1:
        raise UsageError(f"workers must be >= 1, got {args.workers}")
    space_text, objective_spec = _run_inputs(args)
    method = _method_from_args(args)
    seed_plan = SeedPlan(parse_seed_list(args.tuning_seeds), parse_seed_list(args.test_seeds))
    planned = [rep_dir(args.out, rep) for rep in range(args.repetitions)]
    exports = TuneExports(args.out, planned)
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
    print(f"run directory: {args.out}")
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


def _value(param: Hyperparameter, text: str):
    """``text`` as a value of ``param``: an int for an integer parameter
    (``3.0`` is 3, ``2.7`` is refused), a float for another ranged one, and
    the text itself, a choice, for a categorical one."""
    if param.kind == "categorical":
        return text
    value = float(text)
    if param.kind != "integer":
        return value
    if not value.is_integer():
        raise UsageError(f"{param.name} takes integers, got {text!r}")
    return int(value)


def _cmd_sweep(args) -> int:
    space_text, objective_spec = _run_inputs(args)
    space = parse_space(space_text)
    objective = make_objective(objective_spec, space=space)
    base_values = dict(from_unit(space, np.full(space.dimension, 0.5)).values)
    base_values.update(_parse_params(args.base, space))
    p = space[args.param]
    values = [_value(p, v.strip()) for v in args.values.split(",") if v.strip()]
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
    directory = os.path.join(args.out, "sweeps", f"{sweep_label(objective)}_{spec.param}")
    with opened_run(directory, header, objective, spec.seeds) as runner:
        table = run_sweep(spec, runner)
    path = os.path.join(args.out, table.csv_name())
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


if __name__ == "__main__":
    sys.exit(main())
