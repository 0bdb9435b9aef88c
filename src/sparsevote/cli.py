"""Command-line front door.

    sparsevote run    --config cfg.json [--seed S] [--out metrics.csv]
                      [--format csv|json] [--cost-mode analytic|wire]
    sparsevote sweep  --config cfg.json --axis gamma --values 0.05,0.1,0.5
                      [--seeds 0,1,2] [--out table.csv] [--format csv|json]
    sparsevote theory eval --bound alpha --params '{"m": 3, "gamma": 0.5}'

run executes one experiment, sweep one run per axis value (per seed), and
theory eval prints the requested closed-form quantity as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import _checks, theory
from .simulator import (
    ExperimentConfig,
    emit_results,
    emit_sweep,
    run_experiment,
    sweep,
)

# Every function theory exports is a bound; BoundInputs groups the inputs of two.
_BOUNDS = {name: getattr(theory, name) for name in theory.__all__ if name != "BoundInputs"}


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "cost_mode", None) is not None:
        cfg = dataclasses.replace(cfg, cost_mode=args.cost_mode.upper())
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    metrics = run_experiment(cfg)
    if args.out:
        emit_results(metrics, args.out, args.format)
        print(f"wrote {len(metrics)} rounds to {args.out}")
    last = metrics[-1]
    print(
        f"{cfg.algorithm}: round {last.round} loss {last.train_loss:.6g} "
        f"metric {last.test_metric:.6g} cumulative_bits {last.cumulative_bits:.6g}"
    )
    return 0


def _split(text: str, cast, option: str) -> list:
    try:
        return [cast(v) for v in text.split(",") if v]
    except ValueError:
        raise ValueError(f"{option} must be comma separated {cast.__name__}s, got {text!r}") from None


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    values = _split(args.values, float, "--values")
    seeds = _split(args.seeds, int, "--seeds") if args.seeds else None
    rows = sweep(cfg, args.axis, values, seeds)
    if args.out:
        emit_sweep(rows, args.out, args.format)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        for r in rows:
            print(
                f"{r.axis}={r.value:g} seed={r.seed} loss={r.final_train_loss:.6g} "
                f"metric={r.final_test_metric:.6g} bits={r.cumulative_bits:.6g}"
            )
    return 0


def _cmd_theory_eval(args) -> int:
    if args.bound not in _BOUNDS:
        print(f"unknown bound {args.bound!r}; one of {sorted(_BOUNDS)}", file=sys.stderr)
        return 2
    params = json.loads(args.params)
    if not isinstance(params, dict):
        print("--params must be a JSON object", file=sys.stderr)
        return 2
    fn = _BOUNDS[args.bound]
    try:
        if args.bound.startswith("convergence_bound"):
            value = fn(theory.BoundInputs(**params))
        else:
            value = fn(**params)
    except TypeError as err:  # wrong or missing argument names
        print(f"error: {err}", file=sys.stderr)
        return 2
    # A bound can overflow at finite inputs, and JSON has no Infinity.
    if not all(map(_checks.is_real, value if isinstance(value, tuple) else [value])):
        raise OverflowError(f"{args.bound} is not finite at these params, got {value}")
    if isinstance(value, tuple):  # empty_coordinate_prob returns (exact, approx)
        value = {"exact": value[0], "approx": value[1]}
    print(json.dumps({"bound": args.bound, "params": params, "value": value}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsevote", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--format", choices=["csv", "json"], default="csv")
    run_p.add_argument("--cost-mode", choices=["analytic", "wire"], default=None)
    run_p.set_defaults(fn=_cmd_run)

    # No abbreviations here: --seed would be read as --seeds.
    sweep_p = sub.add_parser("sweep", help="run the config across one axis", allow_abbrev=False)
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--axis", required=True, help="gamma, m, eta, or mu")
    sweep_p.add_argument("--values", required=True, help="comma separated values")
    sweep_p.add_argument("--seeds", default=None, help="comma separated seeds")
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep_p.add_argument("--cost-mode", choices=["analytic", "wire"], default=None)
    sweep_p.set_defaults(fn=_cmd_sweep)

    theory_p = sub.add_parser("theory", help="closed-form quantities")
    theory_sub = theory_p.add_subparsers(dest="theory_command", required=True)
    eval_p = theory_sub.add_parser("eval", help="evaluate one bound")
    eval_p.add_argument("--bound", required=True)
    eval_p.add_argument("--params", required=True, help="JSON object of arguments")
    eval_p.set_defaults(fn=_cmd_theory_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A run that overflows ends in run_experiment's FloatingPointError;
        # numpy's warnings on the way there would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except (ValueError, OSError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:  # numpy's names the size it could not allocate
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
