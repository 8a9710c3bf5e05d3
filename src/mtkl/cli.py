"""Unified command-line entry point.

Subcommands: ``learn`` (multi-task ERM on a data file), ``bound`` (closed-form
bound evaluation / inversion), ``shatter`` (pseudodimension search), ``cover``
(greedy epsilon-nets), ``experiment`` (seeded trial batteries with CSV + SVG
artifacts). Every run that writes artifacts also writes ``manifest.json``
recording the toolkit version, the seed, and the full configuration plus its
hash; artifacts contain no timestamps, so a rerun from the same manifest is
bitwise identical.

Exit codes: 0 success, 2 input/config error, 3 numeric error, 4 budget
exceeded. File formats are documented in FORMATS.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import sys

import numpy as np

from . import __version__, bounds, envsim, svgplot
from .capacity import (PROBE_BUDGET, CoverRequest, PseudodimBudget,
                       greedy_cover, pairwise_distances, pseudodim_lower_bound)
from .erm import (SearchBudget, enumerate_candidates, erm_fit,
                  load_multitask_sample)
from .errors import (BudgetError, InputError, NumericError, read_json,
                     require_int, require_keys, require_number)
from .kernels import COMBO_VARIANTS, KernelFamily, load_family, pd_upper_bound
from .margin import MarginParams

CSV_SCHEMA_VERSION = 1


def _flag_config(args) -> dict:
    """Every flag the subcommand reads, except ``--out-dir`` and ``--seed``:
    the run's output location, and a value the manifest records on its own.
    A flag left at None is one the run may not read, and is left out."""
    return {k: v for k, v in vars(args).items() if v is not None
            and k not in ("func", "command", "out_dir", "seed")}


def _present(config: dict, keys) -> dict:
    """The entries of ``config`` under ``keys`` that it holds."""
    return {key: config[key] for key in keys if key in config}


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(args, config: dict) -> None:
    payload = {"toolkit": "mtkl", "version": __version__, "command": args.command,
               "seed": args.seed, "config": config}
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    payload["config_sha256"] = hashlib.sha256(blob.encode()).hexdigest()
    _write_json(os.path.join(args.out_dir, "manifest.json"), payload)


def _ensure_out_dir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _csv_writer(fh, kind: str, columns: list[str]):
    fh.write(f"# mtkl-csv v{CSV_SCHEMA_VERSION} {kind}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    return writer


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-resolution", type=int,
                   default=SearchBudget.grid_resolution)
    p.add_argument("--max-candidates", type=int,
                   default=SearchBudget.max_candidates)


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------


def _cmd_learn(args) -> int:
    family = load_family(args.family)
    sample = load_multitask_sample(args.data)
    params = MarginParams(gamma=args.gamma)
    budget = SearchBudget(grid_resolution=args.grid_resolution,
                          refine_rounds=args.refine_rounds,
                          max_candidates=args.max_candidates)
    solution = erm_fit(family, sample, params, budget)

    out_dir = _ensure_out_dir(args)
    kernel_params = solution.kernel_params
    if isinstance(kernel_params, np.ndarray):
        kernel_params = kernel_params.tolist()
    _write_json(os.path.join(out_dir, "solution.json"), {
        "candidate_index": solution.candidate_index,
        "candidate_label": solution.candidate_label,
        "kernel_params": kernel_params,
        "avg_empirical_margin_error": solution.avg_empirical_margin_error,
        "nonconverged_fits": solution.nonconverged_fits,
        "alphas": [p.alphas.tolist() for p in solution.predictors],
    })
    with open(os.path.join(out_dir, "errors.csv"), "w", encoding="utf-8") as fh:
        writer = _csv_writer(fh, "learn-errors", ["task", "empirical_margin_error"])
        for i, err in enumerate(solution.per_task_errors):
            writer.writerow([i, repr(err)])
        writer.writerow(["avg", repr(solution.avg_empirical_margin_error)])
    _write_manifest(args, _flag_config(args))
    print(f"selected candidate {solution.candidate_index} "
          f"({solution.candidate_label}), avg margin error "
          f"{solution.avg_empirical_margin_error:.6g}")
    return 0


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


# The query and constant flags each mode reads; its first is required.
_BOUND_READS = {"multitask": ("delta",), "lifelong": ("epsilon", "C"),
                "invert": ("delta", "C")}


def _cmd_bound(args) -> int:
    reads = _BOUND_READS[args.mode]
    for flag in ("delta", "epsilon", "C"):
        given = getattr(args, flag) is not None
        if not given and flag == reads[0]:
            raise InputError(f"--mode {args.mode} requires --{flag}")
        if given and flag not in reads:
            raise InputError(f"--mode {args.mode} does not read --{flag}")
    inputs = bounds.BoundInputs(n=args.n, m=args.m, d_phi=args.dphi, B=args.B,
                                gamma=args.gamma)
    constants = (bounds.BoundConstants() if args.C is None
                 else bounds.BoundConstants(C=args.C))
    if args.mode == "multitask":
        res = bounds.multitask_epsilon(inputs, args.delta)
        t = res.terms
        row = ["multitask", repr(res.epsilon), res.valid, "",
               repr(t["confidence"]), repr(t["patterns"]),
               repr(t["kernel_overhead"]), repr(t["function_cover"]),
               "; ".join(res.warnings)]
    elif args.mode == "lifelong":
        res = bounds.lifelong_delta(inputs, args.epsilon, constants)
        row = ["lifelong", repr(res.delta), res.valid, res.overflow,
               repr(res.log_sample_term), repr(res.log_environment_term),
               "", "", "; ".join(res.warnings)]
    else:  # invert
        eps = bounds.invert_epsilon(inputs, args.delta, constants)
        row = ["invert", repr(eps), True, "", "", "", "", "", ""]
    _csv_writer(sys.stdout, f"bound-{args.mode}", [
        "mode", "value", "valid", "overflow", "term_1", "term_2", "term_3",
        "term_4", "warnings"]).writerow(row)
    return 0


# ---------------------------------------------------------------------------
# shatter / cover
# ---------------------------------------------------------------------------


def _add_pool_flags(p: argparse.ArgumentParser, pool_size: int) -> None:
    p.add_argument("--family", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--pool-size", type=int, default=pool_size)
    p.add_argument("--pool-low", type=float, default=-1.0)
    p.add_argument("--pool-high", type=float, default=1.0)
    _add_grid_flags(p)


def _family_pool(args):
    """The family, its grid members, and the point pool drawn from --seed."""
    require_int(args.seed, "--seed", 0)
    require_int(args.dim, "--dim", 1)
    require_int(args.pool_size, "--pool-size", 1)
    require_number(args.pool_low, "--pool-low")
    require_number(args.pool_high, "--pool-high")
    if not 0 <= args.pool_high - args.pool_low < np.inf:
        raise InputError(f"--pool-high {args.pool_high!r} must be at least "
                         f"--pool-low {args.pool_low!r}, a finite distance away")
    family = load_family(args.family)
    budget = SearchBudget(grid_resolution=args.grid_resolution,
                          max_candidates=args.max_candidates)
    members = [c.kernel for c in enumerate_candidates(family, budget)]
    pool = np.random.default_rng(args.seed).uniform(
        args.pool_low, args.pool_high, size=(args.pool_size, args.dim))
    return family, members, pool


def _cmd_shatter(args) -> int:
    family, members, pool = _family_pool(args)
    search = PseudodimBudget(max_n=args.max_n, trials_per_n=args.trials_per_n,
                             max_combos=args.max_combos, seed=args.seed)
    result = pseudodim_lower_bound(members, pool, search)

    out_dir = _ensure_out_dir(args)
    upper = pd_upper_bound(family)
    with open(os.path.join(out_dir, "shatter.csv"), "w", encoding="utf-8") as fh:
        writer = _csv_writer(fh, "shatter", [
            "n_found", "pd_upper_bound", "members", "budget_exhausted"])
        writer.writerow([result.lower_bound, repr(upper), len(members),
                         result.budget_exhausted])
    witness = None
    if result.witness is not None:
        witness = {
            "pair_indices": list(result.pair_indices),
            "thresholds": result.witness.thresholds.tolist(),
            "pattern_members": {" ".join(map(str, k)): v for k, v in
                                result.witness.pattern_members.items()},
        }
    _write_json(os.path.join(out_dir, "witness.json"),
                {"lower_bound": result.lower_bound, "witness": witness})
    _write_manifest(args, _flag_config(args))
    print(f"certified lower bound {result.lower_bound} "
          f"(analytic upper bound {upper:.6g})")
    return 0


def _cmd_cover(args) -> int:
    # kernel_mean_dev alone reads --probe-budget, and its manifest records the
    # budget used; every radius is checked before the distances are built
    config = _flag_config(args)
    if args.metric == "kernel_mean_dev":
        config.setdefault("probe_budget", PROBE_BUDGET)
    elif "probe_budget" in config:
        raise InputError(f"--metric {args.metric} does not read --probe-budget")
    for eps in args.epsilon:
        require_number(eps, "--epsilon", positive=True)
    _, members, sample = _family_pool(args)
    request = CoverRequest(metric=args.metric, candidates=tuple(members),
                           evaluation_sample=sample,
                           **_present(config, ("probe_budget",)))
    D = pairwise_distances(request)
    results = [greedy_cover(D, eps) for eps in args.epsilon]

    out_dir = _ensure_out_dir(args)
    with open(os.path.join(out_dir, "cover.csv"), "w", encoding="utf-8") as fh:
        writer = _csv_writer(fh, "cover", [
            "metric", "epsilon", "cover_size", "max_distance", "candidates"])
        for eps, result in zip(args.epsilon, results):
            writer.writerow([args.metric, repr(eps), result.size,
                             repr(result.max_distance), len(members)])
            print(f"epsilon={eps:g}: cover size {result.size} "
                  f"(max residual {result.max_distance:.4g})")
    _write_manifest(args, config)
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

_COMMON_KEYS = {
    "mode", "environment", "family_variant", "sparsity", "m", "gamma",
    "trials", "mc_samples", "grid_resolution", "refine_rounds",
    "max_candidates",
}
# per mode: the keys it reads, and those it requires
_EXPERIMENT_KEYS = {
    "overhead": (_COMMON_KEYS | {"n_grid"}, ("environment", "n_grid")),
    "sandwich": (_COMMON_KEYS | {"n", "delta"}, ("environment",)),
}
_EXPERIMENT_KEYS["guarantee"] = _EXPERIMENT_KEYS["sandwich"]


def _cmd_experiment(args) -> int:
    require_int(args.seed, "--seed", 0)
    config = read_json(args.config, "experiment config")
    mode = config.get("mode") if isinstance(config, dict) else None
    if mode not in tuple(_EXPERIMENT_KEYS):  # a JSON list is unhashable
        raise InputError(f"experiment mode must be one of "
                         f"{sorted(_EXPERIMENT_KEYS)}, got {mode!r}")
    allowed, required = _EXPERIMENT_KEYS[mode]
    require_keys(config, allowed, f"{mode} experiment config", required)
    if mode == "overhead" and not isinstance(config["n_grid"], list):
        raise InputError("experiment n_grid must be a list of task counts")
    env_spec = config["environment"]
    if isinstance(env_spec, str):
        env = envsim.load_environment(
            os.path.join(os.path.dirname(args.config), env_spec))
    else:
        env = envsim.environment_from_dict(env_spec)
    variant = config.get("family_variant", "convex_combo")
    if variant not in COMBO_VARIANTS:
        raise InputError("experiment family_variant must be a dictionary variant")
    family = KernelFamily(variant=variant, dictionary=env.dictionary,
                          **_present(config, ("sparsity",)))
    # run_trial and overhead_curve own the defaults of these
    present = _present(config, ("mc_samples",))
    present["budget"] = SearchBudget(**_present(
        config, ("grid_resolution", "refine_rounds", "max_candidates")))
    gamma = config.get("gamma", 0.1)
    trials = config.get("trials", 10)
    m = config.get("m", 20 if mode == "overhead" else 32)

    if mode == "overhead":
        points = envsim.overhead_curve(
            env, family, m=m, n_grid=config["n_grid"], trials=trials,
            seed=args.seed, gamma=gamma, **present)
        columns = ["n", "trial", "erm_error", "oracle_error", "excess_error",
                   "estimation_gap"]
        table = [[p.n, p.trial, repr(p.erm_error), repr(p.oracle_error),
                  repr(p.excess_error), repr(p.estimation_gap)] for p in points]
        ns = sorted({p.n for p in points})
        excess = [float(np.mean([p.excess_error for p in points if p.n == n]))
                  for n in ns]
        gap = [float(np.mean([p.estimation_gap for p in points if p.n == n]))
               for n in ns]
        curves = [("excess error", ns, excess), ("estimation gap", ns, gap)]
        plot = dict(title="kernel-selection overhead vs task count",
                    xlabel="tasks n", logx=True)
        summary = "overhead: " + "  ".join(
            f"n={n}:{e:.4f}" for n, e in zip(ns, excess))
    else:  # sandwich, guarantee
        require_int(trials, "trials", 1)
        n, delta = config.get("n", 4), config.get("delta", 0.05)
        root = np.random.SeedSequence(args.seed)
        reports, table = [], []
        for trial in range(trials):
            outcome = envsim.run_trial(
                env, family, n=n, m=m, gamma=gamma, delta=delta,
                seed=root.spawn(1)[0], evaluate_guarantee=(mode == "guarantee"),
                **present)
            r, g = outcome.report, outcome.guarantee
            reports.append(r)
            table.append([trial, n, m, repr(gamma), repr(r.er_hat), repr(r.er),
                          repr(r.er_2gamma), repr(r.epsilon), r.sandwich_ok,
                          r.epsilon_valid, "" if g is None else g.holds])
        columns = ["trial", "n", "m", "gamma", "er_hat", "er", "er_2gamma",
                   "epsilon", "sandwich_ok", "epsilon_valid", "guarantee_holds"]
        xs = list(range(trials))
        curves = [("train margin error", xs, [r.er_hat for r in reports]),
                  ("true error", xs, [r.er for r in reports]),
                  ("true 2-margin error", xs, [r.er_2gamma for r in reports])]
        plot = dict(title="per-trial error estimates", xlabel="trial")
        n_ok = sum(r.sandwich_ok for r in reports)
        summary = f"sandwich held in {n_ok}/{trials} trials"

    # the battery has run: only now does the output directory exist
    out_dir = _ensure_out_dir(args)
    with open(os.path.join(out_dir, "trials.csv"), "w", encoding="utf-8") as fh:
        _csv_writer(fh, mode, columns).writerows(table)
    svgplot.line_plot(os.path.join(out_dir, "curve.svg"), curves,
                      ylabel="error", **plot)
    print(summary)
    _write_manifest(args, config)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtkl",
        description="multi-task kernel learning: ERM, bounds, capacity, trials")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default="mtkl-out")

    p = sub.add_parser("learn", help="multi-task ERM over a kernel family")
    common(p)
    p.add_argument("--family", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--gamma", type=float, required=True)
    _add_grid_flags(p)
    p.add_argument("--refine-rounds", type=int, default=SearchBudget.refine_rounds)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("bound", help="evaluate or invert the bound formulas")
    p.add_argument("--mode", choices=("multitask", "lifelong", "invert"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--dphi", type=float, required=True)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, help="confidence (multitask, invert)")
    p.add_argument("--epsilon", type=float, help="deviation radius (lifelong)")
    p.add_argument("--C", type=float, help="existence-only kernel-cover constant "
                   f"(lifelong, invert; default {bounds.BoundConstants.C})")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("shatter", help="pseudodimension lower-bound search")
    common(p)
    _add_pool_flags(p, pool_size=8)
    p.add_argument("--max-n", type=int, default=PseudodimBudget.max_n)
    p.add_argument("--trials-per-n", type=int, default=PseudodimBudget.trials_per_n)
    p.add_argument("--max-combos", type=int, default=PseudodimBudget.max_combos)
    p.set_defaults(func=_cmd_shatter)

    p = sub.add_parser("cover", help="greedy epsilon-net over family members")
    common(p)
    _add_pool_flags(p, pool_size=16)
    p.add_argument("--metric", choices=("kernel_sup", "kernel_mean_dev"),
                   default="kernel_sup")
    p.add_argument("--epsilon", type=float, nargs="+", required=True)
    p.add_argument("--probe-budget", type=int, help="dual directions probed "
                   f"(kernel_mean_dev; default {PROBE_BUDGET})")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("experiment", help="seeded trial batteries from a config")
    common(p)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_experiment)

    # argparse reads "-1e-3" as an option string: its negative-number pattern
    # (Python 3.11) has no exponent or infinity, so "--pool-low -1e-3" failed
    # with "expected one argument" before the flag's own check could name it
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(
            r"^-(inf|infinity|nan|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)$", re.I)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error-category: input\nerror: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error-category: numeric\nerror: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"error-category: budget\nerror: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
