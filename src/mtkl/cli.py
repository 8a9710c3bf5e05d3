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
import sys

import numpy as np

from . import __version__, bounds, envsim, svgplot
from .capacity import (CoverRequest, PseudodimBudget, greedy_cover,
                       pseudodim_lower_bound)
from .erm import (SearchBudget, enumerate_candidates, erm_fit,
                  load_multitask_sample)
from .errors import BudgetError, InputError, NumericError, require_keys
from .kernels import load_family, pd_upper_bound
from .margin import MarginParams

CSV_SCHEMA_VERSION = 1


def _write_manifest(out_dir: str, command: str, config: dict, seed) -> None:
    payload = {"toolkit": "mtkl", "version": __version__, "command": command,
               "seed": seed, "config": config}
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    payload["config_sha256"] = hashlib.sha256(blob.encode()).hexdigest()
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ensure_out_dir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _csv_writer(fh, kind: str, columns: list[str]):
    fh.write(f"# mtkl-csv v{CSV_SCHEMA_VERSION} {kind}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    return writer


def _budget_from_args(args) -> SearchBudget:
    return SearchBudget(grid_resolution=args.grid_resolution,
                        refine_rounds=args.refine_rounds,
                        max_candidates=args.max_candidates,
                        wall_clock_cap=args.wall_clock_cap)


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-resolution", type=int, default=1)
    p.add_argument("--refine-rounds", type=int, default=0)
    p.add_argument("--max-candidates", type=int, default=4096)
    p.add_argument("--wall-clock-cap", type=float, default=None)


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------


def _cmd_learn(args) -> int:
    family = load_family(args.family)
    sample = load_multitask_sample(args.data)
    params = MarginParams(gamma=args.gamma, max_iters=args.max_iters)
    budget = _budget_from_args(args)
    solution = erm_fit(family, sample, params, budget)

    out_dir = _ensure_out_dir(args)
    kernel_params = solution.kernel_params
    if isinstance(kernel_params, np.ndarray):
        kernel_params = kernel_params.tolist()
    with open(os.path.join(out_dir, "solution.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "candidate_index": solution.candidate_index,
            "candidate_label": solution.candidate_label,
            "kernel_params": kernel_params,
            "avg_empirical_margin_error": solution.avg_empirical_margin_error,
            "budget_exhausted": solution.budget_exhausted,
            "nonconverged_fits": solution.nonconverged_fits,
            "alphas": [p.alphas.tolist() for p in solution.predictors],
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "errors.csv"), "w", encoding="utf-8") as fh:
        writer = _csv_writer(fh, "learn-errors", ["task", "empirical_margin_error"])
        for i, err in enumerate(solution.per_task_errors):
            writer.writerow([i, repr(err)])
        writer.writerow(["avg", repr(solution.avg_empirical_margin_error)])
    _write_manifest(out_dir, "learn", {
        "family": args.family, "data": args.data, "gamma": args.gamma,
        "max_iters": args.max_iters, "grid_resolution": args.grid_resolution,
        "refine_rounds": args.refine_rounds, "max_candidates": args.max_candidates,
    }, args.seed)
    print(f"selected candidate {solution.candidate_index} "
          f"({solution.candidate_label}), avg margin error "
          f"{solution.avg_empirical_margin_error:.6g}")
    return 0


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def _cmd_bound(args) -> int:
    constants = bounds.BoundConstants(C=args.C, c=args.c)
    writer = _csv_writer(sys.stdout, f"bound-{args.mode}", [
        "mode", "value", "valid", "overflow", "term_1", "term_2", "term_3",
        "term_4", "warnings"])
    if args.mode == "multitask":
        res = bounds.multitask_epsilon(bounds.BoundInputs(
            n=args.n, m=args.m, d_phi=args.dphi, B=args.B, gamma=args.gamma,
            delta=args.delta, constants=constants))
        t = res.terms
        writer.writerow(["multitask", repr(res.epsilon), res.valid, "",
                         repr(t["confidence"]), repr(t["patterns"]),
                         repr(t["kernel_overhead"]), repr(t["function_cover"]),
                         "; ".join(res.warnings)])
    elif args.mode == "lifelong":
        if args.epsilon is None:
            raise InputError("--epsilon is required for --mode lifelong")
        res = bounds.lifelong_delta(bounds.BoundInputs(
            n=args.n, m=args.m, d_phi=args.dphi, B=args.B, gamma=args.gamma,
            delta=args.delta, constants=constants), args.epsilon)
        writer.writerow(["lifelong", repr(res.delta), res.valid, res.overflow,
                         repr(res.log_sample_term), repr(res.log_environment_term),
                         "", "", "; ".join(res.warnings)])
    else:  # invert
        eps = bounds.invert_epsilon(args.delta, n=args.n, m=args.m,
                                    d_phi=args.dphi, B=args.B, gamma=args.gamma,
                                    constants=constants)
        writer.writerow(["invert", repr(eps), True, "", "", "", "", "", ""])
    return 0


# ---------------------------------------------------------------------------
# shatter / cover
# ---------------------------------------------------------------------------


def _family_members(args):
    family = load_family(args.family)
    budget = _budget_from_args(args)
    return family, [c.kernel for c in enumerate_candidates(family, budget)]


def _cmd_shatter(args) -> int:
    family, members = _family_members(args)
    rng = np.random.default_rng(args.seed)
    pool = rng.uniform(args.pool_low, args.pool_high, size=(args.pool_size, args.dim))
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
    with open(os.path.join(out_dir, "witness.json"), "w", encoding="utf-8") as fh:
        json.dump({"lower_bound": result.lower_bound, "witness": witness},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out_dir, "shatter", {
        "family": args.family, "dim": args.dim, "pool_size": args.pool_size,
        "pool_low": args.pool_low, "pool_high": args.pool_high,
        "max_n": args.max_n, "trials_per_n": args.trials_per_n,
        "max_combos": args.max_combos, "grid_resolution": args.grid_resolution,
    }, args.seed)
    print(f"certified lower bound {result.lower_bound} "
          f"(analytic upper bound {upper:.6g})")
    return 0


def _cmd_cover(args) -> int:
    _, members = _family_members(args)
    rng = np.random.default_rng(args.seed)
    sample = rng.uniform(args.pool_low, args.pool_high,
                         size=(args.pool_size, args.dim))
    out_dir = _ensure_out_dir(args)
    with open(os.path.join(out_dir, "cover.csv"), "w", encoding="utf-8") as fh:
        writer = _csv_writer(fh, "cover", [
            "metric", "epsilon", "cover_size", "max_distance", "candidates"])
        for eps in args.epsilon:
            result = greedy_cover(CoverRequest(
                metric=args.metric, epsilon=eps, candidates=tuple(members),
                evaluation_sample=sample, probe_budget=args.probe_budget))
            writer.writerow([args.metric, repr(eps), result.size,
                             repr(result.max_distance), len(members)])
            print(f"epsilon={eps:g}: cover size {result.size} "
                  f"(max residual {result.max_distance:.4g})")
    _write_manifest(out_dir, "cover", {
        "family": args.family, "metric": args.metric,
        "epsilon": list(args.epsilon), "dim": args.dim,
        "pool_size": args.pool_size, "probe_budget": args.probe_budget,
        "grid_resolution": args.grid_resolution,
    }, args.seed)
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

_EXPERIMENT_KEYS = {
    "mode", "environment", "family_variant", "sparsity", "n", "m", "gamma",
    "delta", "trials", "mc_samples", "n_grid", "grid_resolution",
    "refine_rounds", "max_candidates", "max_iters",
}


def _load_experiment_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read experiment config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"experiment config {path}: {exc}") from exc
    require_keys(config, _EXPERIMENT_KEYS, "experiment config")
    for key in ("mode", "environment"):
        if key not in config:
            raise InputError(f"experiment config requires {key!r}")
    return config


def _experiment_family(config, env):
    from .kernels import KernelFamily
    variant = config.get("family_variant", "convex_combo")
    if variant not in ("convex_combo", "sparse_combo", "linear_combo"):
        raise InputError("experiment family_variant must be a dictionary variant")
    return KernelFamily(variant=variant, dictionary=env.dictionary,
                        sparsity=config.get("sparsity"))


def _cmd_experiment(args) -> int:
    config = _load_experiment_config(args.config)
    env_spec = config["environment"]
    if isinstance(env_spec, str):
        env = envsim.load_environment(
            os.path.join(os.path.dirname(args.config), env_spec))
    else:
        env = envsim.environment_from_dict(env_spec)
    family = _experiment_family(config, env)
    budget = SearchBudget(
        grid_resolution=config.get("grid_resolution", 1),
        refine_rounds=config.get("refine_rounds", 0),
        max_candidates=config.get("max_candidates", 4096))
    gamma = config.get("gamma", 0.1)
    params = MarginParams(gamma=gamma, max_iters=config.get("max_iters", 2000))
    mode = config["mode"]
    out_dir = _ensure_out_dir(args)

    if mode == "overhead":
        points = envsim.overhead_curve(
            env, family, m=config.get("m", 20), n_grid=config["n_grid"],
            trials=config.get("trials", 10), seed=args.seed, gamma=gamma,
            mc_samples=config.get("mc_samples", 20_000), budget=budget,
            fit_params=params)
        with open(os.path.join(out_dir, "trials.csv"), "w",
                  encoding="utf-8") as fh:
            writer = _csv_writer(fh, "overhead", [
                "n", "trial", "erm_error", "oracle_error", "excess_error",
                "estimation_gap"])
            for p in points:
                writer.writerow([p.n, p.trial, repr(p.erm_error),
                                 repr(p.oracle_error), repr(p.excess_error),
                                 repr(p.estimation_gap)])
        ns = sorted({p.n for p in points})
        excess = [float(np.mean([p.excess_error for p in points if p.n == n]))
                  for n in ns]
        gap = [float(np.mean([p.estimation_gap for p in points if p.n == n]))
               for n in ns]
        svgplot.line_plot(
            os.path.join(out_dir, "curve.svg"),
            [("excess error", ns, excess), ("estimation gap", ns, gap)],
            title="kernel-selection overhead vs task count",
            xlabel="tasks n", ylabel="error", logx=True)
        print("overhead: " + "  ".join(
            f"n={n}:{e:.4f}" for n, e in zip(ns, excess)))
    elif mode in ("sandwich", "guarantee"):
        trials = config.get("trials", 10)
        n, m = config.get("n", 4), config.get("m", 32)
        delta = config.get("delta", 0.05)
        rows = []
        root = np.random.SeedSequence(args.seed)
        for trial in range(trials):
            outcome = envsim.run_trial(
                env, family, n=n, m=m, gamma=gamma, delta=delta,
                seed=root.spawn(1)[0], mc_samples=config.get("mc_samples", 100_000),
                budget=budget, fit_params=params,
                evaluate_guarantee=(mode == "guarantee"))
            rows.append((trial, outcome))
        with open(os.path.join(out_dir, "trials.csv"), "w",
                  encoding="utf-8") as fh:
            writer = _csv_writer(fh, mode, [
                "trial", "n", "m", "gamma", "er_hat", "er", "er_2gamma",
                "epsilon", "sandwich_ok", "epsilon_valid", "guarantee_holds"])
            for trial, outcome in rows:
                r = outcome.report
                g = outcome.guarantee
                writer.writerow([trial, r.n, r.m, repr(r.gamma), repr(r.er_hat),
                                 repr(r.er), repr(r.er_2gamma), repr(r.epsilon),
                                 r.sandwich_ok, r.epsilon_valid,
                                 "" if g is None else g.holds])
        xs = [t for t, _ in rows]
        svgplot.line_plot(
            os.path.join(out_dir, "curve.svg"),
            [("train margin error", xs, [o.report.er_hat for _, o in rows]),
             ("true error", xs, [o.report.er for _, o in rows]),
             ("true 2-margin error", xs, [o.report.er_2gamma for _, o in rows])],
            title="per-trial error estimates", xlabel="trial", ylabel="error")
        n_ok = sum(o.report.sandwich_ok for _, o in rows)
        print(f"sandwich held in {n_ok}/{len(rows)} trials")
    else:
        raise InputError(f"unknown experiment mode {mode!r}")

    _write_manifest(out_dir, "experiment", config, args.seed)
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
    p.add_argument("--max-iters", type=int, default=2000)
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("bound", help="evaluate or invert the bound formulas")
    p.add_argument("--mode", choices=("multitask", "lifelong", "invert"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--dphi", type=float, required=True)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=None,
                   help="deviation radius (lifelong mode)")
    p.add_argument("--C", type=float, default=1.0,
                   help="kernel-cover constant (existence-only; default 1)")
    p.add_argument("--c", type=float, default=1.0,
                   help="sample-size constant (existence-only; default 1)")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("shatter", help="pseudodimension lower-bound search")
    common(p)
    p.add_argument("--family", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--pool-size", type=int, default=8)
    p.add_argument("--pool-low", type=float, default=-1.0)
    p.add_argument("--pool-high", type=float, default=1.0)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--trials-per-n", type=int, default=16)
    p.add_argument("--max-combos", type=int, default=200_000)
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_shatter)

    p = sub.add_parser("cover", help="greedy epsilon-net over family members")
    common(p)
    p.add_argument("--family", required=True)
    p.add_argument("--metric", choices=("predictor_sup", "kernel_sup",
                                        "kernel_mean_dev"), default="kernel_sup")
    p.add_argument("--epsilon", type=float, nargs="+", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--pool-size", type=int, default=16)
    p.add_argument("--pool-low", type=float, default=-1.0)
    p.add_argument("--pool-high", type=float, default=1.0)
    p.add_argument("--probe-budget", type=int, default=16)
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("experiment", help="seeded trial batteries from a config")
    common(p)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_experiment)

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
