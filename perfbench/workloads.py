"""The four benchmark workloads, each driven through mtkl's public API.

A workload builds every input from its seed in ``setup``, runs one unit of
work per ``unit(i)`` call, and checks a unit's outputs in ``check`` with a
test that does not reuse the path it checks. Unit ``i`` depends only on the
seed and ``i``, so any prefix of units is reproducible; quality guards and
the output digest are taken over the first ``prefix`` units.

Library functions are called through their module (``envsim.run_trial``,
not an imported name) so that the tracer's patched bindings are the ones
called.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

import mtkl
from mtkl import capacity, cli, envsim, kernels

NORM_TOL = 1e-8
# Warm-up calls in set-up use one fixed seed, not the run's, so that set-up
# costs the same for every run seed.
WARMUP_SEED = (0, 1 << 30)


def _views_dictionary(views, bandwidth):
    return tuple(mtkl.rbf_kernel(bandwidth, dims=v) for v in views)


def _trial_environment():
    """Criterion 3/4 environment: 4 overlapping coordinate-pair views."""
    dictionary = _views_dictionary(((0, 1), (2, 3), (0, 2), (1, 3)), 0.6)
    env = mtkl.TaskEnvironment(
        dictionary=dictionary, input_law=mtkl.InputLaw(dim=4),
        clusters=(mtkl.TaskCluster(weight=1.0, kernel_index=0, n_anchors=6,
                                   margin_gap=0.25, flip_rate=0.1),))
    return env, mtkl.KernelFamily(variant="convex_combo", dictionary=dictionary)


def _norm_problems(predictors):
    return [f"predictor {k}: norm_sq {p.norm_sq()!r} > 1+{NORM_TOL}"
            for k, p in enumerate(predictors) if not p.norm_sq() <= 1.0 + NORM_TOL]


@contextlib.contextmanager
def _capture(module, names):
    """Record the return value of every call through ``module.<name>``."""
    returned = []
    saved = {name: getattr(module, name) for name in names}

    def recorder(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            returned.append(out)
            return out
        return call

    for name, fn in saved.items():
        setattr(module, name, recorder(fn))
    try:
        yield returned
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


class Overhead:
    """Criterion-2 curve: one unit is one curve point, at n = ``n`` tasks.

    A point's cost is close to linear in n, and every point runs the same
    layers, so a fixed n keeps the latency distribution unimodal while a run
    still holds a few dozen points."""

    name = "overhead"
    quality_name = "excess_err_mean"
    default_seed = 715
    M, GAMMA = 20, 0.05

    def __init__(self, n=4, mc_samples=20_000, n_views=16):
        self.n, self.mc_samples, self.n_views = n, mc_samples, n_views
        self.prefix = 8

    def trace_units(self, seconds):
        return max(1, round(seconds / 4))

    def setup(self, seed, workdir):
        views = [(2 * i, 2 * i + 1) for i in range(self.n_views)]
        dictionary = _views_dictionary(views, 0.2)
        # planted kernel last, so zero-training-error ties favour wrong kernels
        self.env = mtkl.TaskEnvironment(
            dictionary=dictionary, input_law=mtkl.InputLaw(dim=2 * self.n_views),
            clusters=(mtkl.TaskCluster(weight=1.0, kernel_index=self.n_views - 1,
                                       n_anchors=6, margin_gap=0.25,
                                       flip_rate=0.0, balance_slack=0.15),))
        self.family = mtkl.KernelFamily(variant="convex_combo",
                                        dictionary=dictionary)
        self.seed = seed
        self._curve(1, WARMUP_SEED)

    def _curve(self, n, seed):
        return envsim.overhead_curve(
            self.env, self.family, m=self.M, n_grid=(n,), trials=1, seed=seed,
            gamma=self.GAMMA, mc_samples=self.mc_samples)

    def unit(self, i):
        # overhead_curve returns errors only; capture the fitted predictors
        with _capture(envsim, ("erm_fit", "fit_single_task")) as returned:
            points = self._curve(self.n, (self.seed, i))
        return points, returned

    def check(self, i, output):
        points, returned = output
        solutions = [r for r in returned if isinstance(r, mtkl.MultiTaskSolution)]
        oracle = [r for r in returned if isinstance(r, mtkl.Predictor)]
        if [p.n for p in points] != [self.n] or len(solutions) != 1 or \
                len(oracle) != self.n:
            return [f"expected one point, one ERM fit and {self.n} oracle "
                    f"fits, got {len(points)}, {len(solutions)} and {len(oracle)}"]
        problems = _norm_problems(
            [p for s in solutions for p in s.predictors] + oracle)
        for point, solution in zip(points, solutions):
            if not (0.0 <= point.erm_error <= 1.0 and 0.0 <= point.oracle_error <= 1.0):
                problems.append(f"n={point.n}: true error outside [0, 1]")
            if point.excess_error != point.erm_error - point.oracle_error:
                problems.append(f"n={point.n}: excess_error != erm - oracle")
            gap = abs(point.erm_error - solution.avg_empirical_margin_error)
            if point.estimation_gap != gap:
                problems.append(f"n={point.n}: estimation_gap != |erm - train|")
        return problems

    def record(self, i, output):
        points = output[0]
        values = [[p.erm_error, p.oracle_error, p.excess_error, p.estimation_gap]
                  for p in points]
        return (float(np.mean([p.excess_error for p in points])),
                np.array(values).tobytes())


class Trials:
    """Criterion-3/4 battery: one unit is one ``run_trial`` with the guarantee."""

    name = "trials"
    quality_name = "train_err_mean"
    default_seed = 20260810
    N, M, GAMMA, DELTA = 3, 32, 0.1, 0.05

    def __init__(self, mc_samples=100_000):
        self.mc_samples = mc_samples
        self.prefix = 8

    def trace_units(self, seconds):
        return max(1, round(0.3 * seconds))

    def setup(self, seed, workdir):
        self.env, self.family = _trial_environment()
        self.seed = seed
        self._trial(WARMUP_SEED, self.mc_samples // 10)

    def _trial(self, seed, mc_samples):
        return envsim.run_trial(
            self.env, self.family, n=self.N, m=self.M, gamma=self.GAMMA,
            delta=self.DELTA, seed=seed, mc_samples=mc_samples,
            evaluate_guarantee=True)

    def unit(self, i):
        return self._trial((self.seed, i), self.mc_samples)

    def check(self, i, outcome):
        r = outcome.report
        problems = _norm_problems(outcome.solution.predictors)
        if r.epsilon_valid and not r.sandwich_ok:
            problems.append("sandwich failed on an epsilon-valid trial")
        if r.sandwich_ok != (r.er_2gamma + r.epsilon >= r.er_hat >= r.er - r.epsilon):
            problems.append("sandwich_ok disagrees with the reported errors")
        if outcome.guarantee is None:
            problems.append("guarantee report missing")
        return problems

    def record(self, i, outcome):
        r = outcome.report
        values = [r.er_hat, r.er, r.er_2gamma, r.epsilon,
                  outcome.guarantee.er_2gamma_best]
        alphas = [p.alphas for p in outcome.solution.predictors]
        return r.er_hat, np.concatenate([values] + alphas).tobytes()


def _random_family(rng, variant):
    """A random analytically bounded family of one variant (0 convex, 1
    sparse, 2 Gaussian covariance) and a finite member list."""
    if variant == 0:
        k = int(rng.integers(2, 5))
        dictionary = tuple(mtkl.rbf_kernel(float(b)) for b in rng.uniform(0.2, 2.5, k))
        family = mtkl.KernelFamily(variant="convex_combo", dictionary=dictionary)
        members = list(dictionary) + [
            mtkl.instantiate(family, rng.dirichlet(np.ones(k))) for _ in range(3)]
        return family, tuple(members), 2
    if variant == 1:
        n_dict = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, n_dict) + 1))
        dictionary = tuple(mtkl.rbf_kernel(float(b))
                           for b in rng.uniform(0.2, 2.5, n_dict))
        family = mtkl.KernelFamily(variant="sparse_combo", dictionary=dictionary,
                                   sparsity=k)
        return family, dictionary, 2
    ell = int(rng.integers(1, 3))
    family = mtkl.KernelFamily(variant="gaussian_covariance", dimension=ell)
    members = tuple(mtkl.instantiate(family, float(s) * np.eye(ell))
                    for s in rng.uniform(0.1, 4.0, 4))
    return family, members, ell


def _pool_pairs(pool):
    """Point pairs indexed as ``pseudodim_lower_bound`` indexes them."""
    p = pool.shape[0]
    return np.stack([np.stack((pool[i], pool[j]))
                     for i in range(p) for j in range(i, p)])


class Capacity:
    """Criterion-5 family stream: one unit is one batch of ``pseudodim_lower_bound``
    calls, ``PER_VARIANT`` random families of each of the three variants.

    A single call costs from about 1 ms (small sparse family) to 12 ms (large
    convex one), so per-call latency and throughput would depend on the mix
    of variants a seed draws and on how far a run gets through the deck.
    Batches with a fixed mix cost nearly the same, whatever the seed."""

    name = "capacity"
    quality_name = "lower_bound_mean"
    default_seed = 55
    POOL_SIZE = 4
    PER_VARIANT = 8
    BUDGET = {"max_n": 2, "trials_per_n": 4, "max_combos": 50_000}

    def __init__(self, deck_size=64):
        self.deck_size = deck_size
        self.prefix = deck_size

    def trace_units(self, seconds):
        return max(1, round(2 * seconds))

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.deck = [self._batch(rng) for _ in range(self.deck_size)]
        self._run(self._batch(np.random.default_rng(WARMUP_SEED)))

    def _batch(self, rng):
        batch = []
        for variant in np.repeat(np.arange(3), self.PER_VARIANT):
            family, members, dim = _random_family(rng, variant)
            pool = rng.uniform(-1.0, 1.0, (self.POOL_SIZE, dim))
            budget = mtkl.PseudodimBudget(**self.BUDGET,
                                          seed=int(rng.integers(2**31)))
            batch.append((family, members, pool, budget))
        return batch

    @staticmethod
    def _run(batch):
        return [capacity.pseudodim_lower_bound(members, pool, budget)
                for _, members, pool, budget in batch]

    def unit(self, i):
        return self._run(self.deck[i % self.deck_size])

    def check(self, i, results):
        problems = []
        for k, (entry, result) in enumerate(zip(self.deck[i % self.deck_size],
                                                results)):
            problems.extend(f"family {k}: {p}" for p in self._check_one(entry, result))
        return problems

    @staticmethod
    def _check_one(entry, result):
        family, members, pool, _ = entry
        lb = result.lower_bound
        problems = []
        if lb > kernels.pd_upper_bound(family):
            problems.append(f"lower bound {lb} > pd_upper_bound")
        if lb != len(result.pair_indices):
            problems.append("lower bound differs from the witness pair count")
        if lb == 0:
            return problems
        witness = result.witness
        if witness is None or len(witness.pattern_members) != 2 ** lb:
            return problems + ["witness missing or incomplete"]
        instance = capacity.ShatterInstance(
            pairs=_pool_pairs(pool)[list(result.pair_indices)], members=members,
            thresholds=witness.thresholds)
        if not capacity.is_shattered(instance)[0]:
            problems.append("witness thresholds do not shatter the pairs")
        return problems

    def record(self, i, results):
        values = []
        for result in results:
            values.extend([result.lower_bound, *result.pair_indices])
            if result.witness is not None:
                values.extend(result.witness.thresholds)
        return (float(np.mean([r.lower_bound for r in results])),
                np.array(values, dtype=np.float64).tobytes())


class Learn:
    """``mtkl learn`` in-process: one unit is one CLI invocation on a CSV."""

    name = "learn"
    quality_name = "train_err_mean"
    default_seed = 7
    N, GAMMA, GRID_RESOLUTION, REFINE_ROUNDS = 4, 0.1, 2, 1

    def __init__(self, m=256, datasets=16):
        self.m, self.datasets = m, datasets
        self.prefix = min(4, datasets)

    def trace_units(self, seconds):
        return max(1, round(seconds / 8))

    def setup(self, seed, workdir):
        env, self.family = _trial_environment()
        os.makedirs(workdir, exist_ok=True)
        self.workdir, self.seed, self.calls = workdir, seed, 0
        self.family_path = os.path.join(workdir, "family.json")
        with open(self.family_path, "w", encoding="utf-8") as fh:
            json.dump(kernels.family_to_dict(self.family), fh)
        self.samples, self.data_paths = [], []
        for d in range(self.datasets):
            dists = envsim.sample_lifelong(env, self.N, (seed, d, 0))
            sample = envsim.sample_multitask(dists, self.m, (seed, d, 1))
            path = os.path.join(workdir, f"data{d}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                for t, task in enumerate(sample.tasks):
                    for x, y in zip(task.X, task.y):
                        writer.writerow([f"task{t}", *map(repr, x.tolist()),
                                         repr(float(y))])
            self.samples.append(sample)
            self.data_paths.append(path)
        # read back the first file and warm the solver on a slice of it
        tasks = mtkl.load_multitask_sample(self.data_paths[0]).tasks
        mtkl.erm_fit(self.family, mtkl.MultiTaskSample(tuple(
            mtkl.TaskData(X=t.X[:32], y=t.y[:32]) for t in tasks)),
            mtkl.MarginParams(gamma=self.GAMMA))

    def unit(self, i):
        self.calls += 1
        out_dir = os.path.join(self.workdir, f"out{self.calls}")
        d = i % self.datasets
        argv = ["learn", "--family", self.family_path, "--data", self.data_paths[d],
                "--gamma", repr(self.GAMMA), "--out-dir", out_dir,
                "--seed", str(self.seed),
                "--grid-resolution", str(self.GRID_RESOLUTION),
                "--refine-rounds", str(self.REFINE_ROUNDS)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, out_dir, d

    def _read(self, out_dir):
        with open(os.path.join(out_dir, "solution.json"), encoding="utf-8") as fh:
            solution = json.load(fh)
        with open(os.path.join(out_dir, "errors.csv"), encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        return solution, rows

    def check(self, i, output):
        code, out_dir, d = output
        if code != 0:
            return [f"mtkl learn exited with {code}"]
        try:
            solution, rows = self._read(out_dir)
            header, tasks, avg_row = rows[0], rows[1:-1], rows[-1]
            errors = [float(r[1]) for r in tasks]
            avg = float(avg_row[1])
        except (OSError, ValueError, IndexError) as exc:
            return [f"artifacts do not parse: {exc!r}"]
        problems = []
        if header != ["task", "empirical_margin_error"] or avg_row[0] != "avg":
            problems.append("errors.csv header or avg row malformed")
        if len(errors) != self.N or not all(0.0 <= e <= 1.0 for e in errors):
            problems.append("errors.csv per-task rows wrong count or range")
        elif not math.isclose(avg, math.fsum(errors) / len(errors),
                              rel_tol=0.0, abs_tol=1e-12):
            problems.append("avg row is not the mean of the per-task rows")
        if solution["avg_empirical_margin_error"] != avg:
            problems.append("solution.json and errors.csv disagree on the average")
        kernel = kernels.instantiate(self.family, solution["kernel_params"])
        for t, (task, alphas) in enumerate(zip(self.samples[d].tasks,
                                               solution["alphas"])):
            alphas = np.asarray(alphas)
            if alphas.shape != (self.m,):
                problems.append(f"task {t}: alphas shape {alphas.shape}")
            elif not alphas @ kernel.gram(task.X) @ alphas <= 1.0 + NORM_TOL:
                problems.append(f"task {t}: predictor outside the unit ball")
        return problems

    def record(self, i, output):
        _, out_dir, _ = output
        blobs = []
        for name in ("solution.json", "errors.csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                blobs.append(fh.read())
        solution = json.loads(blobs[0])
        return solution["avg_empirical_margin_error"], b"".join(blobs)


WORKLOADS = {w.name: w for w in (Overhead, Trials, Capacity, Learn)}
