"""Synthetic task environments and the Monte Carlo verification harness.

Tasks are built around planted unit-norm RKHS functions: a distribution
draws inputs from a bounded law (uniform cube by default, optionally a
Gaussian mixture), rejects points inside a margin gap around the planted
decision boundary, labels by the planted function's sign, and flips labels
independently at a fixed noise rate. The gap makes the planted predictor's
double-margin error controllably small; the flip rate plants irreducible
error.

On a uniform cube whose planted rule reads a block of fewer than ``dim``
coordinates, rejection draws just that block; the kept rows then get one
full-width draw with the kept block written over it. The cube's coordinates
are independent, so the law of (x, y) is that of full-width rejection.

A Monte Carlo-size draw from an RBF rule on a block of at most two
coordinates first screens the block's cells: a cell where a certified
bound puts the planted rule inside the margin gap holds no row that
rejection keeps, so rounds draw only from the other cells and still test
every row. Rows are then uniform on the live cells, conditioned on the gap,
which is the same law; the bits differ from unscreened rounds.

An environment is a mixture of task clusters over a shared kernel
dictionary. Everything is seeded through ``numpy.random.SeedSequence``
spawning, so a trial is bitwise reproducible from its seed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .bounds import BoundInputs, multitask_epsilon
from .errors import (InputError, NumericError, number_array, read_json,
                     require_int, require_keys, require_number)
from .kernels import (Kernel, KernelFamily, as_points, kernel_from_dict,
                      pd_upper_bound)
from .margin import (MarginParams, Predictor, TaskData, fit_single_task,
                     margin_error_rate)
# enumerate_candidates and fit_candidate are not called here: run_trial
# searches through erm_search. perfbench/tracer.py wraps these bindings.
from .erm import (MultiTaskSample, MultiTaskSolution, SearchBudget,
                  enumerate_candidates, erm_fit, erm_search, fit_candidate,
                  searched_family_bound)

MAX_REJECTION_ROUNDS = 1000
# The cell screen of rejection sampling (Distribution._screen). It splits a
# planted RBF rule's block of at most SCREEN_MAX_DIMS columns into
# SCREEN_CELLS cells per axis, and rounds draw only the cells that can hold
# a kept row. It is built for calls of at least SCREEN_MIN_ROWS draws, and
# used when its live cells cover at most SCREEN_MAX_LIVE of the block.
# Measured on 2026-10-20 (2-vCPU Xeon, one OpenBLAS thread), median over 12
# rules of the benchmark's overhead environment (2-D block, bandwidth 0.2):
# - cells per axis: a 20k-draw sample, screen build included, took 7.7 ms
#   at 8, 5.2-5.4 ms from 16 to 64 and 6.2 ms at 128 (build 0.4 ms up to
#   64, 1.0 ms at 128), against 9.1-11 ms unscreened. At 32 the live cells
#   cover 19 % of the block and keep 72 % of their rows, so one round of 2m
#   rows keeps m; at 16 they keep 56 %, barely enough.
# - rows: screened against unscreened took 0.55 / 0.39 ms at m = 256,
#   0.75 / 0.80 ms at 1024, 1.03 / 1.13 ms at 2048, 1.63 / 2.19 ms at 4096.
# - live share: over 48 rules of bandwidths 0.2 to 0.6 at m = 20k and 100k,
#   screening took 0.45-0.92 of the unscreened time up to a share of 0.59,
#   and 1.1-1.6 of it above, where one unscreened round already keeps m.
# - columns: on 3-column blocks (24 rules of 6 anchors, bandwidths 0.2 to
#   0.6, gap 0.2) the 32^3-cell build took 2.2-3.4 ms, and screening took
#   more than the unscreened time above a live share of about 0.05 at
#   m = 4096, 0.15 at 20k and 0.3 at 100k. No workload plants a rule on
#   more than 2 columns, so the screen stops at 2.
SCREEN_MAX_DIMS = 2
SCREEN_CELLS = 32
SCREEN_MIN_ROWS = 4096
SCREEN_MAX_LIVE = 0.5
# The input_law keys each kind reads beside kind and dim; it reads no other.
INPUT_LAW_KEYS = {"uniform_cube": ("low", "high"),
                  "gaussian_mixture": ("means", "scales", "weights")}


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """An int, an entropy sequence or a SeedSequence, copied: never advanced."""
    if isinstance(seed, np.random.SeedSequence):
        return copy.copy(seed)
    return np.random.SeedSequence(seed)


@dataclass(frozen=True, eq=False)
class InputLaw:
    """Sampleable law over the input space with bounded-support default."""

    kind: str = "uniform_cube"
    dim: int = 2
    low: Optional[float] = None  # a uniform_cube fills in -1
    high: Optional[float] = None  # a uniform_cube fills in 1
    means: Optional[np.ndarray] = None
    scales: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in tuple(INPUT_LAW_KEYS):
            raise InputError(f"unknown input law {self.kind!r}")
        for kind, names in INPUT_LAW_KEYS.items():
            for name in names:
                if kind != self.kind and getattr(self, name) is not None:
                    raise InputError(f"{self.kind} input law does not read {name}")
        require_int(self.dim, "input_law dim", 1)
        if self.kind == "uniform_cube":
            for name, default in (("low", -1.0), ("high", 1.0)):
                if getattr(self, name) is None:
                    object.__setattr__(self, name, default)
                require_number(getattr(self, name), f"input_law {name}")
            # sample's in-place scaling would turn an overflowing span into inf
            if not 0 < self._span() < np.inf:
                raise InputError("uniform_cube requires a finite high - low > 0")
        if self.kind == "gaussian_mixture":
            if self.means is None:
                raise InputError("gaussian_mixture requires component means")
            means = np.atleast_2d(number_array(self.means, "input_law means"))
            k = means.shape[0]
            scales = np.ones(k) if self.scales is None else \
                number_array(self.scales, "input_law scales").ravel()
            weights = np.full(k, 1.0 / k) if self.weights is None else \
                number_array(self.weights, "input_law weights").ravel()
            if means.shape[1] != self.dim or len(scales) != k or len(weights) != k:
                raise InputError("inconsistent gaussian_mixture shapes")
            if np.any(scales <= 0) or np.any(weights < 0) or weights.sum() <= 0:
                raise InputError("mixture scales must be positive, weights nonnegative")
            object.__setattr__(self, "means", means)
            object.__setattr__(self, "scales", scales)
            object.__setattr__(self, "weights", weights / weights.sum())

    def _span(self) -> float:
        return float(self.high) - float(self.low)

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "uniform_cube":
            # rng.uniform's low + (high - low) * u, bit for bit, in place
            X = rng.random((m, self.dim))
            X *= self._span()
            X += self.low
            return X
        comp = rng.choice(len(self.weights), size=m, p=self.weights)
        return self.means[comp] + self.scales[comp, None] * \
            rng.standard_normal((m, self.dim))


def _rule_norm_sq(kernel: Kernel, anchors, coeffs) -> float:
    """K-norm^2 of the rule sum_j coeffs[j] K(anchors[j], .); an anchor or
    coefficient that is NaN or infinite, or a coefficient count other than
    one per anchor, raises InputError first."""
    if not (np.isfinite(anchors).all() and np.isfinite(coeffs).all()):
        raise InputError("planted anchors and coefficients must be finite")
    G = kernel.gram(anchors)
    if np.shape(coeffs) != (len(G),):
        raise InputError(f"planted coefficients of shape {np.shape(coeffs)} "
                         f"for {len(G)} anchors")
    return float(coeffs @ G @ coeffs)


def _cell_bounds(kernel: Kernel, coeffs, anchors, low: float, width: float,
                 cells: int):
    """(lower, upper): bounds on the RBF rule sum_j coeffs[j] k(anchors[j], x)
    over each cell of a grid of ``cells`` cells per axis, of side ``width``,
    from ``low``; arrays of shape ``(cells,) * d``. Each cell is padded by a
    few ulps. An anchor's term factors per axis, and on an interval a factor
    is largest at the point nearest the anchor and smallest at the farthest;
    each term is then bounded by the sign of its coefficient."""
    d = anchors.shape[1]
    edges = low + width * np.arange(cells)
    pad = 4.0 * np.spacing(max(abs(low), abs(edges[-1] + width)))
    lo, hi = edges - pad, edges + width + pad
    lower, upper = np.zeros((cells,) * d), np.zeros((cells,) * d)
    # anchors in chunks, so that the factor products hold 2^16 cells at most
    step = max(1, (1 << 16) // cells ** d)
    for w, base in kernel.terms:
        scale = -0.5 / (base.bandwidth * base.bandwidth)
        for start in range(0, len(anchors), step):
            a, s = anchors[start:start + step], w * coeffs[start:start + step]
            near = far = np.ones((len(a),) + (1,) * d)
            for axis in range(d) if base.dims is None else base.dims:
                at = a[:, axis, None]
                nearest = np.maximum(np.maximum(lo - at, at - hi), 0.0)
                farthest = np.maximum(at - lo, hi - at)
                shape = [len(a)] + [1] * d
                shape[1 + axis] = cells
                near = near * np.exp(scale * nearest * nearest).reshape(shape)
                far = far * np.exp(scale * farthest * farthest).reshape(shape)
            pos, neg = np.maximum(s, 0.0), np.minimum(s, 0.0)
            upper += np.tensordot(pos, near, 1) + np.tensordot(neg, far, 1)
            lower += np.tensordot(pos, far, 1) + np.tensordot(neg, near, 1)
    return lower, upper


def _value_tolerance(kernel: Kernel, coeffs, anchors, low: float,
                     high: float) -> float:
    """A bound, with room to spare, on the float error of an RBF rule's
    computed value on a cube row, and of ``_cell_bounds``' own sums: the
    error of a squared distance grows with the squared norms, which the
    smallest bandwidth scales into the exponent."""
    reads = max(anchors.shape[1] if base.dims is None else len(base.dims)
                for _, base in kernel.terms)
    norms = reads * (max(low * low, high * high) + float(np.max(anchors ** 2)))
    bandwidth = min(base.bandwidth for _, base in kernel.terms)
    weight = sum(w for w, _ in kernel.terms) * float(np.sum(np.abs(coeffs)))
    return 16.0 * np.finfo(float).eps * weight * (
        2 + len(anchors) + len(kernel.terms)
        + (reads + 2) * norms / (bandwidth * bandwidth))


@dataclass(frozen=True, eq=False)
class Distribution:
    """A labeled-data distribution with a planted unit-norm decision rule."""

    input_law: InputLaw
    kernel: Kernel
    anchors: np.ndarray
    coeffs: np.ndarray  # unit K-norm over the anchors
    margin_gap: float = 0.0
    flip_rate: float = 0.0
    component: int = 0

    def __post_init__(self):
        require_number(self.flip_rate, "flip_rate")
        if not 0.0 <= self.flip_rate < 0.5:
            raise InputError("flip_rate must be in [0, 0.5)")
        require_number(self.margin_gap, "margin_gap")
        if self.margin_gap < 0:
            raise InputError("margin_gap must be nonnegative")
        norm_sq = _rule_norm_sq(self.kernel, self.anchors, self.coeffs)
        if not norm_sq <= 1.0 + 1e-8:  # a NaN norm fails too
            raise InputError(f"planted rule K-norm^2 = {norm_sq} is not at most 1")

    def planted_predictor(self) -> Predictor:
        return Predictor(alphas=self.coeffs, support_sample=self.anchors,
                         kernel=self.kernel)

    def decision_values(self, X) -> np.ndarray:
        return self.kernel.expand(self.coeffs, self.anchors, X)

    @cached_property
    def _rejection_rule(self):
        """(input law, kernel, anchors, columns) that rejection draws and
        scores with. When every planted term reads ``dims`` of a uniform
        cube, together fewer than ``dim`` columns, these are the block's law,
        the kernel with ``dims`` renumbered into the block and the anchors
        cut to it: each term selects the values it selects on full rows. A
        term whose renumbered dims are the whole block in order gets
        ``dims=None`` and reads the block in place. In any other case (dims
        out of range included) columns is None."""
        law = self.input_law
        dims = [base.dims for _, base in self.kernel.terms]
        view = [] if None in dims else sorted(set().union(*dims))
        if law.kind != "uniform_cube" or not view or len(view) >= law.dim \
                or view[-1] >= law.dim:
            return law, self.kernel, self.anchors, None
        column = {d: i for i, d in enumerate(view)}
        whole = tuple(range(len(view)))
        terms = []
        for w, base in self.kernel.terms:
            # dims that read the whole block in order become None: the term
            # then reads the block in place, not a copy of the same columns
            dims = tuple(column[d] for d in base.dims)
            terms.append((w, replace(base, dims=None if dims == whole else dims)))
        kernel = Kernel(terms=tuple(terms), bound_b=self.kernel.bound_b)
        return (InputLaw(dim=len(view), low=law.low, high=law.high), kernel,
                as_points(self.anchors)[:, view], view)

    @cached_property
    def _screen(self):
        """(cell law, live corners): the law of a row's offset in its cell,
        uniform on ``[0, width)`` per axis, and the lower corners of the
        block's live cells, one row each in C order. None when the rule
        cannot be screened (not the block of a uniform cube, more than
        SCREEN_MAX_DIMS columns, a term that is not RBF, no gap) or its live
        cells cover more than SCREEN_MAX_LIVE of the block.

        A cell is dead when ``_cell_bounds`` puts the rule inside the gap,
        less ``_value_tolerance``, on the whole cell: then no row in it has a
        computed |h*(x)| >= margin_gap, and rejection would keep none."""
        law, kernel, anchors, view = self._rejection_rule
        if view is None or law.dim > SCREEN_MAX_DIMS or self.margin_gap <= 0 \
                or any(base.kind != "rbf" for _, base in kernel.terms):
            return None
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        width = law._span() / SCREEN_CELLS
        lower, upper = _cell_bounds(kernel, coeffs, anchors, law.low, width,
                                    SCREEN_CELLS)
        reach = self.margin_gap - _value_tolerance(kernel, coeffs, anchors,
                                                   law.low, law.high)
        live = (upper >= reach) | (lower <= -reach)
        if live.mean() > SCREEN_MAX_LIVE:
            return None
        return (InputLaw(dim=law.dim, low=0.0, high=width),
                law.low + width * np.argwhere(live))

    def sample(self, m: int, rng: np.random.Generator):
        """Draw m labeled points; rejection keeps |h*(x)| >= margin_gap.

        Each round draws ``max(2m, 64)`` inputs and computes their planted
        values once: they decide which points are kept, and a kept point's
        sign is its label before flips. When the rule reads a block of a
        uniform cube (``_rejection_rule``), rounds draw that block alone and
        one ``(m, dim)`` draw then fills the kept rows' other columns. Label
        flips are drawn last.

        A call of at least SCREEN_MIN_ROWS draws whose rule has a screen
        (``_screen``) draws each round's rows as offsets in a cell, then,
        SCREEN_MIN_ROWS rows at a time, a live cell for each row, uniformly.
        Rows are then uniform on the live cells, and every row is still tested:
        the law of (x, y) is that of unscreened rounds, but not the bits.
        Every other call draws the bits of unscreened rounds. With no live
        cell, the call raises NumericError before any draw. m = 0 draws
        nothing and returns empty arrays.
        """
        require_int(m, "sample size m", 0)
        if m == 0:  # no round: one that kept no row has nothing to join
            return np.empty((0, self.input_law.dim)), np.empty(0)
        law, kernel, anchors, view = self._rejection_rule
        screen = self._screen if m >= SCREEN_MIN_ROWS else None
        if screen is not None:
            law, corners = screen
            if not len(corners):
                raise NumericError(f"margin gap {self.margin_gap} rejects "
                                   "every input: the rule is inside it on "
                                   "every cell")
        xs, vs = [], []
        kept = 0
        for _ in range(MAX_REJECTION_ROUNDS):
            batch = law.sample(max(2 * m, 64), rng)
            if screen is not None:
                for start in range(0, len(batch), SCREEN_MIN_ROWS):
                    part = batch[start:start + SCREEN_MIN_ROWS]
                    # take, not corners[...]: 0.29 against 0.68 ms per 40k
                    # rows of 2 columns (2-vCPU Xeon)
                    part += corners.take(rng.integers(len(corners),
                                                      size=len(part)), axis=0)
            vals = kernel.expand(self.coeffs, anchors, batch)
            good = np.abs(vals) >= self.margin_gap
            if good.any():
                # the rows of batch[good] in their order; np.compress took
                # 0.28 against 2.0 ms on a (200000, 2) round (2-vCPU Xeon)
                xs.append(np.compress(good, batch, axis=0))
                vs.append(np.compress(good, vals))
                kept += int(good.sum())
            if kept >= m:
                break
        else:
            raise NumericError(
                f"margin gap {self.margin_gap} rejects nearly all inputs")
        X = np.concatenate(xs)[:m]
        if view is not None:
            block, X = X, self.input_law.sample(m, rng)
            X[:, view] = block
        y = np.where(np.concatenate(vs)[:m] >= 0.0, 1.0, -1.0)
        if self.flip_rate > 0.0:
            flips = rng.random(m) < self.flip_rate
            y = np.where(flips, -y, y)
        return X, y


def make_planted_distribution(input_law: InputLaw, kernel: Kernel, anchors,
                              coeffs, margin_gap: float = Distribution.margin_gap,
                              flip_rate: float = Distribution.flip_rate
                              ) -> Distribution:
    """Normalize ``coeffs`` to unit K-norm and build the distribution."""
    anchors = np.asarray(anchors, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64).ravel()
    norm_sq = _rule_norm_sq(kernel, anchors, coeffs)
    if not norm_sq > 1e-14:  # a NaN norm fails too
        raise InputError(f"planted coefficients have K-norm^2 = {norm_sq}, "
                         "not above 1e-14")
    return Distribution(input_law=input_law, kernel=kernel, anchors=anchors,
                        coeffs=coeffs / np.sqrt(norm_sq),
                        margin_gap=margin_gap, flip_rate=flip_rate)


@dataclass(frozen=True)
class TaskCluster:
    """Law of one task type: planted-rule shape, noise, and label balance.

    ``balance_slack`` rejects drawn rules whose positive-label mass deviates
    from 1/2 by more than the slack (0.5 disables the check); without it,
    sign-biased planted rules yield near-constant labelings that any kernel
    fits trivially."""

    kernel_index: int
    weight: float = 1.0
    n_anchors: int = 6
    margin_gap: float = 0.25
    flip_rate: float = 0.0
    balance_slack: float = 0.5

    def __post_init__(self):
        require_int(self.kernel_index, "cluster kernel_index")
        require_int(self.n_anchors, "cluster n_anchors", 1)
        require_number(self.weight, "cluster weight", positive=True)
        for name in ("margin_gap", "flip_rate", "balance_slack"):
            require_number(getattr(self, name), f"cluster {name}")
        if not 0.0 < self.balance_slack <= 0.5:
            raise InputError("balance_slack must be in (0, 0.5]")


@dataclass(frozen=True, eq=False)
class TaskEnvironment:
    """A mixture of task clusters planted under a shared kernel dictionary."""

    dictionary: tuple[Kernel, ...]
    input_law: InputLaw
    clusters: tuple[TaskCluster, ...] = (TaskCluster(kernel_index=0),)

    def __post_init__(self):
        if not self.dictionary:
            raise InputError("environment needs a kernel dictionary")
        if not self.clusters:
            raise InputError("environment needs at least one cluster")
        for c in self.clusters:
            if not 0 <= c.kernel_index < len(self.dictionary):
                raise InputError(f"cluster kernel_index {c.kernel_index} out of range")

    @property
    def shared_kernel_index(self) -> int:
        indices = {c.kernel_index for c in self.clusters}
        if len(indices) != 1:
            raise InputError("clusters do not share one planted kernel")
        return next(iter(indices))

    def draw_task(self, rng: np.random.Generator) -> Distribution:
        weights = np.array([c.weight for c in self.clusters])
        idx = int(rng.choice(len(self.clusters), p=weights / weights.sum()))
        cluster = self.clusters[idx]
        kernel = self.dictionary[cluster.kernel_index]
        for _ in range(200):
            anchors = self.input_law.sample(cluster.n_anchors, rng)
            coeffs = rng.standard_normal(cluster.n_anchors)
            norm_sq = _rule_norm_sq(kernel, anchors, coeffs)
            if norm_sq <= 1e-10:
                continue
            coeffs /= np.sqrt(norm_sq)
            # the balance probe scores the rule as Distribution.decision_values
            # would; only an accepted rule builds one, which checks its norm
            if cluster.balance_slack < 0.5:
                probe = self.input_law.sample(512, rng)
                vals = kernel.expand(coeffs, anchors, probe)
                kept = vals[np.abs(vals) >= cluster.margin_gap]
                if len(kept) < 64:
                    continue
                positive = float(np.mean(kept >= 0.0))
                if abs(positive - 0.5) > cluster.balance_slack:
                    continue
            return Distribution(
                input_law=self.input_law, kernel=kernel, anchors=anchors,
                coeffs=coeffs, margin_gap=cluster.margin_gap,
                flip_rate=cluster.flip_rate, component=idx)
        raise NumericError("could not draw a planted rule satisfying the cluster "
                           "constraints (norm / label balance)")


def sample_lifelong(env: TaskEnvironment, n: int, seed) -> list[Distribution]:
    """n i.i.d. task draws from the environment; deterministic per seed."""
    require_int(n, "n", 1)
    streams = as_seed_sequence(seed).spawn(n)
    return [env.draw_task(np.random.default_rng(s)) for s in streams]


def _draw_per_task(distributions, m: int, seed) -> list:
    """m draws ``(X, y)`` from each distribution; distribution i draws from
    ``default_rng(SeedSequence(seed).spawn(len(distributions))[i])``."""
    streams = as_seed_sequence(seed).spawn(len(distributions))
    return [dist.sample(m, np.random.default_rng(s))
            for dist, s in zip(distributions, streams)]


def sample_multitask(distributions: Sequence[Distribution], m: int,
                     seed) -> MultiTaskSample:
    """m i.i.d. draws per task with distinct per-task substreams."""
    require_int(m, "m", 1)
    return MultiTaskSample(tasks=tuple(
        TaskData(X=X, y=y) for X, y in _draw_per_task(distributions, m, seed)))


# ---------------------------------------------------------------------------
# Trials.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialReport:
    er_hat: float
    er: float
    er_2gamma: float
    epsilon: float
    sandwich_ok: bool
    epsilon_valid: bool


@dataclass(frozen=True)
class ErmGuaranteeReport:
    er_2gamma_best: float
    holds: bool


@dataclass(frozen=True, eq=False)
class TrialOutcome:
    report: TrialReport
    guarantee: Optional[ErmGuaranteeReport]
    solution: MultiTaskSolution


def _same_scores(a: Predictor, b: Predictor) -> bool:
    """Whether ``a.evaluate`` and ``b.evaluate`` return the same bits on any
    rows: equal term weights on the same BaseKernel objects (a BaseKernel
    equals only itself), the same support sample and equal alphas."""
    return (a.support_sample is b.support_sample
            and a.kernel.terms == b.kernel.terms
            and np.array_equal(a.alphas, b.alphas))


def _mc_risks(predictor_sets, distributions, margins, mc_samples, seed):
    """Each set's mean over tasks of the Monte Carlo P(y h(x) < margin), one
    list per set, at each of ``margins``. Every set is scored on the same
    draws, task i's from child i of ``seed`` (``_draw_per_task``). A set
    that ``_same_scores`` matches with an earlier set on every task takes
    that set's risks unscored; at most one set's scores are held at once."""
    mc_data = _draw_per_task(distributions, mc_samples, seed)
    risks = []
    for preds in predictor_sets:
        risk = next((r for r, done in zip(risks, predictor_sets)
                     if all(map(_same_scores, preds, done))), None)
        if risk is None:
            rates = []  # per task, per margin
            for h, (X, y) in zip(preds, mc_data):
                scores = y * h.evaluate(X)
                rates.append([margin_error_rate(scores, g) for g in margins])
            risk = [float(np.mean(r)) for r in zip(*rates)]
        risks.append(risk)
    return risks


def avg_true_error(predictors: Sequence[Predictor], distributions: Sequence,
                   gamma: float, mc_samples: int, seed) -> float:
    """Mean over tasks of the Monte Carlo estimate of P(y h(x) < gamma), by
    ``_mc_risks``: ``run_trial`` and ``overhead_curve`` draw the same
    per-task streams, so a trial's Monte Carlo seed reproduces its ``er``
    and ``er_2gamma``. One task's risk is ``avg_true_error([h], [dist], ...)``.
    """
    if len(distributions) != len(predictors):
        raise InputError(
            f"{len(distributions)} distributions for {len(predictors)} tasks")
    require_number(gamma, "gamma")
    require_int(mc_samples, "mc_samples", 1)
    return _mc_risks([predictors], distributions, (gamma,), mc_samples,
                     seed)[0][0]


def run_trial(source: Union[TaskEnvironment, Sequence[Distribution]],
              family: KernelFamily, n: int, m: int, gamma: float, delta: float,
              seed, mc_samples: int = 100_000,
              budget: SearchBudget = SearchBudget(),
              evaluate_guarantee: bool = True) -> TrialOutcome:
    """One seeded end-to-end trial: evaluate the deviation bound (so a bad
    ``delta`` fails before any draw), sample tasks and data, run ERM (the
    same search as ``erm_fit``), Monte Carlo the true risks, and check the
    two-sided sandwich (and optionally the ERM guarantee against the best
    grid candidate under the double-margin risk). One ``_mc_risks`` call
    scores the chosen set and the grid's sets at margins 0 and 2 gamma."""
    eps_res = multitask_epsilon(BoundInputs(
        n=n, m=m, d_phi=max(1.0, pd_upper_bound(family)),
        B=searched_family_bound(family), gamma=gamma), delta)
    params = MarginParams(gamma=gamma)
    require_int(mc_samples, "mc_samples", 1)
    root = as_seed_sequence(seed)
    ss_tasks, ss_data, ss_mc = root.spawn(3)
    if isinstance(source, TaskEnvironment):
        distributions = sample_lifelong(source, n, ss_tasks)
    else:
        distributions = list(source)
        if len(distributions) != n:
            raise InputError(f"got {len(distributions)} distributions for n={n}")
    sample = sample_multitask(distributions, m, ss_data)

    solution, grid_fits = erm_search(family, sample, params, budget)
    grid_sets = [preds for preds, _ in grid_fits] if evaluate_guarantee else []
    (er, er_2g), *grid_risks = _mc_risks(
        [solution.predictors, *grid_sets], distributions, (0.0, 2.0 * gamma),
        mc_samples, ss_mc)

    eps = eps_res.epsilon
    er_hat = solution.avg_empirical_margin_error
    report = TrialReport(
        er_hat=er_hat, er=er, er_2gamma=er_2g, epsilon=eps,
        sandwich_ok=bool(er_2g + eps >= er_hat >= er - eps),
        epsilon_valid=eps_res.valid)

    guarantee = None
    if evaluate_guarantee:
        best_2g = min(risk_2g for _, risk_2g in grid_risks)
        guarantee = ErmGuaranteeReport(
            er_2gamma_best=best_2g, holds=bool(er <= best_2g + 2.0 * eps))
    return TrialOutcome(report=report, guarantee=guarantee, solution=solution)


# ---------------------------------------------------------------------------
# Overhead curves.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverheadPoint:
    n: int
    trial: int
    erm_error: float
    oracle_error: float
    excess_error: float
    estimation_gap: float


def overhead_curve(env: TaskEnvironment, family: KernelFamily, m: int,
                   n_grid: Sequence[int], trials: int, seed, gamma: float,
                   mc_samples: int = 20_000,
                   budget: SearchBudget = SearchBudget()) -> list[OverheadPoint]:
    """Excess error of the ERM learner over the true-kernel oracle learner,
    and its estimation gap, for each task count in ``n_grid``.

    The oracle learner fits the same per-task problems with the environment's
    planted kernel; one ``_mc_risks`` call scores ERM's fits, then the
    oracle's, on the same Monte Carlo draws, so the excess is a paired
    comparison. Oracle fits that score as ERM's do (``_same_scores``) take
    ERM's error and are not scored a second time.
    """
    for n in n_grid:
        require_int(n, "n_grid entry", 1)
    if list(n_grid) != sorted(n_grid) or len(n_grid) == 0:
        raise InputError("n_grid must be a nondecreasing nonempty sequence")
    params = MarginParams(gamma=gamma)
    require_int(trials, "trials", 1)
    require_int(mc_samples, "mc_samples", 1)
    oracle_kernel = env.dictionary[env.shared_kernel_index]
    root = as_seed_sequence(seed)
    points = []
    for n in n_grid:
        for trial in range(trials):
            ss_tasks, ss_data, ss_mc = root.spawn(3)
            distributions = sample_lifelong(env, n, ss_tasks)
            sample = sample_multitask(distributions, m, ss_data)
            solution = erm_fit(family, sample, params, budget)
            oracle_preds = tuple(fit_single_task(oracle_kernel, t, params)
                                 for t in sample.tasks)
            (erm_er,), (oracle_er,) = _mc_risks(
                (solution.predictors, oracle_preds), distributions, (0.0,),
                mc_samples, ss_mc)
            points.append(OverheadPoint(
                n=n, trial=trial, erm_error=erm_er, oracle_error=oracle_er,
                excess_error=erm_er - oracle_er,
                estimation_gap=abs(erm_er - solution.avg_empirical_margin_error)))
    return points


# ---------------------------------------------------------------------------
# Environment definition files (JSON; schema in FORMATS.md).
# ---------------------------------------------------------------------------


def environment_from_dict(spec: dict) -> TaskEnvironment:
    require_keys(spec, {"dictionary", "input_law", "clusters"}, "environment spec",
                 ("dictionary", "input_law", "clusters"))
    for key in ("dictionary", "clusters"):
        if not isinstance(spec[key], list):
            raise InputError(f"environment {key} must be a list")
    law = spec["input_law"]
    if not isinstance(law, dict):
        raise InputError("input_law spec must be a JSON object")
    kind = law.get("kind", InputLaw.kind)
    if kind not in tuple(INPUT_LAW_KEYS):  # a JSON list is unhashable
        raise InputError(f"unknown input law {kind!r}")
    require_keys(law, {"kind", "dim", *INPUT_LAW_KEYS[kind]},
                 f"{kind} input_law spec", ("dim",))
    for key in INPUT_LAW_KEYS["uniform_cube"]:
        if key in law:  # null, unlike an absent key, is an error
            require_number(law[key], f"input_law {key}")
    for c in spec["clusters"]:
        require_keys(c, {"weight", "kernel_index", "n_anchors", "margin_gap",
                         "flip_rate", "balance_slack"}, "cluster spec",
                     ("kernel_index",))
    return TaskEnvironment(
        dictionary=tuple(kernel_from_dict(k) for k in spec["dictionary"]),
        input_law=InputLaw(**law),
        clusters=tuple(TaskCluster(**c) for c in spec["clusters"]))


def load_environment(path) -> TaskEnvironment:
    return environment_from_dict(read_json(path, "environment file"))
