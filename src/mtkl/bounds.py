"""Closed-form capacity and generalization bound formulas.

Everything here is evaluated in log space, term by term, so inputs up to
``n, m ~ 1e9`` never overflow. :class:`BoundInputs` is the problem
``(n, m, d_phi, B, gamma)``; each function takes it with only the query it
answers: the multi-task bound turns a confidence ``delta`` into a radius,
the lifelong bound turns a radius ``epsilon`` into a failure probability.
Two existence-only constants appear in the source formulas
(:class:`BoundConstants`): ``C`` scales the distribution-level kernel-cover
bound and ``c`` scales the empirical-to-distributional sample size. They
are passed to the functions that read them, default to 1, and any reported
number is only meaningful relative to that choice.

The multi-task bound is built from :func:`cover_bound_hn` at radius
``gamma/2`` on ``2m`` points, the lifelong bound from that cover at radius
``gamma/4`` on ``2m`` points and :func:`cover_bound_kernel_dn` at radius
``eps gamma/64``. Logs are natural except the function-cover exponent log
of :func:`cover_bound_fk`, which is base 2 as in its source.

Degenerate log arguments (<= 1) clamp that log factor to 0 and add a warning
instead of raising: a covering number is always >= 1, so clamping keeps the
evaluated expression a valid upper bound in regimes the formulas were not
meant for (tiny m, huge margins). Arithmetic that leaves the float range
raises NumericError naming the function and its arguments.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

from .errors import InputError, NumericError, require_int, require_number

EPSILON_BRACKET = (1e-6, 2.0)


@dataclass(frozen=True)
class BoundConstants:
    """Existence-only constants; placeholders defaulting to 1."""

    C: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        require_number(self.C, "bound constant C", positive=True)
        require_number(self.c, "bound constant c", positive=True)


@dataclass(frozen=True)
class BoundInputs:
    n: int
    m: int
    d_phi: float
    B: float
    gamma: float

    def __post_init__(self):
        require_int(self.n, "n", 1)
        require_int(self.m, "m", 1)
        require_number(self.d_phi, "d_phi")
        if self.d_phi < 1:
            raise InputError("d_phi must be >= 1")
        require_number(self.B, "B", positive=True)
        require_number(self.gamma, "gamma", positive=True)


@dataclass(frozen=True)
class LogBound:
    log_value: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class EpsilonResult:
    epsilon: float
    valid: bool
    warnings: tuple[str, ...]
    terms: dict[str, float]


@dataclass(frozen=True)
class DeltaResult:
    delta: float
    log_sample_term: float
    log_environment_term: float
    overflow: bool
    valid: bool
    warnings: tuple[str, ...]


def _in_float_range(fn):
    """``fn``, raising NumericError that names it and its arguments where a
    float operation raises ZeroDivisionError or OverflowError."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ZeroDivisionError, OverflowError) as exc:
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            call = ", ".join(f"{k}={v!r}" for k, v in bound.items())
            raise NumericError(f"{fn.__name__}({call}) leaves the float range: "
                               f"{exc.args[-1]}") from exc
    return checked


def _require_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        require_number(value, name, positive=True)


def _require_probability(value, context: str) -> None:
    require_number(value, context)
    if not 0.0 < value <= 1.0:
        raise InputError(f"{context} must be in (0, 1], got {value!r}")


def _clog(x: float, label: str, warnings: list[str], base2: bool = False) -> float:
    """log(x) clamped to 0 for x <= 1, recording a degraded-regime warning."""
    if x <= 1.0:
        warnings.append(f"degraded regime: log argument {label} = {x:g} <= 1, clamped")
        return 0.0
    return math.log2(x) if base2 else math.log(x)


def _log_add(a: float, b: float) -> float:
    """log(e^a + e^b) without overflow; log(e^inf + e^inf) is inf."""
    if a == b and math.isinf(a):
        return a
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


def _clamped_product(*factors: float) -> float:
    """The factors' product in order, but 0 if one is 0: a log clamped to 0
    zeroes its term even where another factor overflowed to inf."""
    return 0.0 if 0.0 in factors else math.prod(factors)


def _hn_logs(n: int, m: int, B: float, d_phi: float, scale: float, k: int,
             exponent_n: int, warns: list[str]) -> tuple[float, float]:
    """:func:`cover_bound_hn`'s kernel log and function term at eps = scale/k,
    with ``exponent_n`` as the n of ``64 B n / eps^2``. eps^2 is taken as
    scale**2 / k**2, since the pow in (scale/k)**2 can be an ulp off it."""
    eps = scale / k
    eps2 = scale**2 / k**2
    cover = f" of hn(m={m}, eps={eps:g})"
    log_kernel = _clog(4.0 * math.e * n**2 * m**3 * B / (eps2 * d_phi),
                       "4en^2m^3B/(eps^2 d_phi)" + cover, warns)
    t_function = _clamped_product(64.0 * B * exponent_n / eps2, _clog(
        math.e * eps * m / (8.0 * math.sqrt(B)), "e*eps*m/(8 sqrt(B))" + cover,
        warns), _clog(16.0 * m * B / eps2, "16mB/eps^2" + cover, warns))
    return log_kernel, t_function


@_in_float_range
def cover_bound_hn(n: int, m: int, B: float, d_phi: float,
                   epsilon: float) -> LogBound:
    """Natural log of the sup-metric cover bound for n-tuples of unit-ball
    predictors over a kernel family:

        2^n (4 e n^2 m^3 B / (eps^2 d_phi))^{d_phi}
            * (16 m B / eps^2)^{(64 B n / eps^2) log(e eps m / (8 sqrt(B)))}
    """
    _require_positive(n=n, m=m, B=B, d_phi=d_phi, epsilon=epsilon)
    warns: list[str] = []
    log_kernel, t_function = _hn_logs(n, m, B, d_phi, epsilon, 1, n, warns)
    return LogBound(log_value=n * math.log(2.0) + d_phi * log_kernel + t_function,
                    warnings=tuple(warns))


@_in_float_range
def cover_bound_fk(m: int, B: float, epsilon: float) -> LogBound:
    """Natural log of the single-kernel function-class cover bound
    ``2 (4 m B / eps^2)^{(16 B / eps^2) log2(eps e m / (4 sqrt(B)))}``
    (the inner log is base 2 as written in its source)."""
    _require_positive(m=m, B=B, epsilon=epsilon)
    warns: list[str] = []
    exp_log2 = _clog(epsilon * math.e * m / (4.0 * math.sqrt(B)),
                     "eps*e*m/(4 sqrt(B))", warns, base2=True)
    value = math.log(2.0) + _clamped_product(
        16.0 * B / epsilon**2, exp_log2,
        _clog(4.0 * m * B / epsilon**2, "4mB/eps^2", warns))
    return LogBound(log_value=value, warnings=tuple(warns))


@_in_float_range
def cover_bound_kernel_nm(n: int, m: int, B: float, d_phi: float,
                          epsilon: float) -> float:
    """Natural log of the sample-based kernel cover chain bound
    ``(e n^2 m^2 B / (eps d_phi))^{d_phi}`` (evaluated exactly as written)."""
    _require_positive(n=n, m=m, B=B, d_phi=d_phi, epsilon=epsilon)
    return d_phi * math.log(math.e * n**2 * m**2 * B / (epsilon * d_phi))


def cover_bound_kernel_dn(n: int, d_phi: float, B: float, epsilon: float,
                          constants: BoundConstants = BoundConstants()) -> float:
    """Natural log of the distribution-level kernel cover bound
    ``(C n^5 d_phi^5 (sqrt(B)/eps)^17)^{d_phi}``."""
    _require_positive(n=n, d_phi=d_phi, B=B, epsilon=epsilon)
    return d_phi * (math.log(constants.C) + 5.0 * math.log(n)
                    + 5.0 * math.log(d_phi)
                    + 17.0 * math.log(math.sqrt(B) / epsilon))


@_in_float_range
def appendix_sample_size(d_phi: float, B: float, epsilon: float,
                         constants: BoundConstants = BoundConstants()) -> float:
    """Sample size ``c d_phi^2 B^{5/2} / eps^5`` sufficient for empirical
    kernel distances to track their distributional counterparts."""
    _require_positive(d_phi=d_phi, B=B, epsilon=epsilon)
    return constants.c * d_phi**2 * B**2.5 / epsilon**5


@_in_float_range
def multitask_epsilon(inputs: BoundInputs, delta: float) -> EpsilonResult:
    """Estimation-error radius for n tasks with m samples each, holding with
    probability at least ``1 - delta``:

        eps = sqrt(8 [ (2 log2 - log delta)/n + H/n ] / m)

    with ``H`` the log of :func:`cover_bound_hn` at radius ``gamma/2`` on
    ``2m`` points, divided by n term by term. The self-referential validity
    condition ``m > 2/eps^2`` is evaluated on the computed eps and surfaced
    as ``valid``, never silently. An eps that is not finite is not valid,
    and a warning names the terms that are not finite.
    """
    _require_probability(delta, "delta")
    n, m = inputs.n, inputs.m
    warns: list[str] = []
    log_kernel, t_function = _hn_logs(n, 2 * m, inputs.B, inputs.d_phi,
                                      inputs.gamma, 2, 1, warns)
    t_confidence = (2.0 * math.log(2.0) - math.log(delta)) / n
    t_patterns = math.log(2.0)
    t_kernel = (inputs.d_phi / n) * log_kernel
    terms = {"confidence": t_confidence, "patterns": t_patterns,
             "kernel_overhead": t_kernel, "function_cover": t_function}
    epsilon = math.sqrt(8.0 * sum(terms.values()) / m)
    finite = math.isfinite(epsilon)
    if not finite:
        bad = [f"{name} = {value!r}" for name, value in terms.items()
               if not math.isfinite(value)]
        warns.append(f"epsilon = {epsilon!r} is not finite, so not valid: "
                     + (", ".join(bad) or "the terms' sum leaves the float range"))
    return EpsilonResult(
        epsilon=epsilon,
        valid=finite and epsilon > 0 and m > 2.0 / epsilon**2,
        warnings=tuple(warns),
        terms=terms,
    )


def _lifelong_log_terms(inputs: BoundInputs, epsilon: float,
                        constants: BoundConstants, warns: list[str]):
    n, m = inputs.n, inputs.m
    d_phi, B, gamma = inputs.d_phi, inputs.B, inputs.gamma
    log_kernel, t_function = _hn_logs(n, 2 * m, B, d_phi, gamma, 4, n, warns)
    log_sample = ((n + 2) * math.log(2.0) + d_phi * log_kernel + t_function
                  - n * m * epsilon**2 / 32.0)
    log_env = (math.log(4.0)
               + cover_bound_kernel_dn(n, d_phi, B, epsilon * gamma / 64.0,
                                       BoundConstants(C=32.0 * constants.C))
               - n * epsilon**2 / 128.0)
    return log_sample, log_env


@_in_float_range
def lifelong_delta(inputs: BoundInputs, epsilon: float,
                   constants: BoundConstants = BoundConstants()) -> DeltaResult:
    """Failure probability ``4 H e^{-n m eps^2/32} + 4 K e^{-n eps^2/128}``
    for learning a kernel over a task environment, evaluated in log space.
    ``H`` and ``K`` are the covers of :func:`cover_bound_hn` at radius
    ``gamma/4`` on ``2m`` points and :func:`cover_bound_kernel_dn` at radius
    ``eps gamma/64`` with constant ``32 C``. The result is clamped to [0, 1]; ``overflow`` records a summand
    whose log exceeded 0. The preconditions ``n > 8/eps^2`` and ``m >
    8/eps^2`` are reported via ``valid``; the value is computed either way.
    """
    _require_positive(epsilon=epsilon)
    warns: list[str] = []
    log_sample, log_env = _lifelong_log_terms(inputs, epsilon, constants, warns)
    overflow = log_sample > 0.0 or log_env > 0.0
    total_log = _log_add(log_sample, log_env)
    delta = 1.0 if total_log > 0.0 else math.exp(total_log)
    valid = inputs.n > 8.0 / epsilon**2 and inputs.m > 8.0 / epsilon**2
    return DeltaResult(
        delta=min(delta, 1.0),
        log_sample_term=log_sample,
        log_environment_term=log_env,
        overflow=overflow,
        valid=valid,
        warnings=tuple(warns),
    )


@_in_float_range
def invert_epsilon(inputs: BoundInputs, target: float,
                   constants: BoundConstants = BoundConstants()) -> float:
    """Solve ``lifelong_delta(inputs, eps, constants) = target`` for eps by
    bisection on the bracket [1e-6, 2] (the failure probability is
    continuous and strictly decreasing in eps), until the bracket closes.
    Raises InputError when the target is not bracketed at this scale, and
    NumericError where the failure probability's log is NaN."""
    _require_probability(target, "target")
    log_target = math.log(target)
    warns: list[str] = []

    def log_total(eps: float) -> float:
        value = _log_add(*_lifelong_log_terms(inputs, eps, constants, warns))
        if math.isnan(value):  # a NaN would pass every bracket test below
            raise NumericError(f"lifelong failure probability at eps={eps!r} "
                               "is NaN")
        return value

    lo, hi = EPSILON_BRACKET
    f_lo = log_total(lo) - log_target
    f_hi = log_total(hi) - log_target
    if f_lo < 0.0 or f_hi > 0.0:
        raise InputError(
            f"target {target:g} not bracketed on {EPSILON_BRACKET}: "
            "bound infeasible at this scale")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # closed: narrow enough, or lo and hi adjacent floats
        if hi - lo <= 1e-16 * max(1.0, hi) or mid in (lo, hi):
            return mid
        if log_total(mid) - log_target > 0.0:
            lo = mid
        else:
            hi = mid
    raise NumericError("bisection stalled: bracket open after 200 halvings")
