"""Kernels, parametric kernel families, and Gram-matrix construction.

A :class:`Kernel` is a finite nonnegative combination of base kernels plus a
declared diagonal bound ``bound_b`` (``K(x, x) <= bound_b`` on the intended
input domain). Base kernels may act on a coordinate subset, which is how
"feature view" dictionaries are built for the synthetic environments.

Families come in five variants: linear / convex / sparse combinations of a
finite dictionary, and Gaussian kernels with a learned (optionally low-rank)
metric. ``pd_upper_bound`` returns the analytic capacity bound per variant;
for sparse combinations of k out of N kernels it evaluates
``2k ln(k) + 2k ln(4eN)`` (natural log; the low-rank Gaussian bound keeps the
conventional base-2 log).

Kernels and families are immutable; every operation here is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _accel
from .errors import InputError, NumericError, require_keys

SIMPLEX_TOL = 1e-9
PSD_TOL_FACTOR = 1e-8

_BASE_KINDS = ("linear", "rbf", "poly", "gaussian_metric", "custom")
VARIANTS = (
    "linear_combo",
    "convex_combo",
    "sparse_combo",
    "gaussian_covariance",
    "gaussian_low_rank",
)


def as_points(sample) -> np.ndarray:
    """Normalize a point list to a 2-D float array, one row per point."""
    try:
        X = np.asarray(sample, dtype=np.float64)
    except ValueError as exc:
        raise InputError(f"points do not share one dimension: {exc}") from exc
    if X.ndim == 0:
        X = X.reshape(1, 1)
    elif X.ndim == 1:
        X = X[:, None]
    elif X.ndim != 2:
        raise InputError(f"points must form a 2-D array, got ndim={X.ndim}")
    if X.shape[0] == 0:
        raise InputError("sample is empty")
    return X


@dataclass(frozen=True, eq=False)
class BaseKernel:
    """One evaluable kernel term.

    ``dims`` restricts evaluation to a coordinate subset (None = all).
    ``bound_b`` is the declared bound on K(x, x); it is checked against
    samples by :func:`check_kernel_invariants`, not inferred.
    """

    kind: str
    dims: Optional[tuple[int, ...]] = None
    bandwidth: float = 1.0
    scale: float = 1.0
    coef0: float = 0.0
    degree: int = 2
    metric: Optional[np.ndarray] = None
    func: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    bound_b: float = 1.0

    def __post_init__(self):
        if self.kind not in _BASE_KINDS:
            raise InputError(f"unknown base kernel kind {self.kind!r}")
        if self.kind == "rbf" and self.bandwidth <= 0:
            raise InputError("rbf bandwidth must be positive")
        if self.kind == "gaussian_metric":
            if self.metric is None:
                raise InputError("gaussian_metric kernel needs a metric matrix")
            M = np.asarray(self.metric, dtype=np.float64)
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise InputError("metric must be a square matrix")
            if not np.allclose(M, M.T, atol=1e-12):
                raise InputError("metric must be symmetric")
            if np.linalg.eigvalsh(M).min() < -1e-10:
                raise InputError("metric must be positive semidefinite")
            object.__setattr__(self, "metric", M)
        if self.kind == "custom" and self.func is None:
            raise InputError("custom kernel needs an evaluator function")
        if self.bound_b <= 0:
            raise InputError("bound_b must be positive")

    def _select(self, X: np.ndarray) -> np.ndarray:
        if self.dims is None:
            return X
        return np.ascontiguousarray(X[:, list(self.dims)])

    def gram(self, X: np.ndarray) -> np.ndarray:
        Xs = self._select(X)
        if self.kind == "rbf":
            return _accel.rbf_gram(Xs, self.bandwidth)
        if self.kind == "linear":
            return _accel.linear_gram(Xs, self.scale)
        if self.kind == "poly":
            return _accel.poly_gram(Xs, self.scale, self.coef0, self.degree)
        if self.kind == "gaussian_metric":
            return _accel.metric_gram(Xs, self.metric)
        m = Xs.shape[0]
        G = np.empty((m, m))
        for i in range(m):
            for j in range(i, m):
                G[i, j] = G[j, i] = float(self.func(Xs[i], Xs[j]))
        return G

    def cross(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        Xs, Zs = self._select(X), self._select(Z)
        if self.kind == "rbf":
            return _accel.rbf_cross(Xs, Zs, self.bandwidth)
        if self.kind == "linear":
            return _accel.linear_cross(Xs, Zs, self.scale)
        if self.kind == "poly":
            return _accel.poly_cross(Xs, Zs, self.scale, self.coef0, self.degree)
        if self.kind == "gaussian_metric":
            return _accel.metric_cross(Xs, Zs, self.metric)
        G = np.empty((Xs.shape[0], Zs.shape[0]))
        for i in range(Xs.shape[0]):
            for j in range(Zs.shape[0]):
                G[i, j] = float(self.func(Xs[i], Zs[j]))
        return G


@dataclass(frozen=True, eq=False)
class Kernel:
    """A nonnegative combination of base kernels with a declared bound."""

    terms: tuple[tuple[float, BaseKernel], ...]
    bound_b: float

    def __post_init__(self):
        if not self.terms:
            raise InputError("kernel needs at least one term")
        for w, _ in self.terms:
            if w < 0:
                raise InputError("kernel combination weights must be nonnegative")

    def __call__(self, x, y) -> float:
        X = as_points([np.atleast_1d(np.asarray(x, dtype=np.float64))])
        Z = as_points([np.atleast_1d(np.asarray(y, dtype=np.float64))])
        return float(self.cross(X, Z)[0, 0])

    def gram(self, X: np.ndarray) -> np.ndarray:
        X = as_points(X)
        out = None
        for w, base in self.terms:
            g = base.gram(X)
            out = w * g if out is None else out + w * g
        return out

    def cross(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        X, Z = as_points(X), as_points(Z)
        out = None
        for w, base in self.terms:
            g = base.cross(X, Z)
            out = w * g if out is None else out + w * g
        return out


def rbf_kernel(bandwidth: float = 1.0, dims: Optional[Sequence[int]] = None) -> Kernel:
    base = BaseKernel(kind="rbf", bandwidth=float(bandwidth),
                      dims=None if dims is None else tuple(dims), bound_b=1.0)
    return Kernel(terms=((1.0, base),), bound_b=1.0)


def linear_kernel(dims: Optional[Sequence[int]] = None, scale: float = 1.0,
                  bound_b: float = 1.0) -> Kernel:
    """Linear kernel ``scale * <x_S, x'_S>``; ``bound_b`` must reflect the
    input domain (e.g. ``scale * |S|`` for inputs in the unit cube)."""
    base = BaseKernel(kind="linear", scale=float(scale),
                      dims=None if dims is None else tuple(dims), bound_b=float(bound_b))
    return Kernel(terms=((1.0, base),), bound_b=float(bound_b))


def poly_kernel(degree: int = 2, scale: float = 1.0, coef0: float = 0.0,
                dims: Optional[Sequence[int]] = None, bound_b: float = 1.0) -> Kernel:
    base = BaseKernel(kind="poly", degree=int(degree), scale=float(scale),
                      coef0=float(coef0), dims=None if dims is None else tuple(dims),
                      bound_b=float(bound_b))
    return Kernel(terms=((1.0, base),), bound_b=float(bound_b))


def gaussian_metric_kernel(metric) -> Kernel:
    base = BaseKernel(kind="gaussian_metric", metric=np.asarray(metric, dtype=np.float64),
                      bound_b=1.0)
    return Kernel(terms=((1.0, base),), bound_b=1.0)


def custom_kernel(func: Callable[[np.ndarray, np.ndarray], float], bound_b: float) -> Kernel:
    base = BaseKernel(kind="custom", func=func, bound_b=float(bound_b))
    return Kernel(terms=((1.0, base),), bound_b=float(bound_b))


def gram(kernel: Kernel, sample) -> np.ndarray:
    """Gram matrix of ``kernel`` on ``sample``; symmetric by construction."""
    return kernel.gram(sample)


def min_eigenvalue(G) -> float:
    entries = np.asarray(G, dtype=np.float64)
    return float(np.linalg.eigvalsh(entries).min())


def psd_defect(G) -> float:
    """How far below the PSD tolerance the matrix sits (<= 0 means fine).

    The tolerance is ``-1e-8 * trace``, loose enough for floating-point
    eigensolvers but tight enough to expose genuine indefiniteness.
    """
    entries = np.asarray(G, dtype=np.float64)
    return -(min_eigenvalue(entries) + PSD_TOL_FACTOR * float(np.trace(entries)))


def check_kernel_invariants(kernel: Kernel, sample, rel_tol: float = 1e-9) -> None:
    """Raise NumericError if symmetry / boundedness / PSD fail on the sample."""
    X = as_points(sample)
    G = kernel.gram(X)
    if not np.array_equal(G, G.T):
        raise NumericError("Gram matrix is not exactly symmetric")
    diag = np.diag(G)
    if np.any(diag > kernel.bound_b * (1.0 + rel_tol)):
        raise NumericError(
            f"diagonal exceeds declared bound: max {diag.max()} > B={kernel.bound_b}")
    if psd_defect(G) > 0:
        raise NumericError(f"Gram matrix indefinite: min eig {min_eigenvalue(G)}")


@dataclass(frozen=True, eq=False)
class KernelFamily:
    """A parametrized set of kernels with an analytic capacity bound."""

    variant: str
    dictionary: tuple[Kernel, ...] = ()
    sparsity: Optional[int] = None
    dimension: Optional[int] = None
    max_rank: Optional[int] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InputError(f"unknown family variant {self.variant!r}")
        if self.variant in ("linear_combo", "convex_combo", "sparse_combo"):
            if not self.dictionary:
                raise InputError(f"{self.variant} requires a kernel dictionary")
        if self.variant == "sparse_combo":
            if self.sparsity is None or self.sparsity < 1:
                raise InputError("sparse_combo requires sparsity >= 1")
            if self.sparsity > len(self.dictionary):
                raise InputError("sparsity exceeds dictionary size")
        if self.variant in ("gaussian_covariance", "gaussian_low_rank"):
            if self.dimension is None or self.dimension < 1:
                raise InputError(f"{self.variant} requires dimension >= 1")
        if self.variant == "gaussian_low_rank":
            if self.max_rank is None or not 1 <= self.max_rank <= self.dimension:
                raise InputError("gaussian_low_rank requires 1 <= max_rank <= dimension")

    @property
    def dictionary_bound(self) -> float:
        return max(k.bound_b for k in self.dictionary) if self.dictionary else 1.0


def instantiate(family: KernelFamily, params) -> Kernel:
    """Build the family member selected by ``params``.

    Combination variants take a weight vector over the dictionary; Gaussian
    variants take a PSD metric matrix (full) or a factor A with ``M = A^T A``
    (low rank). Weight vectors off the simplex by more than 1e-9, violated
    sparsity, or a non-PSD metric are input errors.
    """
    if family.variant in ("linear_combo", "convex_combo", "sparse_combo"):
        w = np.asarray(params, dtype=np.float64)
        if w.shape != (len(family.dictionary),):
            raise InputError(
                f"expected {len(family.dictionary)} weights, got shape {w.shape}")
        if np.any(w < -SIMPLEX_TOL):
            raise InputError("combination weights must be nonnegative")
        if family.variant in ("convex_combo", "sparse_combo"):
            if abs(float(w.sum()) - 1.0) > SIMPLEX_TOL:
                raise InputError(f"weights must sum to 1, got {w.sum()!r}")
        if family.variant == "sparse_combo":
            nnz = int(np.count_nonzero(w))
            if nnz > family.sparsity:
                raise InputError(
                    f"sparsity violated: {nnz} nonzero weights > k={family.sparsity}")
        w = np.clip(w, 0.0, None)
        terms = []
        bound = 0.0
        for wi, kern in zip(w, family.dictionary):
            if wi == 0.0:
                continue
            bound += wi * kern.bound_b
            for inner_w, base in kern.terms:
                terms.append((float(wi * inner_w), base))
        if not terms:
            raise InputError("all combination weights are zero")
        return Kernel(terms=tuple(terms), bound_b=bound)

    M = np.asarray(params, dtype=np.float64)
    ell = family.dimension
    if family.variant == "gaussian_low_rank":
        if M.ndim != 2 or M.shape[1] != ell:
            raise InputError(f"low-rank factor must have shape (r, {ell})")
        if M.shape[0] > family.max_rank:
            raise InputError(
                f"factor rank {M.shape[0]} exceeds max_rank={family.max_rank}")
        M = M.T @ M
    if M.shape != (ell, ell):
        raise InputError(f"metric must have shape ({ell}, {ell})")
    return gaussian_metric_kernel(M)


def pd_upper_bound(family: KernelFamily) -> float:
    """Analytic upper bound on the family's pseudodimension."""
    if family.variant in ("linear_combo", "convex_combo"):
        return float(len(family.dictionary))
    if family.variant == "sparse_combo":
        k = family.sparsity
        n_dict = len(family.dictionary)
        return 2.0 * k * math.log(k) + 2.0 * k * math.log(4.0 * math.e * n_dict)
    if family.variant == "gaussian_covariance":
        ell = family.dimension
        return ell * (ell + 1) / 2.0
    # gaussian_low_rank
    k, ell = family.max_rank, family.dimension
    return k * ell * math.log2(8.0 * math.e * k * ell)


# ---------------------------------------------------------------------------
# Kernel / family definition files (JSON; schema in FORMATS.md).
# ---------------------------------------------------------------------------


def kernel_from_dict(spec: dict) -> Kernel:
    if not isinstance(spec, dict) or "type" not in spec:
        raise InputError("kernel spec must be an object with a 'type' key")
    kind = spec["type"]
    if kind == "rbf":
        require_keys(spec, {"type", "bandwidth", "dims"}, "rbf kernel spec")
        return rbf_kernel(spec.get("bandwidth", 1.0), spec.get("dims"))
    if kind == "linear":
        require_keys(spec, {"type", "scale", "dims", "bound"}, "linear kernel spec")
        return linear_kernel(spec.get("dims"), spec.get("scale", 1.0), spec.get("bound", 1.0))
    if kind == "poly":
        require_keys(spec, {"type", "degree", "scale", "coef0", "dims", "bound"},
                     "poly kernel spec")
        return poly_kernel(spec.get("degree", 2), spec.get("scale", 1.0),
                           spec.get("coef0", 0.0), spec.get("dims"), spec.get("bound", 1.0))
    if kind == "gaussian_metric":
        require_keys(spec, {"type", "metric"}, "gaussian_metric kernel spec")
        return gaussian_metric_kernel(spec["metric"])
    if kind == "combo":
        require_keys(spec, {"type", "terms"}, "combo kernel spec")
        parts = [(float(w), kernel_from_dict(inner)) for w, inner in spec["terms"]]
        terms = []
        bound = 0.0
        for w, kern in parts:
            bound += w * kern.bound_b
            for inner_w, base in kern.terms:
                terms.append((w * inner_w, base))
        return Kernel(terms=tuple(terms), bound_b=bound)
    raise InputError(f"unknown kernel type {kind!r}")


def kernel_to_dict(kernel: Kernel) -> dict:
    def base_to_dict(w: float, base: BaseKernel) -> dict:
        if base.kind == "rbf":
            d = {"type": "rbf", "bandwidth": base.bandwidth}
        elif base.kind == "linear":
            d = {"type": "linear", "scale": base.scale, "bound": base.bound_b}
        elif base.kind == "poly":
            d = {"type": "poly", "degree": base.degree, "scale": base.scale,
                 "coef0": base.coef0, "bound": base.bound_b}
        elif base.kind == "gaussian_metric":
            d = {"type": "gaussian_metric", "metric": base.metric.tolist()}
        else:
            raise InputError("custom kernels cannot be serialized")
        if base.dims is not None:
            d["dims"] = list(base.dims)
        return d

    if len(kernel.terms) == 1 and kernel.terms[0][0] == 1.0:
        return base_to_dict(1.0, kernel.terms[0][1])
    return {"type": "combo",
            "terms": [[w, base_to_dict(w, b)] for w, b in kernel.terms]}


def family_from_dict(spec: dict) -> KernelFamily:
    require_keys(spec, {"variant", "dictionary", "sparsity", "dimension", "max_rank"},
                 "family spec")
    if "variant" not in spec:
        raise InputError("family spec requires 'variant'")
    dictionary = tuple(kernel_from_dict(k) for k in spec.get("dictionary", []))
    return KernelFamily(
        variant=spec["variant"],
        dictionary=dictionary,
        sparsity=spec.get("sparsity"),
        dimension=spec.get("dimension"),
        max_rank=spec.get("max_rank"),
    )


def load_family(path) -> KernelFamily:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read family file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"family file {path}: {exc}") from exc
    return family_from_dict(spec)


def family_to_dict(family: KernelFamily) -> dict:
    spec: dict = {"variant": family.variant}
    if family.dictionary:
        spec["dictionary"] = [kernel_to_dict(k) for k in family.dictionary]
    if family.sparsity is not None:
        spec["sparsity"] = family.sparsity
    if family.dimension is not None:
        spec["dimension"] = family.dimension
    if family.max_rank is not None:
        spec["max_rank"] = family.max_rank
    return spec
