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

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import (InputError, number_array, read_json, require_int,
                     require_keys, require_number)

SIMPLEX_TOL = 1e-9
PSD_TOL_FACTOR = 1e-8
# Rows per block of Kernel.expand. A criteria 3-4 trial, which scores 100k
# Monte Carlo points against 32 support points, took 0.17-0.19 s in blocks
# of 1024 or 2048 rows, 0.14-0.16 s in blocks of 4096 or 8192, and
# 0.15-0.17 s in one block, whose (32, 100k) buffers hold 25.6 MB each
# (measured 2026-10-20 on a 2-vCPU Xeon, one OpenBLAS thread). Whether
# blocked values equal one-block values bit for bit is up to the BLAS: on
# OpenBLAS 0.3.31 some short last blocks change the last ulp, but the 20k,
# 40k and 100k rows the benchmark scores do not.
EVAL_BLOCK = 4096

# variants whose members are weighted combinations of a kernel dictionary
COMBO_VARIANTS = ("linear_combo", "convex_combo", "sparse_combo")
VARIANTS = COMBO_VARIANTS + ("gaussian_covariance", "gaussian_low_rank")
# The family fields each variant reads and requires; it accepts no other.
VARIANT_FIELDS = {"linear_combo": ("dictionary",), "convex_combo": ("dictionary",),
                  "sparse_combo": ("dictionary", "sparsity"),
                  "gaussian_covariance": ("dimension",),
                  "gaussian_low_rank": ("dimension", "max_rank")}


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


# Bytes of xx + zz that _half_sq_dists holds at once. Two full (m, N) buffers
# per call, freed together at the top of the heap, can make glibc trim and
# re-fault them on every block that Kernel.expand scores: a (32, 4096) RBF
# block then took 1.13 ms and about 500 page faults instead of 0.55 ms. With
# one full buffer it took 0.51-0.53 ms either way, and calls on a few points
# about 1 us more (2-vCPU Xeon, glibc 2.36, one OpenBLAS thread). On
# 2026-10-20, on the same kind of host, a (32, 4096) block of 2-wide points
# took 0.37 ms in the older form (np.sum norms, X Zᵀ doubled, a separate
# negation) and 0.28 ms in the halved form below.
SUM_BLOCK_BYTES = 1 << 18


def _half_sq_norms(X):
    # np.sum(X * X, axis=1) / 2. Below width 8 numpy adds each row's squares
    # left to right, which summing column by column repeats in one pass per
    # column instead of one tiny inner loop per row. From width 8 numpy sums
    # a C-ordered row 8-way pairwise, so np.sum stays there.
    width = X.shape[1]
    if 0 < width < 8:
        norms = X[:, 0] * X[:, 0]
        for j in range(1, width):
            norms += X[:, j] * X[:, j]
    else:
        norms = np.sum(X * X, axis=1)
    norms *= 0.5
    return norms


def _half_sq_dists(X, Z):
    # max((xx + zz) - 2·(X Zᵀ), 0) / 2, as max((xx/2 + zz/2) - X Zᵀ, 0) in
    # one (m, N) buffer; the rows of xx/2 + zz/2 are formed SUM_BLOCK_BYTES
    # at a time. Halving is exact while values stay in the normal float
    # range, so these are the bits of the full expression, halved, without
    # its pass that doubles X Zᵀ. X @ Z.T is left as it is: on one buffer
    # (every Gram) numpy takes a symmetric rank-k update.
    xx = _half_sq_norms(X)[:, None]
    zz = _half_sq_norms(Z)[None, :]
    d2 = X @ Z.T
    step = max(1, SUM_BLOCK_BYTES // (8 * d2.shape[1]))
    for r in range(0, len(d2), step):
        part = d2[r:r + step]
        np.subtract(xx[r:r + step] + zz, part, out=part)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _rbf_cross(X, Z, bandwidth):
    # exp(-d2 / (2 bw²)) in place as exp((d2 / 2) / -(bw²)): the same
    # quotient, so the same bits, with the negation folded into the divisor
    K = _half_sq_dists(X, Z)
    K /= -(bandwidth * bandwidth)
    np.exp(K, out=K)
    return K


# The number fields each base kernel kind reads; every kind declares a bound
# on K(x, x). The bound and an rbf bandwidth must be positive.
_NUMBER_FIELDS = {"rbf": ("bandwidth", "bound_b"), "linear": ("scale", "bound_b"),
                  "poly": ("scale", "coef0", "bound_b"),
                  "gaussian_metric": ("bound_b",), "custom": ("bound_b",)}


@dataclass(frozen=True, eq=False)
class BaseKernel:
    """One evaluable kernel term.

    ``dims`` restricts evaluation to a coordinate subset (None = all).
    ``bound_b`` is the declared bound on K(x, x), not inferred; the one Gram
    check, ``margin._gram_fault``, holds every training Gram to it. Only the
    fields that ``kind`` reads are checked; its numbers are stored as floats
    and its degree as an int.
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
        if not isinstance(self.kind, str) or self.kind not in _NUMBER_FIELDS:
            raise InputError(f"unknown base kernel kind {self.kind!r}")
        for name in _NUMBER_FIELDS[self.kind]:
            value = getattr(self, name)
            require_number(value, f"{self.kind} kernel {name}",
                           positive=name in ("bandwidth", "bound_b"))
            object.__setattr__(self, name, float(value))
        if self.kind == "poly":
            require_int(self.degree, "poly kernel degree")
            object.__setattr__(self, "degree", int(self.degree))
        if self.kind == "gaussian_metric":
            if self.metric is None:
                raise InputError("gaussian_metric kernel needs a metric matrix")
            M = number_array(self.metric, "gaussian_metric kernel metric")
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise InputError("metric must be a square matrix")
            # np.allclose(M, M.T, atol=1e-12) without its call overhead,
            # which is four times the arithmetic on a metric of a few rows
            if not (np.abs(M - M.T) <= 1e-12 + 1e-5 * np.abs(M.T)).all():
                raise InputError("metric must be symmetric")
            if np.linalg.eigvalsh(M).min() < -1e-10:
                raise InputError("metric must be positive semidefinite")
            object.__setattr__(self, "metric", M)
        if self.kind == "custom" and self.func is None:
            raise InputError("custom kernel needs an evaluator function")
        if self.dims is not None:
            if not isinstance(self.dims, (list, tuple, np.ndarray)):
                raise InputError("kernel dims must be a list of coordinate indices")
            for d in self.dims:
                require_int(d, "kernel dims entry", 0)
            object.__setattr__(self, "dims", tuple(self.dims))

    def _select(self, X: np.ndarray) -> np.ndarray:
        if self.dims is None:
            return X
        try:
            return np.ascontiguousarray(X[:, list(self.dims)])
        except IndexError:
            raise InputError(f"kernel dims entry {max(self.dims)} is out of "
                             f"range for points of width {X.shape[1]}") from None

    def _values(self, Xs: np.ndarray, Zs: np.ndarray) -> np.ndarray:
        if self.kind == "rbf":
            return _rbf_cross(Xs, Zs, self.bandwidth)
        if self.kind == "linear":
            return self.scale * (Xs @ Zs.T)
        if self.kind == "poly":
            # values past the float range become inf; the callers' finiteness
            # checks report them, not a numpy warning
            with np.errstate(over="ignore"):
                return (self.scale * (Xs @ Zs.T) + self.coef0) ** self.degree
        if self.kind == "gaussian_metric":
            diff = Xs[:, None, :] - Zs[None, :, :]
            return np.exp(-0.5 * np.einsum("ijk,kl,ijl->ij", diff, self.metric, diff))
        G = np.empty((Xs.shape[0], Zs.shape[0]))
        for i in range(Xs.shape[0]):
            for j in range(Zs.shape[0]):
                G[i, j] = float(self.func(Xs[i], Zs[j]))
        return G

    def gram(self, X: np.ndarray) -> np.ndarray:
        # Select once and pass that one array twice: numpy computes X @ X.T on
        # one buffer as a symmetric rank-k update, so the Gram is exactly
        # symmetric (two selected copies would take a general product).
        Xs = self._select(X)
        if self.kind == "custom":  # half the calls, symmetric whatever func does
            m = Xs.shape[0]
            G = np.empty((m, m))
            for i in range(m):
                for j in range(i, m):
                    G[i, j] = G[j, i] = float(self.func(Xs[i], Xs[j]))
            return G
        G = self._values(Xs, Xs)
        if self.kind in ("rbf", "gaussian_metric"):
            np.fill_diagonal(G, 1.0)
        return G

    def cross(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        return self._values(self._select(X), self._select(Z))


@dataclass(frozen=True, eq=False)
class Kernel:
    """A nonnegative combination of base kernels with a declared bound."""

    terms: tuple[tuple[float, BaseKernel], ...]
    bound_b: float

    def __post_init__(self):
        if not self.terms:
            raise InputError("kernel needs at least one term")
        for w, _ in self.terms:
            require_number(w, "kernel combination weight")
            if w < 0:
                raise InputError("kernel combination weights must be nonnegative")
        require_number(self.bound_b, "kernel bound_b", positive=True)

    def __call__(self, x, y) -> float:
        X = as_points([np.atleast_1d(np.asarray(x, dtype=np.float64))])
        Z = as_points([np.atleast_1d(np.asarray(y, dtype=np.float64))])
        return float(self.cross(X, Z)[0, 0])

    def gram(self, X: np.ndarray, memo: Optional[dict] = None) -> np.ndarray:
        """The Gram of the rows of X: w1*G1 + w2*G2 + ... in term order.

        ``memo`` shares base Grams between kernels on this one X. A caller
        that builds several kernels' Grams of one point set passes one empty
        dict to each call and drops it when the point set changes; the memo
        then holds one read-only Gram per distinct base kernel, and a lone
        weight-1 term's result is that array itself (see ``_weighted_sum``).
        ``capacity`` keeps one per pool or cover task and ``margin.fit_stack``
        one per task. The result is the same bits with or without a memo.
        """
        X = as_points(X)
        return self._weighted_sum(lambda base: base.gram(X), memo)

    def cross(self, X: np.ndarray, Z: np.ndarray,
              memo: Optional[dict] = None) -> np.ndarray:
        """The cross-Gram K(X, Z); ``memo`` as in ``gram``, for this one
        pair of point sets."""
        X, Z = as_points(X), as_points(Z)
        return self._weighted_sum(lambda base: base.cross(X, Z), memo)

    def _weighted_sum(self, values, memo) -> np.ndarray:
        # w1*g1 + w2*g2 + ... in term order; a weight of 1 multiplies
        # nothing. Without a memo each term is computed, scaled and summed in
        # place into the first term's array. With one, each base's values are
        # taken from memo[base] or computed into it, read-only, so the memo
        # holds one array per distinct base. A lone weight-1 term is then the
        # memo's own array; otherwise the first term is copied (scaled) into
        # a new array and each later term added into it SUM_BLOCK_BYTES at a
        # time, with no full-size w*g temporary. Either way the products and
        # sums are those of the out-of-place form, so the bits are the same.
        if memo is None:
            out = None
            for w, base in self.terms:
                g = values(base)
                if w != 1.0:
                    g *= w
                if out is None:
                    out = g
                else:
                    out += g
            return out
        (w, base), *rest = self.terms
        g = _memo_values(memo, base, values)
        if not rest and w == 1.0:
            return g
        out = g * w if w != 1.0 else g.copy()
        step = max(1, SUM_BLOCK_BYTES // (8 * out[0].size))
        for w, base in rest:
            g = _memo_values(memo, base, values)
            for r in range(0, len(out), step):
                part = out[r:r + step]
                part += g[r:r + step] if w == 1.0 else g[r:r + step] * w
        return out

    def expand(self, coeffs, S, X) -> np.ndarray:
        """The expansion sum_j coeffs[j] k(S[j], x) at each row x of X.

        Rows are scored EVAL_BLOCK at a time, so the cross-Gram in memory is
        (len(S), EVAL_BLOCK) whatever the number of rows.
        """
        return expand_each([(self, coeffs)], S, X)[0]


def _memo_values(memo: dict, base: BaseKernel, values) -> np.ndarray:
    """``values(base)``, computed once per memo and kept read-only in it."""
    g = memo.get(base)
    if g is None:
        g = memo[base] = values(base)
        g.flags.writeable = False
    return g


def expand_each(expansions, S, X) -> np.ndarray:
    """Row i: ``Kernel.expand`` of the i-th (kernel, coeffs) pair on the one
    support S and rows X, in the same EVAL_BLOCK row blocks and so the same
    bits. Two pairs or more share one memo per block (``Kernel.cross``), so
    each distinct base kernel's cross-Gram of a block is computed once."""
    S, X = as_points(S), as_points(X)
    out = np.empty((len(expansions), X.shape[0]))
    for start in range(0, X.shape[0], EVAL_BLOCK):
        stop = start + EVAL_BLOCK
        memo = {} if len(expansions) > 1 else None
        for row, (kernel, coeffs) in zip(out, expansions):
            row[start:stop] = coeffs @ kernel.cross(S, X[start:stop], memo)
    return out


def _combine(parts) -> Kernel:
    """The kernel sum_i w_i k_i of (w_i, k_i) pairs: each k_i's terms scaled
    by w_i, and the declared bound sum_i w_i B_i."""
    terms = []
    bound = 0.0
    for w, kern in parts:
        bound += w * kern.bound_b
        for inner_w, base in kern.terms:
            terms.append((float(w * inner_w), base))
    return Kernel(terms=tuple(terms), bound_b=bound)


def _single(base: BaseKernel) -> Kernel:
    return Kernel(terms=((1.0, base),), bound_b=base.bound_b)


def rbf_kernel(bandwidth: float = BaseKernel.bandwidth,
               dims: Optional[Sequence[int]] = None) -> Kernel:
    return _single(BaseKernel(kind="rbf", bandwidth=bandwidth, dims=dims))


def linear_kernel(dims: Optional[Sequence[int]] = None,
                  scale: float = BaseKernel.scale,
                  bound_b: float = BaseKernel.bound_b) -> Kernel:
    """Linear kernel ``scale * <x_S, x'_S>``; ``bound_b`` must reflect the
    input domain (e.g. ``scale * |S|`` for inputs in the unit cube)."""
    return _single(BaseKernel(kind="linear", scale=scale, dims=dims,
                              bound_b=bound_b))


def poly_kernel(degree: int = BaseKernel.degree, scale: float = BaseKernel.scale,
                coef0: float = BaseKernel.coef0,
                dims: Optional[Sequence[int]] = None,
                bound_b: float = BaseKernel.bound_b) -> Kernel:
    return _single(BaseKernel(kind="poly", degree=degree, scale=scale,
                              coef0=coef0, dims=dims, bound_b=bound_b))


def gaussian_metric_kernel(metric) -> Kernel:
    return _single(BaseKernel(kind="gaussian_metric", metric=metric))


def custom_kernel(func: Callable[[np.ndarray, np.ndarray], float], bound_b: float) -> Kernel:
    return _single(BaseKernel(kind="custom", func=func, bound_b=bound_b))


def min_eigenvalue(G) -> float:
    entries = np.asarray(G, dtype=np.float64)
    return float(np.linalg.eigvalsh(entries).min())


def psd_defect(G) -> float:
    """How far below the PSD tolerance the matrix sits: 0.0 means it passes.

    The tolerance is ``-PSD_TOL_FACTOR * trace`` on the smallest eigenvalue,
    loose enough for floating-point eigensolvers but tight enough to expose
    genuine indefiniteness. Like ``eigvalsh``, only the lower triangle is
    read. A matrix with a NaN or infinite entry returns ``inf``.

    A matrix of positive trace first tries a certificate: one LAPACK
    Cholesky factorization (``dpotrf``) of ``G + (tol/2) I``, where
    ``tol = PSD_TOL_FACTOR * trace``. Cholesky is backward stable, so if it
    succeeds the smallest eigenvalue of G exceeds ``-tol/2`` less a rounding
    term of order m²·2⁻⁵³·trace, which stays far below ``tol/2`` for any m
    under a few thousand; so it exceeds ``-tol``, and ``eigvalsh`` would
    pass G too. Success returns 0.0 with no eigensolver. Otherwise, and for
    a trace <= 0, the result is ``-(min eigenvalue + tol)`` from ``eigvalsh``
    clamped at 0: the verdict is ``eigvalsh``'s, and a failing matrix gets
    its eigenvalue defect.
    """
    entries = np.asarray(G, dtype=np.float64)
    if not np.isfinite(entries).all():
        return math.inf
    tol = PSD_TOL_FACTOR * float(np.trace(entries))
    if tol > 0:
        # a Fortran-ordered copy, which dpotrf factors in place
        shifted = np.array(entries, order="F")
        shifted.flat[::len(shifted) + 1] += tol / 2
        if dpotrf(shifted, lower=1, overwrite_a=1, clean=0)[1] == 0:
            return 0.0
    return max(0.0, -(min_eigenvalue(entries) + tol))


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
        reads = VARIANT_FIELDS[self.variant]
        for name in ("dictionary", "sparsity", "dimension", "max_rank"):
            value = getattr(self, name)
            if value is None or name == "dictionary" and not value:
                if name in reads:
                    raise InputError(f"{self.variant} requires {name}")
            elif name not in reads:
                raise InputError(f"{self.variant} family does not read {name}")
            elif name != "dictionary":
                require_int(value, f"family {name}", 1)
        if self.variant == "sparse_combo" and self.sparsity > len(self.dictionary):
            raise InputError("sparsity exceeds dictionary size")
        if self.variant == "gaussian_low_rank" and self.max_rank > self.dimension:
            raise InputError("gaussian_low_rank requires max_rank <= dimension")

    @property
    def dictionary_bound(self) -> float:
        return max(k.bound_b for k in self.dictionary) if self.dictionary else 1.0


def instantiate(family: KernelFamily, params) -> Kernel:
    """Build the family member selected by ``params``.

    Combination variants take a weight vector over the dictionary; Gaussian
    variants take a PSD metric matrix (full) or a factor A with ``M = A^T A``
    (low rank). Entries that are not finite numbers, weight vectors off the
    simplex by more than 1e-9, violated sparsity, or a non-PSD metric are
    input errors.
    """
    if family.variant in COMBO_VARIANTS:
        w = number_array(params, "combination weight")
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
        parts = [(wi, kern) for wi, kern in
                 zip(np.clip(w, 0.0, None), family.dictionary) if wi != 0.0]
        if not parts:
            raise InputError("all combination weights are zero")
        return _combine(parts)

    M = number_array(params, "metric entry")
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


# The constructor of each base kernel type and its JSON keys, in the order
# kernel_to_dict writes them. A key names the constructor's parameter, but
# for "bound".
_FIELD_OF = {"bound": "bound_b"}
_BASE_SPECS = {
    "rbf": (rbf_kernel, ("bandwidth", "dims")),
    "linear": (linear_kernel, ("scale", "bound", "dims")),
    "poly": (poly_kernel, ("degree", "scale", "coef0", "bound", "dims")),
    "gaussian_metric": (gaussian_metric_kernel, ("metric",)),
}


def kernel_from_dict(spec: dict) -> Kernel:
    if not isinstance(spec, dict) or "type" not in spec:
        raise InputError("kernel spec must be an object with a 'type' key")
    kind = spec["type"]
    if kind == "combo":
        require_keys(spec, {"type", "terms"}, "combo kernel spec", ("terms",))
        if not isinstance(spec["terms"], list) or not all(
                isinstance(t, list) and len(t) == 2 for t in spec["terms"]):
            raise InputError("combo kernel terms must be [weight, kernel spec] pairs")
        for w, _ in spec["terms"]:
            require_number(w, "combo kernel term weight")
        return _combine([(float(w), kernel_from_dict(inner))
                         for w, inner in spec["terms"]])
    if not isinstance(kind, str) or kind not in _BASE_SPECS:
        raise InputError(f"unknown kernel type {kind!r}")
    make, keys = _BASE_SPECS[kind]
    require_keys(spec, {"type", *keys}, f"{kind} kernel spec",
                 ("metric",) if kind == "gaussian_metric" else ())
    return make(**{_FIELD_OF.get(key, key): value for key, value in spec.items()
                   if key != "type"})


def kernel_to_dict(kernel: Kernel) -> dict:
    def base_to_dict(base: BaseKernel) -> dict:
        if base.kind not in _BASE_SPECS:
            raise InputError("custom kernels cannot be serialized")
        spec = {"type": base.kind}
        for key in _BASE_SPECS[base.kind][1]:
            value = getattr(base, _FIELD_OF.get(key, key))
            if value is not None:
                spec[key] = np.asarray(value).tolist()
        return spec

    if len(kernel.terms) == 1 and kernel.terms[0][0] == 1.0:
        return base_to_dict(kernel.terms[0][1])
    return {"type": "combo",
            "terms": [[w, base_to_dict(b)] for w, b in kernel.terms]}


def family_from_dict(spec: dict) -> KernelFamily:
    require_keys(spec, {"variant", "dictionary", "sparsity", "dimension", "max_rank"},
                 "family spec", ("variant",))
    if "dictionary" in spec:
        if not isinstance(spec["dictionary"], list):
            raise InputError("family dictionary must be a list of kernel specs")
        spec = {**spec, "dictionary": tuple(kernel_from_dict(k)
                                            for k in spec["dictionary"])}
    return KernelFamily(**spec)


def load_family(path) -> KernelFamily:
    return family_from_dict(read_json(path, "family file"))


def family_to_dict(family: KernelFamily) -> dict:
    spec: dict = {"variant": family.variant}
    if family.dictionary:
        spec["dictionary"] = [kernel_to_dict(k) for k in family.dictionary]
    for key in ("sparsity", "dimension", "max_rank"):
        if getattr(family, key) is not None:
            spec[key] = getattr(family, key)
    return spec
