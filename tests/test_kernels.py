"""Kernel, family, and Gram-matrix contracts."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (kernel_expansion_fsum, psd_defect_reference,
                      rbf_cross_reference)
from mtkl import (InputError, KernelFamily, Predictor, check_kernel_invariants,
                  instantiate, kernel_from_dict, kernel_to_dict, kernels,
                  linear_kernel, min_eigenvalue, pd_upper_bound, poly_kernel,
                  psd_defect, rbf_kernel)
from mtkl.envsim import InputLaw, make_planted_distribution
from mtkl.kernels import (EVAL_BLOCK, PSD_TOL_FACTOR, BaseKernel, Kernel,
                          custom_kernel, family_from_dict, family_to_dict,
                          gaussian_metric_kernel)


def random_dictionary(rng, size, dim):
    kinds = []
    for i in range(size):
        which = rng.integers(0, 3)
        if which == 0:
            kinds.append(rbf_kernel(float(rng.uniform(0.3, 2.0))))
        elif which == 1:
            kinds.append(linear_kernel(scale=1.0 / dim, bound_b=1.0))
        else:
            kinds.append(poly_kernel(degree=2, scale=1.0 / dim, coef0=0.5,
                                     bound_b=(1.0 + 0.5) ** 2))
    return tuple(kinds)


class TestGram:
    def test_linear_orthonormal_points(self):
        k = linear_kernel(bound_b=1.0)
        G = k.gram([(1.0, 0.0), (0.0, 1.0)])
        np.testing.assert_array_equal(G, np.eye(2))

    def test_rbf_duplicate_point(self):
        k = rbf_kernel(1.0)
        G = k.gram([(0.3, -0.2), (0.3, -0.2)])
        np.testing.assert_allclose(G, np.ones((2, 2)), atol=1e-15)

    def test_rbf_scalar_points(self):
        G = rbf_kernel(1.0).gram([(0.0,), (2.0,)])
        assert G[0, 1] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            rbf_kernel(1.0).gram([[1.0, 2.0], [1.0]])

    def test_empty_sample(self):
        with pytest.raises(InputError):
            rbf_kernel(1.0).gram(np.empty((0, 2)))

    def test_exact_symmetry_and_determinism(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (17, 3))
        k = rbf_kernel(0.7)
        G1 = k.gram(X)
        G2 = k.gram(X)
        assert np.array_equal(G1, G1.T)
        assert np.array_equal(G1, G2)

    def test_psd_over_random_families(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            dim = int(rng.integers(1, 4))
            dictionary = random_dictionary(rng, 3, dim)
            fam = KernelFamily(variant="convex_combo", dictionary=dictionary)
            w = rng.dirichlet(np.ones(3))
            k = instantiate(fam, w)
            X = rng.uniform(-1, 1, (int(rng.integers(2, 65)), dim))
            G = k.gram(X)
            assert min_eigenvalue(G) >= -1e-8 * np.trace(G)
            check_kernel_invariants(k, X)


def _dot(x, z):
    return math.fsum(a * b for a, b in zip(x, z))


def _metric_form(x, z, M):
    diff = [a - b for a, b in zip(x, z)]
    return math.fsum(diff[a] * M[a][b] * diff[b]
                     for a in range(len(diff)) for b in range(len(diff)))


RNG = np.random.default_rng(0)
A = RNG.standard_normal((3, 3))
M = A @ A.T + 0.1 * np.eye(3)  # a full symmetric positive definite metric


def _rbf(x, z):
    return math.exp(-math.fsum((a - b) ** 2 for a, b in zip(x, z)) / (2 * 0.8 ** 2))


# name -> (base kernel keywords, textbook k(x, z)); every kernel reads 3 coordinates
KERNELS = {
    "rbf": (dict(kind="rbf", bandwidth=0.8), _rbf),
    "linear": (dict(kind="linear", scale=0.5), lambda x, z: 0.5 * _dot(x, z)),
    "poly": (dict(kind="poly", scale=1.0, coef0=0.5, degree=3),
             lambda x, z: (1.0 * _dot(x, z) + 0.5) ** 3),
    "metric": (dict(kind="gaussian_metric", metric=M),
               lambda x, z: math.exp(-0.5 * _metric_form(x, z, M.tolist()))),
    "custom": (dict(kind="custom", func=_rbf), _rbf),
}


def textbook(entry, X, Z):
    return np.array([[entry(x, z) for z in Z.tolist()] for x in X.tolist()])


@pytest.mark.parametrize("m,p", [(1, 1), (14, 9), (33, 5)])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_gram_builders_match_textbook_formula(name, m, p):
    keywords, entry = KERNELS[name]
    rng = np.random.default_rng(m)
    X, Z = rng.uniform(-1, 1, (m, 3)), rng.uniform(-1, 1, (p, 3))
    W = rng.uniform(-1, 1, (m, 5))
    duplicated = np.vstack([X, X[-1:], X[:1]])
    cases = [(BaseKernel(**keywords), X, X),
             (BaseKernel(**keywords), duplicated, duplicated),
             (BaseKernel(**keywords, dims=(4, 0, 2)), W, W[:, [4, 0, 2]])]
    for base, points, selected in cases:
        G = base.gram(points)
        # absolute slack for entries that are sums cancelling to near zero
        np.testing.assert_allclose(G, textbook(entry, selected, selected),
                                   rtol=1e-12, atol=1e-14)
        assert np.array_equal(G, G.T)
        if name in ("rbf", "metric"):
            assert np.all(np.diag(G) == 1.0)
    base = BaseKernel(**keywords)
    np.testing.assert_allclose(base.cross(X, Z), textbook(entry, X, Z),
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("block_bytes", [None, 8, 8 * 5000 * 7])
@pytest.mark.parametrize("m,p", [(1, 1), (32, 5000), (33, 3)])
def test_sq_dists_in_row_blocks_match_whole_matrix(m, p, block_bytes,
                                                   monkeypatch):
    # (xx + zz) - 2·(X Zᵀ), clipped at 0, formed on the whole matrix and
    # halved: bit for bit what _half_sq_dists gives, whether it sums in one
    # block, row by row or in uneven blocks
    if block_bytes is not None:
        monkeypatch.setattr(kernels, "SUM_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(p)
    X, Z = rng.uniform(-1, 1, (m, 3)), rng.uniform(-1, 1, (p, 3))
    whole = np.maximum((np.sum(X * X, axis=1)[:, None]
                        + np.sum(Z * Z, axis=1)[None, :]) - 2.0 * (X @ Z.T), 0.0)
    assert kernels._half_sq_dists(X, Z).tobytes() == (0.5 * whole).tobytes()


def _points(rng, rows, width, scale, ties):
    # rows of standard normals times scale; with ties, rounded to a grid of
    # 8 steps per scale so that many squared distances are exact
    P = rng.standard_normal((rows, width)) * scale
    return np.round(P * 8.0 / scale) * (scale / 8.0) if ties else P


def _select(P, dims):
    return P if dims is None else np.ascontiguousarray(P[:, list(dims)])


def _rbf_expand_reference(terms, coeffs, S, X):
    # Kernel.expand by the older builder: each block's terms built by
    # rbf_cross_reference, weighted in place (a weight of 1 too) and summed
    # in term order
    out = np.empty(len(X))
    for start in range(0, len(X), EVAL_BLOCK):
        block = X[start:start + EVAL_BLOCK]
        total = None
        for w, base in terms:
            g = rbf_cross_reference(_select(S, base.dims), _select(block, base.dims),
                                    base.bandwidth)
            g *= w
            if total is None:
                total = g
            else:
                total += g
        out[start:start + EVAL_BLOCK] = coeffs @ total
    return out


@settings(max_examples=120, deadline=None)
@given(width=st.integers(1, 12),
       layout=st.sampled_from(["C", "F", "strided", "dims"]),
       m=st.integers(1, 24), rows=st.sampled_from([1, 5, 64, EVAL_BLOCK + 37]),
       log_bandwidth=st.floats(-1.5, 1.5), log_scale=st.floats(-2.0, 2.0),
       ties=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(width=8, layout="C", m=6, rows=64, log_bandwidth=0.0, log_scale=0.0,
         ties=False, seed=1)
@example(width=7, layout="C", m=6, rows=64, log_bandwidth=0.0, log_scale=0.0,
         ties=False, seed=2)
@example(width=3, layout="dims", m=12, rows=5, log_bandwidth=-1.0,
         log_scale=0.5, ties=False, seed=3)
def test_rbf_builders_equal_reference_bytes(width, layout, m, rows,
                                            log_bandwidth, log_scale, ties, seed):
    # Gram, cross-Gram and expansion values of the RBF builder are the bytes
    # of the older in-place builder, on either side of numpy's switch to
    # pairwise row sums at width 8, for C-ordered, F-ordered and strided
    # points, dims views, X is Z and two views of one buffer
    rng = np.random.default_rng(seed)
    scale, bandwidth = 10.0 ** log_scale, 10.0 ** log_bandwidth
    dims = None
    if layout == "dims":
        dims = tuple(int(d) for d in rng.integers(0, width + 3, width))
        P = _points(rng, rows, width + 3, scale, ties)
    elif layout == "strided":
        P = _points(rng, 2 * rows, 2 * width, scale, ties)[::2, ::2]
    else:
        P = _points(rng, rows, width, scale, ties)
        if layout == "F":
            P = np.asfortranarray(P)
    # the support repeats some of the points, so some distances are zero
    S = np.concatenate([P[:min(m, rows) // 2],
                        _points(rng, m - min(m, rows) // 2, P.shape[1], scale, ties)])
    base = BaseKernel(kind="rbf", bandwidth=bandwidth, dims=dims)
    Ss, Ps = _select(S, dims), _select(P, dims)

    assert base.cross(S, P).tobytes() == \
        rbf_cross_reference(Ss, Ps, bandwidth).tobytes()
    # X is Z, and two views of one buffer: all of its rows, then its head
    few = P[:24]
    Fs = _select(few, dims)
    assert base.cross(few, few).tobytes() == \
        rbf_cross_reference(Fs, Fs, bandwidth).tobytes()
    gram = rbf_cross_reference(Fs, Fs, bandwidth)
    np.fill_diagonal(gram, 1.0)
    assert base.gram(few).tobytes() == gram.tobytes()
    assert base.cross(few[:], few).tobytes() == \
        rbf_cross_reference(_select(few[:], dims), Fs, bandwidth).tobytes()
    assert base.cross(P[:m], P).tobytes() == \
        rbf_cross_reference(_select(P[:m], dims), Ps, bandwidth).tobytes()

    other = BaseKernel(kind="rbf", bandwidth=2.0 * bandwidth, dims=dims)
    weight = float(rng.choice([1.0, 0.375]))
    terms = ((weight, base), (1.0 - weight + 0.25, other))
    coeffs = rng.standard_normal(len(S))
    got = Kernel(terms=terms, bound_b=1.25).expand(coeffs, S, P)
    assert got.tobytes() == _rbf_expand_reference(terms, coeffs, S, P).tobytes()


class TestInstantiate:
    def setup_method(self):
        self.dictionary = (rbf_kernel(0.5), rbf_kernel(1.0), rbf_kernel(2.0))
        self.fam = KernelFamily(variant="convex_combo", dictionary=self.dictionary)

    def test_vertex_reproduces_dictionary_kernel(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (10, 2))
        k = instantiate(self.fam, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(k.gram(X), self.dictionary[0].gram(X))

    def test_half_half_is_pointwise_average(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (8, 2))
        k = instantiate(KernelFamily(variant="convex_combo",
                                     dictionary=self.dictionary[:2]), [0.5, 0.5])
        expected = 0.5 * self.dictionary[0].gram(X) + 0.5 * self.dictionary[1].gram(X)
        np.testing.assert_allclose(k.gram(X), expected, rtol=1e-12)

    def test_convex_combination_linearity_entrywise(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (12, 2))
        w = np.array([0.2, 0.5, 0.3])
        k = instantiate(self.fam, w)
        expected = sum(wi * ki.gram(X) for wi, ki in zip(w, self.dictionary))
        np.testing.assert_allclose(k.gram(X), expected, rtol=1e-12)

    def test_identity_covariance_equals_isotropic_rbf(self):
        fam = KernelFamily(variant="gaussian_covariance", dimension=2)
        k = instantiate(fam, np.eye(2))
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (9, 2))
        np.testing.assert_allclose(k.gram(X), rbf_kernel(1.0).gram(X), rtol=1e-12)

    def test_off_simplex_rejected(self):
        with pytest.raises(InputError):
            instantiate(self.fam, [0.5, 0.5, 0.1])
        with pytest.raises(InputError):
            instantiate(self.fam, [0.7, 0.5, -0.2])

    def test_tiny_simplex_slack_accepted(self):
        instantiate(self.fam, [0.5, 0.5, 5e-10])

    def test_sparsity_violation_rejected(self):
        fam = KernelFamily(variant="sparse_combo", dictionary=self.dictionary,
                           sparsity=1)
        with pytest.raises(InputError):
            instantiate(fam, [0.5, 0.5, 0.0])
        k = instantiate(fam, [0.0, 1.0, 0.0])
        assert k.bound_b <= 1.0

    def test_combination_bound_inherits_max(self):
        k = instantiate(self.fam, [0.25, 0.25, 0.5])
        assert k.bound_b <= max(d.bound_b for d in self.dictionary) + 1e-12

    def test_low_rank_factor_shape_checked(self):
        fam = KernelFamily(variant="gaussian_low_rank", dimension=3, max_rank=1)
        instantiate(fam, np.array([[1.0, 0.0, 0.0]]))
        with pytest.raises(InputError):
            instantiate(fam, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


class TestPdUpperBound:
    def test_convex_combo_is_dictionary_size(self):
        fam = KernelFamily(variant="convex_combo",
                           dictionary=tuple(rbf_kernel(b) for b in
                                            (0.5, 0.7, 1.0, 1.5, 2.0)))
        assert pd_upper_bound(fam) == 5.0

    def test_gaussian_covariance_dim3(self):
        fam = KernelFamily(variant="gaussian_covariance", dimension=3)
        assert pd_upper_bound(fam) == 6.0

    def test_sparse_combo_value(self):
        fam = KernelFamily(variant="sparse_combo",
                           dictionary=tuple(rbf_kernel(0.5 + i) for i in range(8)),
                           sparsity=2)
        expected = 4 * math.log(2) + 4 * math.log(32 * math.e)
        assert pd_upper_bound(fam) == pytest.approx(expected, rel=1e-14)
        assert pd_upper_bound(fam) == pytest.approx(20.64, abs=0.01)

    def test_gaussian_low_rank_value(self):
        fam = KernelFamily(variant="gaussian_low_rank", dimension=4, max_rank=2)
        assert pd_upper_bound(fam) == pytest.approx(
            8 * math.log2(8 * math.e * 8), rel=1e-14)

    @given(k=st.integers(1, 12), n=st.integers(1, 12), bump=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_sparse_bound_monotone(self, k, n, bump):
        def value(kk, nn):
            return 2 * kk * math.log(kk) + 2 * kk * math.log(4 * math.e * nn)

        assert value(k + bump, n) >= value(k, n)
        assert value(k, n + bump) >= value(k, n)
        dict_big = tuple(rbf_kernel(0.4 + 0.1 * i) for i in range(k + bump + n))
        fam_small = KernelFamily(variant="sparse_combo", dictionary=dict_big[:n + k],
                                 sparsity=k)
        fam_kbig = KernelFamily(variant="sparse_combo", dictionary=dict_big[:n + k + bump],
                                sparsity=k + bump)
        assert pd_upper_bound(fam_kbig) >= pd_upper_bound(fam_small)


class TestFamilyFiles:
    def test_round_trip(self, tmp_path):
        fam = KernelFamily(
            variant="sparse_combo",
            dictionary=(rbf_kernel(0.5, dims=(0, 1)),
                        linear_kernel(dims=(2,), scale=0.5, bound_b=0.5)),
            sparsity=1)
        spec = family_to_dict(fam)
        back = family_from_dict(spec)
        assert back.variant == fam.variant
        assert back.sparsity == fam.sparsity
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (6, 3))
        for a, b in zip(fam.dictionary, back.dictionary):
            np.testing.assert_array_equal(a.gram(X), b.gram(X))

    def test_unknown_key_named(self):
        with pytest.raises(InputError, match="bandwidht"):
            kernel_from_dict({"type": "rbf", "bandwidht": 1.0})
        with pytest.raises(InputError, match="sparsityy"):
            family_from_dict({"variant": "convex_combo",
                              "dictionary": [{"type": "rbf"}], "sparsityy": 2})

    def test_combo_serialization(self):
        spec = {"type": "combo", "terms": [
            [0.25, {"type": "rbf", "bandwidth": 0.5}],
            [0.75, {"type": "linear", "scale": 0.5, "bound": 1.0}]]}
        k = kernel_from_dict(spec)
        assert k.bound_b == pytest.approx(0.25 * 1.0 + 0.75 * 1.0)
        round_tripped = kernel_from_dict(kernel_to_dict(k))
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (5, 2))
        np.testing.assert_array_equal(k.gram(X), round_tripped.gram(X))


# every optional field of a family, as a family file and as a Python caller
# write it, with a value that some variant accepts
FAMILY_FILE_FIELDS = {"dictionary": [{"type": "rbf", "bandwidth": 0.5},
                                     {"type": "rbf", "bandwidth": 1.0}],
                      "sparsity": 1, "dimension": 2, "max_rank": 1}
FAMILY_FIELDS = {**FAMILY_FILE_FIELDS,
                 "dictionary": (rbf_kernel(0.5), rbf_kernel(1.0))}
VARIANT_READS = {
    "linear_combo": {"dictionary"}, "convex_combo": {"dictionary"},
    "sparse_combo": {"dictionary", "sparsity"},
    "gaussian_covariance": {"dimension"},
    "gaussian_low_rank": {"dimension", "max_rank"},
}


@pytest.mark.parametrize("variant", sorted(VARIANT_READS))
def test_family_accepts_exactly_the_fields_it_reads(variant):
    reads = VARIANT_READS[variant]
    KernelFamily(variant=variant, **{k: FAMILY_FIELDS[k] for k in reads})
    for name in sorted(set(FAMILY_FIELDS) - reads):
        # pd_upper_bound and instantiate ignore these, so a family file that
        # set sparsity on a convex variant ran a convex search
        with pytest.raises(InputError, match=f"does not read {name}"):
            KernelFamily(variant=variant, **{k: FAMILY_FIELDS[k]
                                             for k in reads | {name}})
        with pytest.raises(InputError, match=f"does not read {name}"):
            family_from_dict({"variant": variant, **{
                k: FAMILY_FILE_FIELDS[k] for k in reads | {name}}})
    for name in sorted(reads):
        with pytest.raises(InputError, match=f"requires {name}"):
            KernelFamily(variant=variant, **{k: FAMILY_FIELDS[k]
                                             for k in reads - {name}})


def planted_spectrum(rng, m, c, zeros):
    """An exactly symmetric Q diag(lam) Qᵀ whose planted smallest eigenvalue
    is c times the PSD tolerance ``PSD_TOL_FACTOR * trace``; ``zeros`` of
    the other eigenvalues are 0, as in the near-singular Grams of smooth
    kernels."""
    rest = rng.uniform(0.0, 1.0, m - 1)
    rest[:zeros] = 0.0
    # lam_min = c * f * (sum(rest) + lam_min)
    lam_min = c * PSD_TOL_FACTOR * rest.sum() / (1.0 - c * PSD_TOL_FACTOR)
    lam = np.append(rest, lam_min)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    G = (Q * lam) @ Q.T
    return (G + G.T) / 2.0


def assert_psd_defect_matches_reference(G):
    """The verdict is eigvalsh's; a failing matrix gets its defect bit for
    bit, a passing one 0.0."""
    defect, reference = psd_defect(G), psd_defect_reference(G)
    assert (defect > 0) == (reference > 0)
    assert defect == (reference if reference > 0 else 0.0)


class TestInvariantChecks:
    def test_indefinite_matrix_flagged(self):
        G = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        assert psd_defect(G) > 0

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 64),
           c=st.sampled_from([-4.0, -1.5, -1.01, -0.99, -0.75, -0.5, -0.25,
                              0.0, 1.0]),
           zero_share=st.sampled_from([0.0, 0.5, 0.9]),
           scale=st.sampled_from([1e-6, 1.0, 1e6]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_psd_verdict_matches_eigvalsh(self, m, c, zero_share, scale, seed):
        G = scale * planted_spectrum(np.random.default_rng(seed), m, c,
                                     int(zero_share * (m - 1)))
        assert_psd_defect_matches_reference(G)

    @pytest.mark.parametrize("G", [
        np.zeros((5, 5)), -np.eye(3), np.array([[1.0, 2.0], [2.0, -4.0]]),
        np.array([[2.0]]), np.array([[0.0]]), np.array([[-1e-300]]),
    ], ids=["zero", "negative_identity", "negative_trace", "one_by_one",
            "zero_one_by_one", "negative_one_by_one"])
    def test_psd_verdict_matches_eigvalsh_on_edge_matrices(self, G):
        assert_psd_defect_matches_reference(G)

    def test_psd_defect_reads_lower_triangle_as_eigvalsh_does(self):
        G = np.array([[1.0, 5.0], [0.0, 1.0]])  # lower triangle: identity
        assert psd_defect(G) == 0.0 and psd_defect(G.T) > 0
        assert_psd_defect_matches_reference(G)
        assert_psd_defect_matches_reference(G.T)

    def test_psd_defect_leaves_its_input_alone(self):
        G = np.asfortranarray(rbf_kernel(0.5).gram(
            np.random.default_rng(3).uniform(-1, 1, (12, 2))))
        before = G.copy()
        assert psd_defect(G) == 0.0
        assert np.array_equal(G, before)

    @pytest.mark.parametrize("cells,value", [
        ([(1, 2), (2, 1)], math.nan), ([(1, 2)], math.nan),
        ([(2, 1)], math.nan), ([(3, 3)], math.nan),
        ([(0, 1), (1, 0)], math.inf), ([(2, 2)], -math.inf),
    ], ids=["nan_pair", "nan_upper", "nan_lower", "nan_diagonal",
            "inf_pair", "minus_inf_diagonal"])
    def test_non_finite_entry_has_infinite_defect(self, cells, value):
        # eigvalsh returned nan for an isolated NaN pair, so the old
        # "psd_defect(G) > 0" let the Gram through; it raised LinAlgError
        # for others, and Cholesky can pass a NaN
        G = np.eye(4)
        for cell in cells:
            G[cell] = value
        assert psd_defect(G) == math.inf


class TestMetricValidation:
    @pytest.mark.parametrize("delta", [0.0, 5e-13, 2e-12, 1e-6, 2.9e-6, 3.1e-6,
                                       1e-3])
    def test_symmetry_check_matches_allclose(self, delta):
        M = np.array([[2.0, 0.3], [0.3 + delta, 1.0]])
        if np.allclose(M, M.T, atol=1e-12):
            gaussian_metric_kernel(M)
        else:
            with pytest.raises(InputError, match="symmetric"):
                gaussian_metric_kernel(M)

    @pytest.mark.parametrize("metric,needle", [
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "square"),
        ([[1.0, 2.0], [2.0, 1.0]], "semidefinite"),
        ([[1.0, float("nan")], [float("nan"), 1.0]], "finite"),
    ], ids=["not_square", "indefinite", "nan"])
    def test_bad_metric_rejected(self, metric, needle):
        with pytest.raises(InputError, match=needle):
            gaussian_metric_kernel(metric)

    @pytest.mark.parametrize("dims,width", [(None, 3), (None, 1), ((0, 2, 1), 3)],
                             ids=["wider_points", "narrower_points", "wider_dims"])
    @pytest.mark.parametrize("build", [
        lambda k, X: k.gram(X), lambda k, X: k.cross(X[:1], X),
        lambda k, X: k.expand(np.ones(len(X)), X, X)],
        ids=["gram", "cross", "expand"])
    def test_metric_of_another_width_rejected(self, dims, width, build):
        # a 2x2 metric on 3-wide (or 1-wide) points: einsum raised a bare
        # ValueError that the CLI did not map
        k = Kernel(terms=((1.0, BaseKernel(kind="gaussian_metric", dims=dims,
                                           metric=np.eye(2))),), bound_b=1.0)
        X = np.linspace(-1, 1, 4 * width).reshape(4, width)
        with pytest.raises(InputError, match=re.escape(
                f"metric of size 2 does not fit points of width {width}")):
            build(k, X)
        if dims is None:  # points of the metric's width on one side only
            with pytest.raises(InputError, match=re.escape(f"width {width}")):
                k.cross(np.zeros((1, 2)), X)

    def test_metric_of_the_selected_width_accepted(self):
        k = Kernel(terms=((1.0, BaseKernel(kind="gaussian_metric", dims=(2, 0),
                                           metric=np.eye(2))),), bound_b=1.0)
        X = np.linspace(-1, 1, 12).reshape(4, 3)
        expected = gaussian_metric_kernel(np.eye(2)).gram(X[:, [2, 0]])
        np.testing.assert_array_equal(k.gram(X), expected)


def _inverse_quadratic(a, b):
    return 1.0 / (1.0 + math.fsum((p - q) ** 2 for p, q in zip(a, b)))


EXPANSION_KERNELS = {
    "rbf": rbf_kernel(0.7),
    "linear": linear_kernel(scale=0.5, bound_b=1.5),
    "poly": poly_kernel(degree=3, scale=0.5, coef0=0.5, bound_b=8.0),
    "gaussian_metric": gaussian_metric_kernel(
        [[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]]),
    "custom": custom_kernel(_inverse_quadratic, bound_b=1.0),
    "combo_dims": kernel_from_dict({"type": "combo", "terms": [
        [0.25, {"type": "rbf", "bandwidth": 0.5, "dims": [0, 2]}],
        [0.75, {"type": "linear", "dims": [1], "bound": 1.0}]]}),
}


class TestExpand:
    SIZES = (1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1, 2 * EVAL_BLOCK + 37)

    @pytest.mark.parametrize("name", sorted(EXPANSION_KERNELS))
    def test_blocks_match_fsum_oracle(self, name):
        kernel = EXPANSION_KERNELS[name]
        rng = np.random.default_rng(len(name))
        # inputs, coefficients and kernel values are all positive, so no
        # entry cancels and a relative tolerance bounds every one
        S, coeffs = rng.uniform(0, 1, (3, 3)), rng.uniform(0.5, 1.5, 3)
        predictor = Predictor(alphas=coeffs, support_sample=S, kernel=kernel)
        for n in self.SIZES:
            X = rng.uniform(0, 1, (n, 3))
            S_before, X_before = S.copy(), X.copy()
            expected = kernel_expansion_fsum(kernel, coeffs, S, X)
            np.testing.assert_allclose(kernel.expand(coeffs, S, X), expected,
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(predictor.evaluate(X), expected,
                                       rtol=1e-12, atol=0)
            assert np.array_equal(S, S_before) and np.array_equal(X, X_before)

    def test_decision_values_are_the_planted_predictor(self):
        rng = np.random.default_rng(11)
        kernel = EXPANSION_KERNELS["combo_dims"]
        dist = make_planted_distribution(
            InputLaw(dim=3), kernel, rng.uniform(-1, 1, (6, 3)),
            rng.standard_normal(6))
        X = rng.uniform(-1, 1, (2 * EVAL_BLOCK + 37, 3))
        assert np.array_equal(dist.decision_values(X),
                              dist.planted_predictor().evaluate(X))


class TestPointWidths:
    @pytest.mark.parametrize("name", sorted(EXPANSION_KERNELS))
    def test_widths_that_differ_are_an_input_error(self, name):
        # 3-wide support, 2-wide rows: the metric's own check names the
        # width it does not fit, combo_dims's dims [0, 2] are out of range
        # on 2-wide rows, and every other kind names both widths
        kernel = EXPANSION_KERNELS[name]
        S, X = np.ones((3, 3)), np.ones((5, 2))
        predictor = Predictor(alphas=np.ones(3), support_sample=S,
                              kernel=kernel)
        for call in (lambda: kernel.cross(S, X), lambda: predictor.evaluate(X),
                     lambda: kernel(S[0], X[0])):
            with pytest.raises(InputError, match="width 2"):
                call()

    def test_message_names_both_selected_widths(self):
        with pytest.raises(InputError, match=r"^rbf kernel cannot pair points "
                           r"of width 2 with points of width 3$"):
            rbf_kernel(0.5).cross(np.zeros((2, 2)), np.zeros((3, 3)))
        # the widths compared are the selected ones: equal dims, no error
        assert rbf_kernel(0.5, dims=(0,)).cross(
            np.zeros((2, 2)), np.zeros((4, 3))).shape == (2, 4)
