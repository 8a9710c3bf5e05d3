"""Kernel, family, and Gram-matrix contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtkl import (InputError, KernelFamily, NumericError, check_kernel_invariants,
                  gram, instantiate, kernel_from_dict, kernel_to_dict,
                  linear_kernel, min_eigenvalue, pd_upper_bound, poly_kernel,
                  psd_defect, rbf_kernel)
from mtkl.kernels import family_from_dict, family_to_dict, gaussian_metric_kernel


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
        G = gram(k, [(1.0, 0.0), (0.0, 1.0)])
        np.testing.assert_array_equal(G, np.eye(2))

    def test_rbf_duplicate_point(self):
        k = rbf_kernel(1.0)
        G = gram(k, [(0.3, -0.2), (0.3, -0.2)])
        np.testing.assert_allclose(G, np.ones((2, 2)), atol=1e-15)

    def test_rbf_scalar_points(self):
        G = gram(rbf_kernel(1.0), [(0.0,), (2.0,)])
        assert G[0, 1] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            gram(rbf_kernel(1.0), [[1.0, 2.0], [1.0]])

    def test_empty_sample(self):
        with pytest.raises(InputError):
            gram(rbf_kernel(1.0), np.empty((0, 2)))

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


class TestInvariantChecks:
    def test_indefinite_matrix_flagged(self):
        G = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        assert psd_defect(G) > 0

    def test_bound_violation_raises(self):
        k = gaussian_metric_kernel(np.eye(2))
        object.__setattr__(k, "bound_b", 0.5)
        with pytest.raises(NumericError):
            check_kernel_invariants(k, [[0.0, 0.0]])
