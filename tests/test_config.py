"""Config values: each constructor owns its defaults and type checks, and the
JSON readers pass on what a file holds."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mtkl import (CoverRequest, InputError, InputLaw, Kernel, KernelFamily,
                  MarginParams, PseudodimBudget, SearchBudget, TaskCluster,
                  TaskEnvironment, instantiate, kernel_from_dict,
                  kernel_to_dict, linear_kernel, overhead_curve, poly_kernel,
                  rbf_kernel, run_trial)
from mtkl.envsim import environment_from_dict
from mtkl.kernels import family_from_dict, gaussian_metric_kernel

FORMATS = Path(__file__).resolve().parents[1] / "FORMATS.md"
NAN, INF = float("nan"), float("inf")
DICTIONARY = (rbf_kernel(0.6, dims=(0, 1)), rbf_kernel(0.6, dims=(2, 3)))
ENV = TaskEnvironment(dictionary=DICTIONARY, input_law=InputLaw(dim=4),
                      clusters=(TaskCluster(kernel_index=0),))
FAMILY = KernelFamily(variant="convex_combo", dictionary=DICTIONARY)
SPARSE = KernelFamily(variant="sparse_combo", dictionary=DICTIONARY, sparsity=2)
LINEAR = KernelFamily(variant="linear_combo", dictionary=DICTIONARY)
COVARIANCE = KernelFamily(variant="gaussian_covariance", dimension=1)
BASE = DICTIONARY[0].terms[0][1]
TRIAL = dict(n=2, m=8, gamma=0.1, delta=0.05, seed=0)
CURVE = dict(m=8, n_grid=[1], trials=1, seed=0, gamma=0.1)

# One wrong value per constructor field that a JSON file or CLI flag sets.
# Without the constructor's check, each would be coerced, truncated or
# accepted, or end in a TypeError or ValueError.
WRONG = {
    "rbf_bandwidth_string": lambda: rbf_kernel("0.6"),
    "rbf_bandwidth_nan": lambda: rbf_kernel(NAN),
    "rbf_dims_float": lambda: rbf_kernel(dims=[0.5]),
    "rbf_dims_negative": lambda: rbf_kernel(dims=[-1]),
    "linear_scale_string": lambda: linear_kernel(scale="2"),
    "linear_bound_bool": lambda: linear_kernel(bound_b=True),
    "poly_degree_float": lambda: poly_kernel(degree=2.5),
    "poly_coef0_string": lambda: poly_kernel(coef0="0.5"),
    "metric_bool_entry": lambda: gaussian_metric_kernel([[1.0, True],
                                                         [True, 1.0]]),
    "metric_string": lambda: gaussian_metric_kernel("ab"),
    "family_sparsity_string": lambda: KernelFamily(
        variant="sparse_combo", dictionary=DICTIONARY, sparsity="1"),
    "family_dimension_float": lambda: KernelFamily(
        variant="gaussian_covariance", dimension=2.0),
    "convex_weight_nan": lambda: instantiate(FAMILY, [NAN, 1.0]),
    "sparse_weight_nan": lambda: instantiate(SPARSE, [NAN, 1.0]),
    "linear_weight_nan": lambda: instantiate(LINEAR, [NAN, 1.0]),
    "linear_weight_inf": lambda: instantiate(LINEAR, [INF, 0.0]),
    "convex_weight_strings": lambda: instantiate(FAMILY, ["0.5", "0.5"]),
    "convex_weight_bools": lambda: instantiate(FAMILY, [True, False]),
    "covariance_metric_string": lambda: instantiate(COVARIANCE, [["2"]]),
    "kernel_weight_nan": lambda: Kernel(terms=((NAN, BASE),), bound_b=1.0),
    "kernel_bound_nan": lambda: Kernel(terms=((1.0, BASE),), bound_b=NAN),
    "kernel_bound_zero": lambda: Kernel(terms=((1.0, BASE),), bound_b=0.0),
    "input_law_dim_string": lambda: InputLaw(dim="2"),
    "input_law_low_string": lambda: InputLaw(dim=2, low="-1"),
    "input_law_high_inf": lambda: InputLaw(dim=2, high=INF),
    "mixture_means_string": lambda: InputLaw(kind="gaussian_mixture", dim=1,
                                             means=[["a"]]),
    "cluster_weight_string": lambda: TaskCluster(kernel_index=0, weight="1"),
    "cluster_weight_nan": lambda: TaskCluster(kernel_index=0, weight=NAN),
    "cluster_margin_gap_string": lambda: TaskCluster(kernel_index=0,
                                                     margin_gap="0.2"),
    "grid_resolution_float": lambda: SearchBudget(grid_resolution=1.5),
    "max_candidates_string": lambda: SearchBudget(max_candidates="10"),
    "gamma_string": lambda: MarginParams(gamma="0.1"),
    "gamma_nan": lambda: MarginParams(gamma=NAN),
    "gamma_inf": lambda: MarginParams(gamma=INF),
    "max_n_float": lambda: PseudodimBudget(max_n=2.5),
    "max_combos_string": lambda: PseudodimBudget(max_combos="10"),
    "probe_budget_float": lambda: CoverRequest(
        metric="kernel_mean_dev", candidates=DICTIONARY,
        evaluation_sample=np.zeros((2, 4)), probe_budget=2.5),
    "trial_n_string": lambda: run_trial(ENV, FAMILY, **{**TRIAL, "n": "2"}),
    "trial_m_float": lambda: run_trial(ENV, FAMILY, **{**TRIAL, "m": 8.0}),
    "trial_delta_string": lambda: run_trial(ENV, FAMILY,
                                            **{**TRIAL, "delta": "0.05"}),
    "trial_mc_samples_float": lambda: run_trial(ENV, FAMILY, mc_samples=1e3,
                                                **TRIAL),
    "curve_trials_string": lambda: overhead_curve(ENV, FAMILY,
                                                  **{**CURVE, "trials": "1"}),
    "curve_n_grid_entry_string": lambda: overhead_curve(
        ENV, FAMILY, **{**CURVE, "n_grid": [1, "2"]}),
}


@pytest.mark.parametrize("case", sorted(WRONG))
def test_constructor_rejects_wrong_type(case):
    with pytest.raises(InputError):
        WRONG[case]()


def _message(call) -> str:
    with pytest.raises(InputError) as exc:
        call()
    return str(exc.value)


def _environment(input_law=None, cluster=None) -> dict:
    return {"input_law": input_law or {"dim": 4},
            "dictionary": [{"type": "rbf"}],
            "clusters": [cluster or {"kernel_index": 0}]}


@pytest.mark.parametrize("from_json,from_python", [
    (lambda: kernel_from_dict({"type": "rbf", "bandwidth": "0.6"}),
     lambda: rbf_kernel("0.6")),
    (lambda: kernel_from_dict({"type": "linear", "bound": NAN}),
     lambda: linear_kernel(bound_b=NAN)),
    (lambda: kernel_from_dict({"type": "poly", "dims": [0, True]}),
     lambda: poly_kernel(dims=[0, True])),
    (lambda: family_from_dict({"variant": "sparse_combo", "sparsity": "1",
                               "dictionary": [{"type": "rbf"}]}),
     lambda: KernelFamily(variant="sparse_combo", sparsity="1",
                          dictionary=(rbf_kernel(),))),
    (lambda: environment_from_dict(_environment(
        cluster={"kernel_index": 0, "weight": "1"})),
     lambda: TaskCluster(kernel_index=0, weight="1")),
    (lambda: environment_from_dict(_environment(
        input_law={"dim": 2, "low": "-1"})),
     lambda: InputLaw(dim=2, low="-1")),
], ids=["rbf_bandwidth", "linear_bound", "poly_dims", "family_sparsity",
        "cluster_weight", "input_law_low"])
def test_json_and_python_raise_the_same_error(from_json, from_python):
    assert _message(from_json) == _message(from_python)


def _assert_same_fields(a, b):
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


@pytest.mark.parametrize("kind,make", [
    ("rbf", rbf_kernel), ("linear", linear_kernel), ("poly", poly_kernel)])
def test_minimal_kernel_spec_builds_constructor_defaults(kind, make):
    loaded, default = kernel_from_dict({"type": kind}), make()
    assert loaded.bound_b == default.bound_b
    [(w_loaded, base_loaded)] = loaded.terms
    [(w_default, base_default)] = default.terms
    assert w_loaded == w_default
    _assert_same_fields(base_loaded, base_default)


@pytest.mark.parametrize("dim", [1, 3])
def test_minimal_environment_builds_constructor_defaults(dim):
    env = environment_from_dict(_environment(input_law={"dim": dim}))
    _assert_same_fields(env.input_law, InputLaw(dim=dim))
    [cluster] = env.clusters
    _assert_same_fields(cluster, TaskCluster(kernel_index=0))


def test_minimal_family_builds_constructor_defaults():
    family = family_from_dict({"variant": "convex_combo",
                               "dictionary": [{"type": "rbf"}]})
    expected = KernelFamily(variant="convex_combo", dictionary=family.dictionary)
    _assert_same_fields(family, expected)


def _documented_kernel_specs() -> list[dict]:
    """Each JSON line of the first code block under FORMATS.md's "Kernel
    spec" heading."""
    text = FORMATS.read_text(encoding="utf-8")
    section = text.split("## Kernel spec", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    return [json.loads(line) for line in block.splitlines() if line.strip()]


def test_formats_kernel_specs_load_and_round_trip():
    specs = _documented_kernel_specs()
    assert {s["type"] for s in specs} == {"rbf", "linear", "poly",
                                          "gaussian_metric", "combo"}
    rng = np.random.default_rng(11)
    for spec in specs:
        kernel = kernel_from_dict(spec)
        back = kernel_from_dict(kernel_to_dict(kernel))
        width = len(spec["metric"]) if "metric" in spec else 3
        X = rng.uniform(-1, 1, (7, width))
        np.testing.assert_array_equal(kernel.gram(X), back.gram(X))
        assert back.bound_b == kernel.bound_b
        assert kernel_to_dict(back) == kernel_to_dict(kernel)


def test_dims_past_the_input_width_named():
    kernel = rbf_kernel(dims=[0, 3])
    with pytest.raises(InputError, match="3 .*width 3"):
        kernel.gram(np.zeros((4, 3)))
    assert kernel.gram(np.zeros((4, 4))).shape == (4, 4)
