"""mtkl: multi-task and lifelong kernel learning toolkit.

Learns margin classifiers jointly over parametric kernel families, evaluates
the matching closed-form estimation-error bounds, measures family capacity
empirically (pseudo-shattering, greedy covers), and verifies the bound
behavior on seeded synthetic task environments.
"""

from .errors import BudgetError, InputError, NumericError
from .kernels import (BaseKernel, Kernel, KernelFamily,
                      check_kernel_invariants, custom_kernel, gaussian_metric_kernel,
                      instantiate, kernel_from_dict, kernel_to_dict, linear_kernel,
                      load_family, min_eigenvalue, pd_upper_bound, poly_kernel,
                      psd_defect, rbf_kernel)
from .margin import (MarginParams, Predictor, TaskData, empirical_margin_error,
                     fit_single_task)
from .erm import (MultiTaskSample, MultiTaskSolution, SearchBudget,
                  enumerate_candidates, erm_fit, load_multitask_sample)
from .bounds import (BoundConstants, BoundInputs, DeltaResult, EpsilonResult,
                     appendix_sample_size, cover_bound_fk, cover_bound_hn,
                     cover_bound_kernel_dn, cover_bound_kernel_nm, invert_epsilon,
                     lifelong_delta, multitask_epsilon)
from .capacity import (CoverRequest, CoverResult, PseudodimBudget, PseudodimResult,
                       ShatterInstance, ShatterWitness, greedy_cover, is_shattered,
                       kernel_deviation_distance, pairwise_distances,
                       pseudodim_lower_bound)
from .envsim import (Distribution, ErmGuaranteeReport, InputLaw, OverheadPoint,
                     TaskCluster, TaskEnvironment, TrialOutcome, TrialReport,
                     avg_true_error, load_environment, make_planted_distribution,
                     overhead_curve, run_trial, sample_lifelong, sample_multitask)

__version__ = "0.1.0"

# There is one numeric path (numpy); the benchmark harness in perfbench/
# still reads this flag for its report line.
NUMBA_ENABLED = False
