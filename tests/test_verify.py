"""Every suite and every row of `verify` as Tier-1 cases.

A suite runs the first time one of its cases asks for it, once per module,
so collecting this module runs nothing and a `-k` run of other tests does
not pay for the suites.  ROWS lists each suite's rows by case id, which keeps
one case per row without running the suites at collection; the suite case
fails when a suite's rows and ROWS differ, so no row goes unchecked.
"""

import functools
import re

import pytest

from dgpcyclegan import verify

ROWS = {
    "linalg": (
        "identity_factorization", "hand_2x2_factorization", "indefinite_rejected", "asymmetric_rejected",
        "hand_2x2_solve", "solve_residuals_200_random", "one_solve_vs_two_triangular_solves_50_jittered",
        "factor_round_trip_dims_1_16",
    ),
    "kernels": (
        "SE_zero_distance", "SE_at_squared_distance_2", "SE_monotone_decreasing_and_in_0_1", "symmetry_in_x_y",
        "depth_1_equals_base_kernel", "depth_2_hand_value", "self_similarity_equals_beta_L_2",
        "gram_noise_is_PD_100_sets",
    ),
    "gp": (
        "one_point_closed_form", "noiseless_interpolation", "variance_bounds_and_reduction",
        "permutation_invariance", "brute_force_oracle_equivalence_100", "stacked_GP_vs_per_row_calls_B_1_4_3_seeds",
        "joint_Gram_blocks_vs_separate_kernel_calls_60", "pseudo_loss_value_and_multiplier",
        "bank_taps_vs_full_forward_taps_exact",
    ),
    "grads": (
        "pseudo_loss_gradient_vs_FD_50", "query_gradient_toggle_vs_FD_se_lin_sc_depth_1_3",
        "generator_backward_vs_FD", "discriminator_backward_vs_FD", "composite_objective_vs_FD_5_seeds",
        "3_row_nets_vs_per_row_calls_3_seeds", "2_pair_step_vs_per_pair_mean_3_seeds",
        "fused_Adam_vs_textbook_update_50_steps", "two_cache_param_grads_vs_one_cache_backwards",
    ),
    "metrics": (
        "psnr_unit_cases", "ssim_unit_cases", "pgm_round_trip_and_truncation", "degradation_additivity",
        "synthetic_data_vs_per_bump_and_per_streak_loops_exact",
    ),
}


def _slug(name: str) -> str:
    return re.sub(r"\W+", "_", name).strip("_")


@functools.cache
def suite_rows(suite: str) -> dict:
    """{case id: CheckResult} of one suite, run on first use."""
    return {_slug(row.name): row for row in verify.run_suites([suite])[suite]}


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_verify_suite_passes(suite):
    rows = suite_rows(suite)
    problems = [f"{row.name}: {row.detail}" for row in rows.values() if not row.ok]
    problems += [f"{slug}: not in ROWS" for slug in rows if slug not in ROWS[suite]]
    problems += [f"{slug}: listed in ROWS, not run" for slug in ROWS[suite] if slug not in rows]
    assert not problems, f"{suite}: " + "; ".join(problems)


@pytest.mark.parametrize(
    "suite, slug", [(s, slug) for s, slugs in ROWS.items() for slug in slugs], ids=lambda v: v
)
def test_verify_row_passes(suite, slug):
    row = suite_rows(suite).get(slug)
    assert row is not None, f"{suite}: no row {slug}"
    assert row.ok, f"{suite}: {row.name}: {row.detail}"
