import math

import numpy as np
import pytest

from teich2.validation import CHECKS, DEFAULT_TOLERANCES, run_validation

# checked once at the probe point inside run_validation, not through CHECKS
PROBE_CHECKS = {"side_pairing_interior", "ball_counts"}


def test_no_tolerance_is_reported_by_two_checks():
    reported = []
    for key, check in CHECKS.items():
        if check.per_point:
            res = check.fn(np.array([0.8]), np.array([0.1]))
        elif key == "area_cross_check":
            res = check.fn(())  # no perimeters: the name without a sweep
        else:
            res = check.fn()
        reported.extend(res)
    assert len(reported) == len(set(reported))
    assert set(reported) | PROBE_CHECKS == set(DEFAULT_TOLERANCES)


def test_empty_grid_rejected():
    with pytest.raises(ValueError, match="no points"):
        run_validation(n_a=0, n_alpha=3)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_bad_tolerance_value_rejected(tol):
    with pytest.raises(ValueError, match="tolerance relation_defect must be finite and >= 0"):
        run_validation(n_a=2, n_alpha=2, tolerances={"relation_defect": tol})


def test_fn_consistency_is_relative_for_large_quantities():
    # d_k is about 2e4 here; its identities hold to ~1e-11 relative but
    # miss 1e-9 in absolute terms
    res = CHECKS["fn_consistency"].fn(np.array([0.995]), np.array([-0.33224804589778684]))
    assert res["fn_consistency"] <= DEFAULT_TOLERANCES["fn_consistency"]
