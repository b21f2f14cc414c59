import sys

import numpy as np
import pytest

from teich2 import group, octagon, validation
from teich2.octagon import grid_arrays
from teich2.validation import _ONCE_CHECKS, CHECKS, DEFAULT_TOLERANCES, point_block, run_validation

# checked once at a probe point inside run_validation, not through the tables:
# the ball sizes are a property of the group, not of each grid point
PROBE_CHECKS = {"ball_counts"}


def test_no_tolerance_is_reported_by_two_checks():
    reported = []
    for check in CHECKS.values():
        reported.extend(check(point_block(np.array([0.8]), np.array([0.1]))))
    for key, check in _ONCE_CHECKS.items():
        # no perimeters for area_cross_check: the name without a sweep
        reported.extend(check(()) if key == "area_cross_check" else check())
    assert len(reported) == len(set(reported))
    assert set(reported) | PROBE_CHECKS == set(DEFAULT_TOLERANCES)


def test_empty_grid_rejected():
    with pytest.raises(ValueError, match="no points"):
        run_validation(0, 3, 0.02, 0)


def test_fn_consistency_is_relative_for_large_quantities():
    # d_k is about 2e4 here; its identities hold to ~1e-11 relative but
    # miss 1e-9 in absolute terms
    res = CHECKS["fn_consistency"](point_block(np.array([0.995]),
                                                     np.array([-0.33224804589778684])))
    assert res["fn_consistency"] <= DEFAULT_TOLERANCES["fn_consistency"]


@pytest.mark.parametrize("n_a, n_alpha, margin", [(20, 20, 0.005), (40, 41, 0.0068)])
def test_shared_block_moves_no_residual(n_a, n_alpha, margin):
    # the oracle gives each check a point_block of its own, as when every
    # check computed its own forms; a check that wrote into the shared forms
    # would move the residuals of the checks after it
    a, at = grid_arrays(n_a, n_alpha, margin)
    for start in range(0, a.size, validation._BLOCK):
        rows = slice(start, start + validation._BLOCK)
        shared = point_block(a[rows], at[rows])
        for key, check in CHECKS.items():
            fresh = check(point_block(a[rows], at[rows]))
            for name, residual in check(shared).items():
                assert residual.tobytes() == fresh[name].tobytes(), (key, name, start)


def test_one_block_evaluates_its_octagon_and_half_turns_once(monkeypatch):
    # every teich2 module that binds the name calls through the counter, as
    # perfbench's tracer patches it, so calls by way of build_geometry or the
    # CLI count too
    calls = {}
    for fn in (octagon.octagon_forms, group.half_turns):
        log = calls[fn.__name__] = []

        def counted(*args, _fn=fn, _log=log):
            result = _fn(*args)
            _log.append((args, result))
            return result

        for name, module in list(sys.modules.items()):
            if (name == "teich2" or name.startswith("teich2.")) and \
                    getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    a, at = grid_arrays(50, 50, 0.02)  # two blocks: 2048 points and 452
    run_validation(50, 50, 0.02, 0)
    blocks = range(0, a.size, validation._BLOCK)
    assert len(calls["octagon_forms"]) == len(calls["half_turns"]) == len(blocks) == 2
    for start, (args, forms), ((m_forms,), _) in zip(
            blocks, calls["octagon_forms"], calls["half_turns"]):
        # the block's own points, not their conjugates (b, -at)
        block_a, block_at = args
        assert block_a.tobytes() == a[start:start + validation._BLOCK].tobytes()
        assert block_at.tobytes() == at[start:start + validation._BLOCK].tobytes()
        assert m_forms is forms


def test_a_check_reports_the_names_its_refusal_fails():
    # a CHECKS entry that refuses a block fails the names _reported gives it
    block = point_block(np.array([0.8, 0.85]), np.array([0.1, -0.2]))
    for key, check in CHECKS.items():
        assert validation._reported(key) == list(check(block)), key
