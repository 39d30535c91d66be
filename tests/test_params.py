import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hestoncal.params import (
    DEFAULT_CALIB_BOX,
    DEFAULT_PARAM_BOX,
    FELLER_EPS,
    RHO_CAP,
    ModelParams,
    ParamBox,
    clamp_to_box,
    feller_margin,
    put_payoff_log,
)


def test_model_params_validation():
    ModelParams(0.5, -0.5, 0.2, 1.0, 0.05)
    with pytest.raises(ValueError):
        ModelParams(-0.1, 0.0, 0.2, 1.0, 0.05)
    with pytest.raises(ValueError):
        ModelParams(0.5, 1.0, 0.2, 1.0, 0.05)
    ModelParams(0.5, 0.0, 0.2, 1.0, -0.01)  # negative rates are allowed
    for r in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(0.5, 0.0, 0.2, 1.0, r)
    for bad in (np.nan, np.inf, -np.inf, 0.0, -0.1):
        for i in (0, 2, 3):  # xi, gamma, kappa
            theta = [0.5, 0.0, 0.2, 1.0, 0.05]
            theta[i] = bad
            with pytest.raises(ValueError, match="finite and positive"):
                ModelParams(*theta)


def test_feller():
    assert feller_margin(0.1, 0.07, 0.1) == pytest.approx(2 * 0.1 * 0.07 - 0.01)
    assert feller_margin(0.1, 0.07, 0.1) >= FELLER_EPS
    assert feller_margin(0.7, 0.3, 1.4) >= FELLER_EPS  # 0.84 > 0.49
    assert feller_margin(0.9, 0.05, 1.0) < FELLER_EPS  # 0.1 < 0.81


def test_put_payoff_log():
    # the unit-strike put: max(1 - e^x, 0)
    assert put_payoff_log(0.0) == 0.0
    assert put_payoff_log(np.log(0.5)) == pytest.approx(0.5)
    assert put_payoff_log(1.0) == 0.0
    np.testing.assert_allclose(put_payoff_log(np.log([0.25, 1.0, 4.0])), [0.75, 0.0, 0.0], atol=1e-15)


def test_rho_bounds_shrunk():
    box = ParamBox(lower=(0.1, -1.0, 0.01, 0.1, 0.01), upper=(0.9, 1.0, 0.5, 5.0, 0.8))
    assert box.lo[1] == -RHO_CAP and box.hi[1] == RHO_CAP


def test_box_membership_and_midpoint():
    box = DEFAULT_PARAM_BOX
    assert box.contains(box.midpoint())
    assert not box.contains([0.0, 0.0, 0.1, 1.0, 0.1])


@given(st.lists(st.floats(-10, 10), min_size=5, max_size=5))
def test_clamp_idempotent_and_inside(theta):
    box = DEFAULT_CALIB_BOX
    c = clamp_to_box(theta, box)
    assert box.contains(c)
    np.testing.assert_array_equal(clamp_to_box(c, box), c)
