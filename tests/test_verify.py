"""Seeds on which a verify suite once failed. Each pin names the defect it
guards against; every suite must pass on every seed."""

import pytest

from cope.verify import run_degree_law, run_gradients


# A (2, 2, 2) chain's degree-8 level sat below the float probe's rounding
# floor and was read as degree 7 (6 on some seeds); the exact path decides.
@pytest.mark.parametrize("seed", [16, 21, 55, 302, 303])
def test_degree_law_passes(seed):
    result = run_degree_law(seed)
    assert result.passed, result.details


# The tanh chain's smallest gradients (about 1e-8) sat at the central
# difference's rounding noise, which the fixed 1e-8 floor read as a 1.2e-5
# relative error. On seed 1685 the difference's h^2 truncation read 1.25e-5;
# the Richardson redo of that coordinate removes it.
@pytest.mark.parametrize("seed", [225, 537, 584, 1251, 1685])
def test_gradients_pass(seed):
    result = run_gradients(seed)
    assert result.passed, result.max_deviation
