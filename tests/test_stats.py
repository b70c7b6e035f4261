import math

import pytest

from geoweave.stats import Z_95, wilson_interval


def wilson_formula(successes, n):
    """The Wilson score bounds straight from the formula, clamped to
    [0, 1], with no special endpoints."""
    p = successes / n
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2 * n)) / denom
    half = (Z_95 / denom) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def test_no_success_and_all_successes_reach_the_endpoints_exactly():
    """The formula misses 0 and 1 by a rounding for hundreds of n (0 of 7
    gives 2.8e-17, 10 of 10 gives 0.9999999999999999); the interval does
    not."""
    assert wilson_formula(0, 7)[0] > 0.0 and wilson_formula(10, 10)[1] < 1.0
    for n in range(1, 2001):
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0


@pytest.mark.parametrize("successes,n,want", [
    (5, 10, (0.236593090512564, 0.7634069094874361)),
    (7, 10, (0.39677814746114537, 0.8922087325936989)),
    (130, 200, (0.5816346433604008, 0.7127117587264192)),
])
def test_reference_intervals(successes, n, want):
    assert wilson_interval(successes, n) == want


def test_every_other_bound_is_the_formula_bit_for_bit():
    """Draws count half a win, so successes run over halves."""
    for n in range(1, 201):
        for k in range(2 * n + 1):
            successes = k / 2
            low, high = wilson_interval(successes, n)
            want_low, want_high = wilson_formula(successes, n)
            if successes > 0:
                assert low.hex() == want_low.hex(), (successes, n)
            if successes < n:
                assert high.hex() == want_high.hex(), (successes, n)


def test_no_trials_raises():
    with pytest.raises(ValueError, match="at least one trial"):
        wilson_interval(0, 0)
