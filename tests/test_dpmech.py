"""Clipping, calibration, Laplace sampling, and the privacy-bound audit."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprw.dpmech import (
    _BLOCK_VALUES,
    BOUND_TOL,
    PrivacyParams,
    calibrate_scale,
    clip_l1,
    log_density,
    privatize,
    run_bound_suite,
    sample_laplace,
    verify_dp_bound,
)
from dprw.numcore import Rng, clip_rows_l1
from oracles import run_bound_suite_whole

# -- parameters ------------------------------------------------------------------


def test_privacy_params_validation():
    PrivacyParams(epsilon=1.0, clip_c=5.0)
    PrivacyParams(epsilon=math.inf, clip_c=5.0)
    for eps in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=eps, clip_c=5.0)
    for clip in (0.0, -2.0, math.inf):
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, clip_c=clip)


@pytest.mark.parametrize(
    "epsilon, clip_c, b",
    [(1e308, 1e-300, "0.0"), (1e-308, 5.0, "inf"), (1.0, 1e308, "inf"), (1000.0, 1e-322, "0.0")],
)
def test_privacy_params_refuse_a_noise_scale_of_zero_or_infinity(epsilon, clip_c, b):
    # b = 2C / epsilon underflows to 0 (no noise) or overflows to inf
    named = f"epsilon {epsilon!r} with clip_c {clip_c!r} gives noise scale b = 2 * clip_c / epsilon = {b}"
    with pytest.raises(ValueError, match=re.escape(named)):
        PrivacyParams(epsilon=epsilon, clip_c=clip_c)
    assert PrivacyParams(epsilon=math.inf, clip_c=clip_c).non_private
    # the nearest representable settings still calibrate a positive finite scale
    assert 0.0 < calibrate_scale(PrivacyParams(epsilon=1e300, clip_c=1e-5)) < math.inf
    assert 0.0 < calibrate_scale(PrivacyParams(epsilon=1e-300, clip_c=5.0)) < math.inf


def test_non_private_flag():
    assert PrivacyParams(epsilon=math.inf, clip_c=1.0).non_private
    assert not PrivacyParams(epsilon=1000.0, clip_c=1.0).non_private


# -- clipping --------------------------------------------------------------------


def test_clip_inside_ball_is_identity():
    v = np.array([0.5, -1.0, 0.25])
    out = clip_l1(v, 2.0)
    assert np.array_equal(out, v)


def test_clip_outside_ball_lands_on_sphere_preserving_direction():
    v = np.array([3.0, -4.0, 5.0])
    out = clip_l1(v, 2.0)
    assert np.isclose(np.abs(out).sum(), 2.0)
    np.testing.assert_allclose(out / np.abs(out).sum() * 12.0, v)


def test_clip_is_idempotent():
    v = np.array([10.0, -7.0])
    once = clip_l1(v, 1.5)
    np.testing.assert_allclose(clip_l1(once, 1.5), once)


def test_clip_rejects_bad_inputs():
    with pytest.raises(ValueError):
        clip_l1(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        clip_l1(np.array([1.0, np.inf]), 1.0)


def test_clip_l1_is_the_tape_row_clip_bit_for_bit():
    rng = Rng(21)
    rows = rng.derive("rows").normal(0.0, 1.0, (400, 33)) * rng.derive("mag").uniform(0.0, 3.0, (400, 1))
    rows[::7, ::3] = -0.0  # signed zeros must survive untouched rows
    clipped = clip_rows_l1(rows, 10.0)[0]
    for row, batch_row in zip(rows, clipped):
        norm = float(np.abs(row).sum())
        expected = row.copy() if norm <= 10.0 else row * (10.0 / norm)
        assert clip_l1(row, 10.0).tobytes() == batch_row.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=16),
    st.floats(0.1, 10.0),
)
def test_clip_property_never_exceeds_radius(values, clip_c):
    out = clip_l1(np.array(values), clip_c)
    assert np.abs(out).sum() <= clip_c + 1e-9


# -- calibration -------------------------------------------------------------------


def test_scale_is_twice_clip_over_epsilon():
    assert calibrate_scale(PrivacyParams(epsilon=10.0, clip_c=5.0)) == 1.0
    assert calibrate_scale(PrivacyParams(epsilon=1.0, clip_c=5.0)) == 10.0
    assert calibrate_scale(PrivacyParams(epsilon=math.inf, clip_c=5.0)) == 0.0


# -- sampling ----------------------------------------------------------------------


def test_laplace_zero_scale_is_exactly_zero_and_consumes_nothing():
    rng = Rng(0).derive("laplace")
    before = Rng(0).derive("laplace").random(4)
    out = sample_laplace(0.0, 8, rng)
    assert np.array_equal(out, np.zeros(8))
    np.testing.assert_array_equal(rng.random(4), before)


def test_laplace_moments_match_distribution():
    b = 2.0
    draws = sample_laplace(b, 200_000, Rng(7).derive("moments"))
    # mean 0, E|x| = b, var = 2 b^2
    assert abs(draws.mean()) < 0.02
    assert abs(np.abs(draws).mean() - b) < 0.02
    assert abs(draws.var() - 2 * b * b) < 0.15


def test_laplace_is_deterministic_per_stream():
    a = sample_laplace(1.0, 16, Rng(3).derive("s"))
    b = sample_laplace(1.0, 16, Rng(3).derive("s"))
    np.testing.assert_array_equal(a, b)


def test_laplace_rejects_bad_args():
    with pytest.raises(ValueError):
        sample_laplace(1.0, 0, Rng(0))
    with pytest.raises(ValueError):
        sample_laplace(-1.0, 4, Rng(0))


# -- privatize ----------------------------------------------------------------------


def test_privatize_non_private_is_bitwise_clip():
    params = PrivacyParams(epsilon=math.inf, clip_c=2.0)
    v = np.array([5.0, -3.0, 0.5])
    out = privatize(v, params, Rng(0).derive("p"))
    assert np.array_equal(out, clip_l1(v, 2.0))


def test_privatize_adds_noise_when_finite():
    params = PrivacyParams(epsilon=10.0, clip_c=2.0)
    v = np.array([1.0, -0.5])
    out = privatize(v, params, Rng(1).derive("p"))
    assert not np.array_equal(out, clip_l1(v, 2.0))


def test_privatize_deterministic_given_stream():
    params = PrivacyParams(epsilon=5.0, clip_c=2.0)
    v = np.array([1.0, 2.0, 3.0])
    a = privatize(v, params, Rng(11).derive("doc", 4))
    b = privatize(v, params, Rng(11).derive("doc", 4))
    np.testing.assert_array_equal(a, b)


# -- density and bound checks ---------------------------------------------------------


def test_log_density_matches_closed_form():
    # product of two Laplace(0, b) densities at |y_i - c_i| = 1 each
    val = log_density(np.array([1.0, -1.0]), np.zeros(2), b=0.5)
    expected = 2 * (-np.log(1.0) - 1.0 / 0.5)
    assert np.isclose(val, expected)
    with pytest.raises(ValueError):
        log_density(np.zeros(2), np.zeros(2), b=0.0)
    with pytest.raises(ValueError):
        log_density(np.zeros(2), np.zeros(3), b=1.0)


def test_verify_bound_accepts_clipped_rejects_unclipped():
    params = PrivacyParams(epsilon=1.0, clip_c=1.0)
    u = np.array([0.5, -0.5])
    v = np.array([-0.5, 0.5])
    check = verify_dp_bound(u, v, np.array([3.0, -3.0]), params)
    assert check.ok and abs(check.log_ratio) <= 1.0 + BOUND_TOL
    with pytest.raises(ValueError):
        verify_dp_bound(np.array([2.0, 0.0]), v, np.zeros(2), params)


def test_verify_bound_infinite_epsilon_is_vacuous():
    params = PrivacyParams(epsilon=math.inf, clip_c=1.0)
    check = verify_dp_bound(np.ones(1), -np.ones(1), np.array([99.0]), params)
    assert check.ok and check.log_ratio == 0.0


def test_worst_case_pair_reaches_epsilon_exactly():
    # antipodal points at radius C probed far along their axis: the ratio
    # is (||y+u|| - ||y-u||)/b = 2C/b = epsilon
    eps, c = 4.0, 5.0
    params = PrivacyParams(epsilon=eps, clip_c=c)
    b = calibrate_scale(params)
    u = np.array([c, 0.0])
    y = np.array([10 * c, 0.0])
    ratio = log_density(y, u, b) - log_density(y, -u, b)
    assert np.isclose(ratio, eps)


def test_bound_suite_passes_when_calibrated():
    params = PrivacyParams(epsilon=10.0, clip_c=5.0)
    report = run_bound_suite(params, dim=32, trials=4000, rng=Rng(5).derive("suite"))
    assert report.ok
    assert report.violations == 0
    assert report.max_abs_log_ratio <= 10.0 + BOUND_TOL
    assert report.tightness >= 0.99


def test_bound_suite_fails_on_miscalibrated_scale():
    # b = C/eps is the historical calibration error; worst ratio doubles
    eps, c = 10.0, 5.0
    params = PrivacyParams(epsilon=eps, clip_c=c)
    report = run_bound_suite(
        params, dim=32, trials=4000, rng=Rng(6).derive("suite"), noise_scale=c / eps
    )
    assert not report.ok
    assert report.violations > 0
    assert abs(report.max_abs_log_ratio - 2 * eps) <= 0.05 * 2 * eps


def test_bound_suite_is_deterministic():
    params = PrivacyParams(epsilon=1.0, clip_c=5.0)
    a = run_bound_suite(params, dim=16, trials=2000, rng=Rng(9).derive("suite"))
    b = run_bound_suite(params, dim=16, trials=2000, rng=Rng(9).derive("suite"))
    assert a == b


class _NoStreams:
    def derive(self, *keys):
        raise AssertionError("the suite drew randomness before refusing its arguments")


@pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
def test_bound_suite_refuses_a_scale_that_is_not_positive_and_finite(scale):
    with pytest.raises(ValueError, match="noise_scale must be positive and finite"):
        run_bound_suite(PrivacyParams(epsilon=10.0, clip_c=5.0), 8, 100, _NoStreams(), noise_scale=scale)


def _report_bits(report):
    return (
        report.epsilon.hex(),
        report.trials,
        report.max_abs_log_ratio.hex(),
        report.violations,
        report.tightness.hex(),
        report.ok,
    )


def _block_edge_trials(dim):
    """Trial counts around the block edges: of the antipodal part at
    8 * rows, of the random part where trials - trials // 8 meets rows."""
    rows = max(1, _BLOCK_VALUES // dim)
    counts = {1, 8, 9, rows - 1, rows, rows + 1, 8 * rows + 1, 5000}
    counts |= {t for t in range(rows, 2 * rows) if t - max(1, t // 8) in (rows - 1, rows, rows + 1)}
    return sorted(counts)


@pytest.mark.parametrize("noise_scale", [None, 0.5])
@pytest.mark.parametrize("dim", [1, 3, 128, 300])  # 300: an odd row count per block
def test_blocked_bound_suite_matches_the_whole_array_oracle_bit_for_bit(dim, noise_scale):
    for eps in (10.0, 1.0):
        params = PrivacyParams(epsilon=eps, clip_c=5.0)
        for trials in _block_edge_trials(dim):
            rng = Rng(12).derive("suite", dim, trials)
            got = run_bound_suite(params, dim, trials, rng, noise_scale=noise_scale)
            want = run_bound_suite_whole(params, dim, trials, rng, noise_scale=noise_scale)
            assert _report_bits(got) == _report_bits(want), (dim, trials, eps)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    dim=st.integers(1, 300),
    trials=st.integers(1, 3000),
    eps=st.sampled_from([1000.0, 100.0, 10.0, 1.0, 0.1]),
    miscalibrated=st.booleans(),
)
def test_blocked_bound_suite_matches_the_oracle_on_random_shapes(seed, dim, trials, eps, miscalibrated):
    params = PrivacyParams(epsilon=eps, clip_c=5.0)
    noise_scale = 5.0 / eps if miscalibrated else None
    rng = Rng(seed).derive("prop")
    got = run_bound_suite(params, dim, trials, rng, noise_scale=noise_scale)
    assert _report_bits(got) == _report_bits(run_bound_suite_whole(params, dim, trials, rng, noise_scale))


def test_bound_suite_memory_does_not_grow_with_trials():
    # the whole-array oracle peaks near 600 MiB here; the blocks near 3 MiB
    tracemalloc.start()
    try:
        report = run_bound_suite(PrivacyParams(epsilon=10.0, clip_c=5.0), 128, 100_000, Rng(4).derive("mem"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@settings(max_examples=30, deadline=None)
@given(
    eps=st.sampled_from([1000.0, 100.0, 10.0, 1.0]),
    dim=st.integers(1, 64),
    seed=st.integers(0, 1000),
)
def test_bound_holds_for_random_clipped_pairs(eps, dim, seed):
    params = PrivacyParams(epsilon=eps, clip_c=5.0)
    rng = Rng(seed).derive("prop")
    u = clip_l1(rng.derive("u").normal(0.0, 3.0, dim), 5.0)
    v = clip_l1(rng.derive("v").normal(0.0, 3.0, dim), 5.0)
    y = privatize(u, params, rng.derive("y"))
    assert verify_dp_bound(u, v, y, params).ok
