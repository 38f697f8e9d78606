"""Tests for the packet half-width selection and its scaling with n."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fejerwell import (
    PacketSpec,
    WellConfig,
    default_n_grid,
    optimal_N,
    scan_n,
    tracking_error,
    uncertainty_product,
)
from fejerwell import optimizer
from fejerwell.optimizer import _tracking_curve
from pair_oracle import tracking_curve

NATURAL = WellConfig()


def default_window(n):
    return min(n - 1, math.ceil(4 * math.sqrt(n)))


def test_headline_width_at_n_500():
    row = optimal_N(NATURAL, 500)
    assert row.N_opt == 23
    assert row.product_min >= 0.5
    assert math.isclose(row.sqrt_n, math.sqrt(500), rel_tol=1e-15)


@pytest.mark.parametrize("n,target", [(16, 4), (64, 8), (256, 16)])
def test_square_root_law_samples(n, target):
    assert abs(optimal_N(NATURAL, n).N_opt - target) <= 1


def test_small_n_matches_exhaustive_bruteforce():
    # independent check: every candidate's error from the O(N^2) pair sum
    for n in (4, 5, 9, 30):
        row = optimal_N(NATURAL, n, N_min=1, N_max=n - 1)
        objs = tracking_curve(NATURAL, n, n - 1, 1024)
        assert row.N_opt == 1 + int(np.argmin(objs[1:])), n


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 2000), st.sampled_from([1, 2, 257, 1000, 1024]))
@example(4, 1)
@example(2000, 1024)
@example(500, 257)
def test_factored_curve_matches_pair_sum(n, t_points):
    N_max = default_window(n)
    fast = _tracking_curve(NATURAL, n, N_max, t_points)
    ref = tracking_curve(NATURAL, n, N_max, t_points)
    assert np.all(np.abs(fast - ref) <= 1e-12 * np.abs(ref))
    for N in range(1, N_max + 1):
        assert np.argmin(fast[1 : N + 1]) == np.argmin(ref[1 : N + 1]), N


@pytest.mark.parametrize("M", [4, 8, 64, 4096, 2 * 10_000 * 1024])
def test_half_angle_pair_matches_cos_and_sin(M):
    # every residue of a small M, and r = 0, M/4, M/2 (the pole of
    # tan(pi r / M)) and 3M/4 with their neighbours for the n = 10^4 grid
    r = np.arange(M)
    if M > 4096:
        r = np.array([0, 1, M // 4 - 1, M // 4, M // 2 - 1, M // 2, M // 2 + 1, 3 * M // 4, M - 1, 12345])
    rows = r.reshape(-1, 1) if r.size % 4 else r.reshape(-1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = optimizer._half_angle_pair(rows, M)
    cos, sin = pair[: len(rows)].ravel(), pair[len(rows) :].ravel()
    phase = 2 * np.pi * r / M
    eps = np.finfo(float).eps
    assert np.all(np.abs(cos - np.cos(phase)) <= 2 * eps)
    assert np.all(np.abs(sin - np.sin(phase)) <= 2 * eps)


def test_first_rise_stop_equals_exhaustive_scan():
    # optimal_N stops at the first rise; the whole window's argmin must agree
    for n in range(4, 301):
        N_max = default_window(n)
        curve = _tracking_curve(NATURAL, n, N_max, 1024)
        opt = 1 + int(np.argmin(curve[1:]))
        for N_min in {1, opt - 1, opt, opt + 1} & set(range(1, N_max + 1)):
            want = N_min + int(np.argmin(curve[N_min:]))
            assert optimal_N(NATURAL, n, N_min=N_min).N_opt == want, (n, N_min)
    for n in range(4, 61):
        curve = _tracking_curve(NATURAL, n, n - 1, 1024)
        assert optimal_N(NATURAL, n, N_max=n - 1).N_opt == 1 + int(np.argmin(curve[1:])), n


@pytest.mark.parametrize("t_points", [2, 257, 2048])
def test_first_rise_stop_equals_exhaustive_scan_on_other_grids(t_points):
    for n in (4, 7, 12, 20, 33, 55, 90, 150, 250, 300):
        curve = _tracking_curve(NATURAL, n, default_window(n), t_points)
        row = optimal_N(NATURAL, n, t_points=t_points)
        assert row.N_opt == 1 + int(np.argmin(curve[1:])), n


def test_scan_stops_after_first_rise(monkeypatch):
    drawn = []
    errors = optimizer._tracking_errors

    def counted(*args):
        for err in errors(*args):
            drawn.append(err)
            yield err

    monkeypatch.setattr(optimizer, "_tracking_errors", counted)
    row = optimal_N(NATURAL, 500)
    assert row.N_opt == 23
    # N = 0..24 up to the first rise, not the window's 0..90
    assert len(drawn) <= row.N_opt + 2
    assert drawn[-1] > drawn[-2]


@pytest.mark.parametrize(
    "n,N_opt,product",
    [(2000, 54, 308.47890679217085), (10_000, 144, 963.7811515087348)],
)
def test_width_law_at_scale(n, N_opt, product):
    # well above floor(sqrt(n)) = 44 and 100: the +-1 band holds only on
    # the 10..500 grid
    row = optimal_N(NATURAL, n)
    assert row.N_opt == N_opt
    assert math.isclose(row.product_min, product, rel_tol=1e-12)


def test_width_at_1e4_on_a_finer_grid():
    # the pinned 144 is the value of the default 1024-point rectangle rule
    assert optimal_N(NATURAL, 10_000, t_points=4096).N_opt == 142


def test_determinism():
    rows = [optimal_N(NATURAL, 100) for _ in range(2)]
    assert rows[0] == rows[1]
    res = scan_n(NATURAL, [50, 50, 120])
    assert res.rows[0] == res.rows[1]


def test_minimality_certificate():
    for n in (60, 250, 500):
        row = optimal_N(NATURAL, n)
        best = tracking_error(NATURAL, n, row.N_opt)
        for neighbor in (row.N_opt - 1, row.N_opt + 1):
            if 1 <= neighbor < n:
                assert best <= tracking_error(NATURAL, n, neighbor) * (1 + 1e-12)


def test_scan_monotone_trend_and_band():
    res = scan_n(NATURAL)
    widths = [r.N_opt for r in res.rows]
    assert all(b >= a for a, b in zip(widths, widths[1:]))
    for r in res.rows:
        assert 1 <= r.N_opt < r.n
        root = math.isqrt(r.n)
        assert root - 1 <= r.N_opt <= root + 1
        assert r.product_min >= 0.5 * (1 - 1e-9)


def test_scan_fit_exponent():
    res = scan_n(NATURAL)
    assert res.fit is not None
    assert 0.0 < res.fit.m_exp < 1.0
    # frozen from the verified implementation: integer rounding at small n
    # steepens the two-decade log-log slope beyond the ideal 1/2 even
    # though every point stays within +-1 of floor(sqrt(n))
    assert math.isclose(res.fit.m_exp, 0.6492258362549327, rel_tol=1e-9)
    # independent least-squares on the produced rows
    lx = np.log([r.n for r in res.rows])
    ly = np.log([r.N_opt for r in res.rows])
    sx, sy = lx - lx.mean(), ly - ly.mean()
    slope = float(np.dot(sx, sy) / np.dot(sx, sx))
    assert math.isclose(res.fit.m_exp, slope, rel_tol=1e-10)
    assert res.fit.prefactor > 0
    assert res.fit.residual >= 0


def test_scan_fit_skipped_for_short_input():
    res = scan_n(NATURAL, [50, 120])
    assert res.fit is None
    assert len(res.rows) == 2


def test_default_grid_shape():
    grid = default_n_grid()
    assert grid[0] == 10 and grid[-1] == 500
    assert grid == sorted(set(grid))
    assert len(grid) == 12


def test_product_start_mode_has_no_interior_minimum():
    # the t=0 uncertainty product falls monotonically with width over the
    # whole search window, so it cannot select a width
    n = 50
    cap = default_window(n)
    products = [
        uncertainty_product(NATURAL, PacketSpec(n=n, N=N), 0.0) for N in range(1, cap + 1)
    ]
    assert all(b < a for a, b in zip(products, products[1:]))
    row = optimal_N(NATURAL, n)
    assert row.product_min == products[row.N_opt - 1]


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        optimal_N(NATURAL, 3)
    with pytest.raises(ValueError):
        optimal_N(NATURAL, 100, N_min=5, N_max=4)
    with pytest.raises(ValueError):
        scan_n(NATURAL, [100, 50])
    with pytest.raises(ValueError):
        tracking_error(NATURAL, 100, 5, t_points=0)
    with pytest.raises(ValueError):
        optimal_N(NATURAL, 100, t_points=0)
