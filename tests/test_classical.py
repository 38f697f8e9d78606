"""Tests for the classical trajectory, its partial sums, and the weighted averages."""

import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fejerwell import (
    ClassicalOrbit,
    PacketSpec,
    WellConfig,
    classical_reduced_uncertainty,
    exp_x2,
    fejer_momentum,
    fejer_momentum_sq,
    fejer_position,
    fejer_position_sq,
    fourier_partial_momentum,
    fourier_partial_position,
    gibbs_overshoot,
    sawtooth_position,
    square_momentum,
)
from fejerwell import classical
from fejerwell.classical import _cycle, _matched_orbit
from fejerwell.core import _CHUNK, _PANELS

ORBIT = ClassicalOrbit()  # a = p_c = mu = 1, T = 2
T = ORBIT.period


def wilbraham_gibbs_constant():
    """Independent quadrature oracle: (2/pi) * integral_0^pi sin(u)/u du."""
    val, _ = quad(lambda u: math.sin(u) / u, 0.0, math.pi)
    return 2.0 / math.pi * val


# t = k T/2 is exact on ORBIT (T = 2), so these are the turning instants themselves
TURNS = [1, 2, 3, 1023, 2**20 + 1, 2**40 - 1, 2**40]


def test_sawtooth_values():
    assert sawtooth_position(ORBIT, 0.0) == 0.0
    assert math.isclose(sawtooth_position(ORBIT, T / 4), 0.5, rel_tol=1e-15)
    assert math.isclose(sawtooth_position(ORBIT, T / 2), 1.0, rel_tol=1e-15)
    assert math.isclose(sawtooth_position(ORBIT, 1.75 * T), 0.5, rel_tol=1e-12)
    for k in TURNS + [-k for k in TURNS]:
        assert sawtooth_position(ORBIT, k * T / 2) == (ORBIT.a if k % 2 else 0.0)


def test_sawtooth_range_and_continuity():
    ts = np.linspace(-2 * T, 3 * T, 5001)
    xs = sawtooth_position(ORBIT, ts)
    assert np.all(xs >= 0.0) and np.all(xs <= ORBIT.a)
    assert np.max(np.abs(np.diff(xs))) < 1.1 * ORBIT.a * (ts[1] - ts[0]) * 2 / T


def test_square_momentum_values():
    assert math.isclose(square_momentum(ORBIT, T / 4), ORBIT.p_c, rel_tol=1e-15)
    assert math.isclose(square_momentum(ORBIT, 3 * T / 4), -ORBIT.p_c, rel_tol=1e-15)
    # midpoint convention at the turning instants
    assert square_momentum(ORBIT, 0.0) == 0.0
    assert square_momentum(ORBIT, T / 2) == 0.0
    assert square_momentum(ORBIT, T) == 0.0
    for k in TURNS + [-k for k in TURNS]:
        assert square_momentum(ORBIT, k * T / 2) == 0.0
    turns = np.array(TURNS, dtype=float) * (T / 2)
    assert np.array_equal(square_momentum(ORBIT, turns), np.zeros(len(TURNS)))


def test_partial_position_dc_term():
    # m = 0, t = 0: a/2 - 4a/pi^2
    expected = 0.5 - 4 / math.pi**2
    assert math.isclose(fourier_partial_position(ORBIT, 0, 0.0), expected, rel_tol=1e-14)


@pytest.mark.parametrize("m", [0, 3, 25])
def test_partial_position_quarter_period(m):
    # all odd-harmonic cosines vanish at T/4
    assert abs(fourier_partial_position(ORBIT, m, T / 4) - 0.5) < 1e-13


def test_partial_position_converges_at_corner():
    # the corner error decays like a/(pi^2 m); oracle = exact tail sum
    for m, bound in [(200, 6e-4), (2000, 6e-5)]:
        val = fourier_partial_position(ORBIT, m, 0.0)
        r = np.arange(m + 1)
        tail = math.pi**2 / 8 - np.sum(1.0 / (2 * r + 1.0) ** 2)
        assert math.isclose(val, (4 / math.pi**2) * tail, rel_tol=1e-10, abs_tol=1e-14)
        assert abs(val) < bound


def test_partial_momentum_values():
    assert fourier_partial_momentum(ORBIT, 7, 0.0) == 0.0
    assert math.isclose(
        fourier_partial_momentum(ORBIT, 0, T / 4), 4 / math.pi, rel_tol=1e-14
    )
    # interior convergence of the square-wave series
    assert abs(fourier_partial_momentum(ORBIT, 200, T / 4) - 1.0) < 0.005


def test_gibbs_overshoot_against_quadrature():
    g = wilbraham_gibbs_constant()
    assert math.isclose(g, 1.17898, abs_tol=1e-5)
    assert abs(gibbs_overshoot(ORBIT, 200) - g) < 0.005
    # the peak sequence closes in on the constant as the order grows
    assert abs(gibbs_overshoot(ORBIT, 1000) - g) < abs(gibbs_overshoot(ORBIT, 200) - g)


@pytest.mark.parametrize("m", [20, 60, 200])
def test_truncated_momentum_overshoots(m):
    ts = np.arange(10000) * (T / 10000)
    assert np.max(np.abs(fourier_partial_momentum(ORBIT, m, ts))) > 1.15 * ORBIT.p_c


@pytest.mark.parametrize("N", [1, 5, 23, 200])
def test_fejer_momentum_never_overshoots(N):
    ts = np.arange(10000) * (T / 10000)
    assert np.max(np.abs(fejer_momentum(ORBIT, N, ts))) <= ORBIT.p_c * (1 + 1e-9)


@pytest.mark.parametrize("N", [1, 5, 23])
def test_fejer_position_stays_in_well(N):
    ts = np.arange(10000) * (T / 10000)
    xs = fejer_position(ORBIT, N, ts)
    assert np.min(xs) >= -1e-9 and np.max(xs) <= ORBIT.a + 1e-9


def test_fejer_position_order_one():
    expected = 0.5 - 8 / (3 * math.pi**2)
    assert math.isclose(fejer_position(ORBIT, 1, 0.0), expected, rel_tol=1e-14)


@pytest.mark.parametrize("N", [1, 4, 23])
def test_fejer_position_quarter_period(N):
    assert abs(fejer_position(ORBIT, N, T / 4) - 0.5) <= 2e-16


def test_series_reject_non_integer_orders():
    # an order is an index: 2.5 has no series, and 2.0 raises too, also
    # after order 2 is cached
    fejer_position(ORBIT, 2, 0.1)
    for order in (2.5, 2.0):
        with pytest.raises(TypeError):
            fejer_position(ORBIT, order, 0.1)
    assert fejer_position(ORBIT, np.int64(2), 0.1) == fejer_position(ORBIT, 2, 0.1)


def test_gibbs_overshoot_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gibbs_overshoot(ORBIT, 0)
    with pytest.raises(ValueError):
        gibbs_overshoot(ORBIT, 20, refine_points=0)
    assert gibbs_overshoot(ORBIT, 20, refine_points=1) > 0.0


def test_fejer_degenerate_order_zero():
    # N = 0 runs the general formula on an empty set of harmonics
    assert fejer_position(ORBIT, 0, 0.37) == 0.5
    assert fejer_momentum(ORBIT, 0, 0.37) == 0.0
    assert fejer_position_sq(ORBIT, 0, 0.37) == pytest.approx(1 / 3, rel=1e-15)
    ts = np.linspace(0.0, 1e6 * T, 7).reshape(7, 1)
    assert np.array_equal(fejer_position(ORBIT, 0, ts), np.full((7, 1), 0.5))
    assert np.array_equal(fejer_momentum(ORBIT, 0, ts), np.zeros((7, 1)))
    assert np.array_equal(fejer_position_sq(ORBIT, 0, ts), np.full((7, 1), 1 / 3))


def test_cesaro_identity():
    # the weighted average equals [a/2 + 2 * sum of partial sums] / (2N+1)
    for N in (1, 2, 5, 23):
        for t in (0.0, 0.1234, T / 3, 0.77 * T, 1.9 * T):
            partials = math.fsum(
                fourier_partial_position(ORBIT, l, t) for l in range(N)
            )
            cesaro = (ORBIT.a / 2 + 2 * partials) / (2 * N + 1)
            assert math.isclose(fejer_position(ORBIT, N, t), cesaro, rel_tol=0, abs_tol=5e-14)


def test_fejer_position_sq_order_one():
    # direct evaluation of the double sum at t=0: inner terms -1, -1, +1/4
    expected = 1 / 3 - 7 / (3 * math.pi**2)
    assert math.isclose(fejer_position_sq(ORBIT, 1, 0.0), expected, rel_tol=1e-14)


def test_fejer_position_sq_time_average():
    ts = np.arange(4096) * (T / 4096)
    mean = float(np.mean(fejer_position_sq(ORBIT, 23, ts)))
    assert math.isclose(mean, 1 / 3, rel_tol=1e-12)


def test_fejer_position_sq_large_order_limit():
    # converges to x(T/4)^2 = a^2/4 at a smooth point
    assert abs(fejer_position_sq(ORBIT, 200, T / 4) - 0.25) < 0.01 * 0.25


def test_fejer_momentum_values():
    assert fejer_momentum(ORBIT, 23, 0.0) == 0.0
    v = fejer_momentum(ORBIT, 23, T / 4)
    assert 0.9 * ORBIT.p_c <= v <= 1.0 * ORBIT.p_c


def test_fejer_momentum_is_derivative_of_position():
    for t in (0.1 * T, 0.37 * T, 0.6 * T):
        h1 = 1e-4 * T
        fd1 = (
            (fejer_position(ORBIT, 23, t + h1) - fejer_position(ORBIT, 23, t - h1))
            * ORBIT.mu
            / (2 * h1)
        )
        err1 = abs(fejer_momentum(ORBIT, 23, t) - fd1)
        h2 = 2e-4 * T
        fd2 = (
            (fejer_position(ORBIT, 23, t + h2) - fejer_position(ORBIT, 23, t - h2))
            * ORBIT.mu
            / (2 * h2)
        )
        err2 = abs(fejer_momentum(ORBIT, 23, t) - fd2)
        assert err1 < 1e-5 * ORBIT.p_c
        # second-order accuracy: quadrupling with doubled step
        if err1 > 1e-12:
            assert 2.5 < err2 / err1 < 5.5


def test_fejer_momentum_sq_constant():
    assert fejer_momentum_sq(ORBIT) == ORBIT.p_c**2
    pc = 500 * math.pi
    big = ClassicalOrbit(a=1.0, p_c=pc, mu=1.0)
    assert math.isclose(fejer_momentum_sq(big), 250000 * math.pi**2, rel_tol=1e-15)
    # time-average of the exact square wave squared (grid avoids the turns)
    ts = (np.arange(1000) + 0.5) * (T / 1000)
    assert np.all(square_momentum(ORBIT, ts) ** 2 == ORBIT.p_c**2)


def test_fejer_convergence_at_t_over_8():
    target = sawtooth_position(ORBIT, T / 8)
    errs = [abs(fejer_position(ORBIT, N, T / 8) - target) for N in (50, 100, 200)]
    assert errs[1] < errs[0] and errs[2] < errs[1]


@pytest.mark.parametrize(
    "fn",
    [
        lambda t: fourier_partial_position(ORBIT, 13, t),
        lambda t: fourier_partial_momentum(ORBIT, 13, t),
        lambda t: fejer_position(ORBIT, 11, t),
        lambda t: fejer_momentum(ORBIT, 11, t),
        lambda t: fejer_position_sq(ORBIT, 11, t),
    ],
)
def test_periodicity(fn):
    for t in (0.05 * T, 0.4 * T, 0.93 * T):
        assert math.isclose(fn(t + T), fn(t), rel_tol=0, abs_tol=1e-12)


@pytest.mark.parametrize("k", [0, 1, 10**3, 10**6, 10**9, 10**12])
def test_long_times_exact_to_rounding(k):
    # t is reduced by an exact frac(t/T), not modulo the float period, so
    # the error stays at rounding level however many periods have passed;
    # the reference takes the float t and the float orbit parameters as
    # exact. At and next to the turning instants f0 = 1/2 and 0 the sine
    # series carries the rounding of pi in each phase 2 pi h f, which grows
    # with the harmonic h < 2N, so there <p> is held to 2 N eps of p_c
    # (the worst measured is 271 eps, at N = 316 and f0 = 1/2 - 1e-4)
    orbit = ClassicalOrbit(a=1.0, p_c=500 * math.pi, mu=1.0)
    eps = np.finfo(float).eps
    for N in (23, 316):
        for f0 in (0.0, 1e-9, 0.3, 0.5 - 1e-4, 0.5):
            t = f0 * orbit.period + k * orbit.period
            x, x2, p, saw = _mp_series(orbit, N, t)
            p_bound = 16 if f0 == 0.3 else 2 * N
            assert abs(fejer_position(orbit, N, t) - x) <= 2 * eps * orbit.a, (N, f0)
            assert abs(fejer_position_sq(orbit, N, t) - x2) <= 2 * eps * orbit.a**2, (N, f0)
            assert abs(fejer_momentum(orbit, N, t) - p) <= p_bound * eps * orbit.p_c, (N, f0)
            assert abs(sawtooth_position(orbit, t) - saw) <= eps * orbit.a, (N, f0)


def _mp_series(orbit, N, t):
    """fejer_position, fejer_position_sq, fejer_momentum and the sawtooth in 60 digits (a = mu = 1)."""
    with mpmath.workdps(60):
        cycles = mpmath.mpf(t) * mpmath.mpf(orbit.p_c) / 2  # t / T
        f = cycles - mpmath.nint(cycles)
        theta = 2 * mpmath.pi * f
        scale = 1 / mpmath.mpf(2 * N + 1)
        x = orbit.a / 2 - 8 * orbit.a / mpmath.pi**2 * scale * mpmath.fsum(
            (N - r) * mpmath.cos((2 * r + 1) * theta) / (2 * r + 1) ** 2 for r in range(N)
        )
        x2 = orbit.a**2 / 3 + 4 * orbit.a**2 / mpmath.pi**2 * scale * mpmath.fsum(
            (2 * N - r + 1) * (-1) ** r * mpmath.cos(r * theta) / r**2 for r in range(1, 2 * N + 1)
        )
        p = 8 * mpmath.mpf(orbit.p_c) / mpmath.pi * scale * mpmath.fsum(
            (N - r) * mpmath.sin((2 * r + 1) * theta) / (2 * r + 1) for r in range(N)
        )
        return float(x), float(x2), float(p), float(2 * orbit.a * abs(f))


def test_reject_times_past_the_exact_range():
    # frac(t / T) is exact only while |t| / T < 2^52; at 1e305 every
    # function came back nan with overflow warnings
    calls = [
        sawtooth_position, square_momentum,
        lambda o, t: fourier_partial_position(o, 5, t),
        lambda o, t: fourier_partial_momentum(o, 5, t),
        lambda o, t: fejer_position(o, 5, t),
        lambda o, t: fejer_position_sq(o, 5, t),
        lambda o, t: fejer_momentum(o, 5, t),
        lambda o, t: classical_reduced_uncertainty(o, "position", 5, t),
    ]
    for t in (1e17 * T, -1e17 * T, 1e305, math.inf, -math.inf, math.nan, np.array([0.0, math.inf])):
        for fn in calls:
            with pytest.raises(ValueError, match="2\\^52"):
                fn(ORBIT, t)
    assert sawtooth_position(ORBIT, 2.0**51 * T) == 0.0


def _traced_peak(fn, *args):
    """Peak bytes that tracemalloc, which sees numpy's buffers, records during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "fn",
    [fejer_position, fejer_position_sq, fejer_momentum, fourier_partial_position, fourier_partial_momentum],
)
def test_series_memory_stays_bounded(fn):
    # 10^4 instants x 1000 harmonics would be 80 MB per float64 temporary;
    # blocks of at most 8192 elements keep every one at 64 KiB
    ts = np.random.default_rng(3).uniform(0.0, 50.0 * T, 10_000)
    fn(ORBIT, 1000, ts[:1])  # builds the cached harmonic table outside the trace
    assert _traced_peak(fn, ORBIT, 1000, ts) < 2e6


def test_moment_memory_stays_bounded():
    # (10^4, 100) takes the dense forms and (10^5, 316) the Dirichlet kernel
    ts = np.random.default_rng(4).uniform(0.0, 50.0, 10_000)
    for spec in (PacketSpec(n=10_000, N=100), PacketSpec(n=100_000, N=316)):
        exp_x2(WellConfig(), spec, ts[:1])  # builds the cached matrix or kernel outside the trace
        assert _traced_peak(exp_x2, WellConfig(), spec, ts) < 2e6, spec


def test_reduced_uncertainty_momentum_at_turn():
    assert classical_reduced_uncertainty(ORBIT, "momentum", 23, 0.0) == 1.0
    assert classical_reduced_uncertainty(ORBIT, "momentum", 23, T / 2) == 1.0


def test_reduced_uncertainty_position_interior():
    v = classical_reduced_uncertainty(ORBIT, "position", 23, T / 4)
    assert 0.0 < v < 1.0


def test_reduced_uncertainty_momentum_dips_between_turns():
    # F<p>(T/4) = 0.98674 p_c at N=23, so the dip reaches sqrt(1-0.98674^2)
    quarter = classical_reduced_uncertainty(ORBIT, "momentum", 23, T / 4)
    assert math.isclose(quarter, 0.16229166108513862, rel_tol=1e-10)
    assert quarter < classical_reduced_uncertainty(ORBIT, "momentum", 23, 0.0)


def test_reduced_uncertainty_rejects_bad_kind():
    with pytest.raises(ValueError):
        classical_reduced_uncertainty(ORBIT, "energy", 3, 0.1)


def test_orbit_validation():
    with pytest.raises(ValueError):
        ClassicalOrbit(p_c=0.0)
    with pytest.raises(ValueError):
        fourier_partial_position(ORBIT, -1, 0.0)
    with pytest.raises(ValueError):
        gibbs_overshoot(ORBIT, 0)


@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_matched_orbit_keeps_the_packet_phase_at_long_times(hbar):
    # t = (10^9 + 1/4) T_rev at n = 500: the matched orbit's frac(t / T)
    # equals 2n frac(t / T_rev) with 1/T_rev = pi hbar / 4 (a = mu = 1),
    # here in 60 digits; an orbit built from the rounded p_n was 1e-4
    # cycles off
    cfg, n = WellConfig(hbar=hbar), 500
    t = (10**9 + 0.25) * (4.0 / (math.pi * hbar))
    with mpmath.workdps(60):
        cycles = 2 * n * mpmath.mpf(t) * mpmath.pi * mpmath.mpf(hbar) / 4
        ref = float(cycles - mpmath.nint(cycles))
    orbit = _matched_orbit(cfg, n)
    assert orbit.p_c == n * math.pi * hbar
    assert abs(_cycle(orbit, t) - ref) <= np.finfo(float).eps


# --- the kept f of the last array (`core._LastInstants`) ----------------------------

_SERIES = (fejer_position, fejer_position_sq, fejer_momentum)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _fresh(fn, *args):
    classical._instants.entry = None
    return fn(*args)


def _count_fractions(monkeypatch):
    calls = []
    fraction = classical._fraction
    monkeypatch.setattr(classical, "_fraction", lambda *args: calls.append(1) or fraction(*args))
    return calls


@pytest.mark.parametrize("n,N", [(500, 23), (10_000, 100), (100_000, 316), (122, 60)])
def test_reused_cycle_gives_the_fresh_series(monkeypatch, n, N):
    # the three series of one orbit on one array reduce it once, and each
    # equals the series that reduces it itself, bit for bit
    orbit = _matched_orbit(WellConfig(), n)
    t = np.random.default_rng(n).uniform(0.0, 3.0 * orbit.period, 300)
    fresh = [_fresh(fn, orbit, N, t) for fn in _SERIES]
    fractions = _count_fractions(monkeypatch)
    classical._instants.entry = None
    assert all(_same_bits(fn(orbit, N, t), ref) for fn, ref in zip(_SERIES, fresh))
    assert _same_bits(sawtooth_position(orbit, t), _fresh(sawtooth_position, orbit, t))
    assert len(fractions) == 2


def test_cycle_of_changed_instants_and_other_orbits_is_formed_again(monkeypatch):
    # an array changed in place, or the same array on an orbit of another
    # period, is reduced again; an equal copy is not
    t = np.random.default_rng(5).uniform(0.0, 3.0 * T, 50)
    other = ClassicalOrbit(p_c=1.25)
    fejer_position(ORBIT, 23, t)
    t[9] += 0.25
    assert _same_bits(fejer_momentum(ORBIT, 23, t), _fresh(fejer_momentum, ORBIT, 23, t.copy()))
    assert _same_bits(fejer_momentum(other, 23, t), _fresh(fejer_momentum, other, 23, t))
    fractions = _count_fractions(monkeypatch)
    fejer_position(other, 23, t.copy())
    assert not fractions


def test_scalar_cycles_and_arrays_past_the_budget_keep_nothing():
    # a scalar or 0-d t takes the scalar path, and an array of more than
    # _PANELS * _CHUNK instants is not kept
    t = np.random.default_rng(6).uniform(0.0, 3.0 * T, 50)
    fejer_position(ORBIT, 23, t)
    entry = classical._instants.entry
    for s in (0.3, np.float64(0.3), np.array(0.3), 3):
        for fn in (*_SERIES, lambda o, N, t: sawtooth_position(o, t), lambda o, N, t: square_momentum(o, t)):
            fn(ORBIT, 23, s)
    assert classical._instants.entry is entry
    wide = np.linspace(0.0, 3.0 * T, _PANELS * _CHUNK + 1)
    assert _same_bits(fejer_position(ORBIT, 23, wide), _fresh(fejer_position, ORBIT, 23, wide))
    assert classical._instants.entry is None


def test_cycle_of_an_object_array_is_formed_every_time():
    # an object array's bytes are its elements' addresses, which a new
    # float may take over after the second assignment: never looked up
    objects = np.random.default_rng(7).uniform(0.0, 3.0 * T, 50).astype(object)
    for fn in _SERIES:
        fn(ORBIT, 23, objects)
        objects[0] = objects[1] * 0.5
        objects[0] = objects[1] * 0.25
        assert _same_bits(fn(ORBIT, 23, objects), _fresh(fn, ORBIT, 23, objects.astype(float)))
    entry = classical._instants.entry
    fejer_position(ORBIT, 23, objects)
    assert classical._instants.entry is entry


def test_threads_alternating_arrays_get_their_own_series():
    arrays = [[np.random.default_rng(seed).uniform(0.0, 3.0 * T, 40) for seed in pair] for pair in ((1, 2), (3, 4))]
    ref = {id(t): [_fresh(fn, ORBIT, 23, t) for fn in _SERIES] for ts in arrays for t in ts}
    errors = []

    def work(ts):
        for k in range(200):
            t = ts[k % 2]
            if not all(_same_bits(fn(ORBIT, 23, t), r) for fn, r in zip(_SERIES, ref[id(t)])):
                errors.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(ts,)) for ts in arrays]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors
