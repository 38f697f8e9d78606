"""Tests for the constrained classical limit and the split of the position's
deviation from the averaged series, e = A + D, into the amplitude part
A = <x> - quasi and the detuning part D = quasi - F<x>, whose whole-period
values `limits._detuning` sums in closed form, and the bounds on the
amplitude parts <f> - quasi f of <x>, <p> and <x^2>.
"""

import math

import mpmath
import numpy as np
import pytest

from fejerwell import (
    ClassicalOrbit,
    PacketSpec,
    WellConfig,
    fejer_position,
    limit_sequence,
    quasi_exp,
    spectral_data,
)
from fejerwell import limits
from fejerwell.classical import _matched_orbit
from fejerwell.quantum import exp_p, exp_x, exp_x2

P_C = 500.0 * math.pi
EPS = np.finfo(float).eps


def _amplitude_bound(n, N):
    # the triangle bound on A at a = 1: N(N+1) odd-d pairs, each off its
    # classical amplitude by 4/(pi^2 (2N+1) (2n+s)^2) <= 4/(pi^2 (2N+1) (2n-2N+1)^2)
    return 4 / math.pi**2 * N * (N + 1) / ((2 * N + 1) * (2 * n - 2 * N + 1) ** 2)


def _momentum_bound(n, N):
    # B_p at a = hbar = 1: <p> - quasi p sums -d/(2n+s) sin over the pairs,
    # sum_{d odd} d (2N+1-d) = N(N+1)(2N+1)/3 and 2n + s >= 2n - 2N + 1
    return 2 * N * (N + 1) / (3 * (2 * n - 2 * N + 1))


def _position_sq_bound(n, N):
    # B_x2 at a = 1: the diagonal 1/u^2 term, then N(2N+1) pairs each off
    # by 4/(pi^2 (2N+1) (2n+s)^2)
    return 1 / (2 * math.pi**2 * (n - N) ** 2) + 4 / math.pi**2 * N / (2 * n - 2 * N + 1) ** 2


_BOUND_PACKETS = [(500, 8), (500, 23), (4000, 16), (32_000, 32), (32_000, 178), (100_000, 316)]


def _mp_detuning(n, N, k, dps):
    # the sum of `limits._detuning` at a = 1, with phases dk pi/n taken
    # directly at dps digits
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for d in range(1, 2 * N + 1, 2):
            K, phi = 2 * N + 1 - d, d * k * mpmath.pi / n
            total += (mpmath.sin(K * phi) / mpmath.sin(phi) - K) / d**2
        return float(-4 / mpmath.pi**2 / (2 * N + 1) * total)


def test_fixed_width_sequence_converges():
    rows = limit_sequence(1.0, 1.0, P_C, [100, 200, 400, 800], N_rule=5)
    errs = [r.sup_err_x for r in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0] / 4
    assert all(r.sup_err_p >= 0 and r.sup_err_x2 >= 0 for r in rows)


def test_action_matching_is_exact():
    rows = limit_sequence(1.0, 1.0, P_C, [100, 400], N_rule=5)
    for r in rows:
        # hbar_eff * n * pi / a recovers p_c exactly by construction
        assert r.hbar_eff * r.n * math.pi == pytest.approx(P_C, rel=1e-15)
        cfg = WellConfig(hbar=r.hbar_eff)
        sd = spectral_data(cfg, r.n)
        orbit = ClassicalOrbit(a=1.0, p_c=P_C, mu=1.0)
        assert math.isclose(sd.omega_n, orbit.omega, rel_tol=1e-15)
        assert math.isclose(sd.p_n, P_C, rel_tol=1e-15)


def test_sqrt_rule_sequence_converges():
    rows = limit_sequence(1.0, 1.0, P_C, [100, 1000, 10000], N_rule="sqrt")
    assert [r.N for r in rows] == [10, 31, 100]
    errs = [r.sup_err_x for r in rows]
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_near_limit_deviation_is_small():
    rows = limit_sequence(1.0, 1.0, P_C, [100000], N_rule=5)
    assert rows[0].sup_err_x < 1e-3


def test_degenerate_single_state_packet():
    # N = 0: both descriptions sit at the well center for all time
    hbar_eff = P_C / (100 * math.pi)
    cfg = WellConfig(hbar=hbar_eff)
    spec = PacketSpec(n=100, N=0)
    orbit = ClassicalOrbit(a=1.0, p_c=P_C, mu=1.0)
    ts = np.linspace(0.0, orbit.period, 64)
    assert np.all(exp_x(cfg, spec, ts) == 0.5)
    assert np.all(fejer_position(orbit, 0, ts) == 0.5)
    assert np.all(exp_p(cfg, spec, ts) == 0.0)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        limit_sequence(1.0, 1.0, P_C, [200, 100], N_rule=5)
    with pytest.raises(ValueError):
        limit_sequence(1.0, 1.0, P_C, [4, 8], N_rule=9)
    with pytest.raises(ValueError):
        limit_sequence(1.0, 1.0, P_C, [100, 200], N_rule="cube")
    # the rule is checked once, before any row: also with no rows at all
    with pytest.raises(ValueError):
        limit_sequence(1.0, 1.0, P_C, [], N_rule="cube")
    with pytest.raises(TypeError):  # not truncated to N = 2
        limit_sequence(1.0, 1.0, P_C, [100], N_rule=2.5)


def test_numpy_integer_levels():
    (row,) = limit_sequence(1.0, 1.0, P_C, [np.int64(100)], N_rule=np.int64(5))
    assert type(row.n) is int and type(row.N) is int
    assert row == limit_sequence(1.0, 1.0, P_C, [100], N_rule=5)[0]


def test_rows_use_the_matched_orbit(monkeypatch):
    # each row's classical series run on the orbit matched to its packet,
    # with the cycle rate 2n / T_rev of that row's hbar
    made = []
    monkeypatch.setattr(limits, "_matched_orbit", lambda cfg, n: made.append((cfg.hbar, n)) or _matched_orbit(cfg, n))
    rows = limit_sequence(1.0, 1.0, P_C, [100, 200], N_rule=3)
    assert made == [(r.hbar_eff, r.n) for r in rows]


@pytest.mark.parametrize("n,N", [(500, 8), (500, 23), (4000, 16), (32_000, 178), (1_000_000, 1000)])
def test_detuning_sum_at_whole_periods(n, N):
    # at t = kT on the matched orbit the sum is quasi - F<x> (measured 1.6
    # eps of a), its 60-digit evaluation (0.4 eps), and the rest of
    # e = <x> - F<x> is the amplitude part, within its bound; k = n puts
    # every phase at r = n, where R_K is its limit -K, and k = 2n - 1 takes
    # the phases' reduction modulo 2n
    cfg, spec = WellConfig(), PacketSpec(n=n, N=N)
    orbit = _matched_orbit(cfg, n)
    ks = [1, 2, 3, 4, n]
    ts = np.array([k * orbit.period for k in ks])
    fejer = fejer_position(orbit, N, ts)
    quasi, x = quasi_exp(cfg, spec, ts, "position"), exp_x(cfg, spec, ts)
    for k, q, e, f in zip(ks, quasi, x, fejer):
        D = limits._detuning(1.0, n, N, k)
        assert abs(D - (q - f)) <= 4 * EPS, k
        assert abs(e - f - D) <= _amplitude_bound(n, N) + 4 * EPS, k
    for k in [1, 2, 3, 4, 2 * n - 1]:
        assert abs(limits._detuning(1.0, n, N, k) - _mp_detuning(n, N, k, 60)) <= 4 * EPS, k
    assert limits._detuning(1.0, n, N, 0) == 0.0


@pytest.mark.parametrize("n,N", _BOUND_PACKETS)
def test_quasi_position_within_amplitude_bound(n, N):
    # quasi_exp's docstring: |<x> - quasi| <= (4a/pi^2) N(N+1)/((2N+1)(2n-2N+1)^2)
    # at all times; over one period the sup reads 0.91-0.998 of it
    cfg, spec = WellConfig(), PacketSpec(n=n, N=N)
    ts = np.linspace(0.0, _matched_orbit(cfg, n).period, 4097)
    sup = np.max(np.abs(exp_x(cfg, spec, ts) - quasi_exp(cfg, spec, ts, "position")))
    assert sup <= _amplitude_bound(n, N)


@pytest.mark.parametrize("n,N", _BOUND_PACKETS)
@pytest.mark.parametrize("kind", ["momentum", "position_sq"])
def test_quasi_series_within_their_bounds(kind, n, N):
    # quasi_exp's docstring: the quasi momentum is mu d/dt of the quasi
    # position, and |<p> - quasi p| <= B_p and |<x^2> - quasi x^2| <= B_x2
    # at all times; over one period the sups read 0.77-0.81 of B_p and
    # 0.69-0.998 of B_x2
    moment, bound = {"momentum": (exp_p, _momentum_bound), "position_sq": (exp_x2, _position_sq_bound)}[kind]
    cfg, spec = WellConfig(), PacketSpec(n=n, N=N)
    ts = np.linspace(0.0, _matched_orbit(cfg, n).period, 4097)
    sup = np.max(np.abs(moment(cfg, spec, ts) - quasi_exp(cfg, spec, ts, kind)))
    assert sup <= bound(n, N)


def test_detuning_leading_order():
    # R_K - K ~ -K(K^2 - 1) phi^2/6 gives
    # D2 = (2a k^2/(3n^2)) N(N+1)(2N(N+1) - 1)/(2N+1); with x = (N+1/2)^2 k pi/n
    # the rest measured <= 0.019 D2 x^2 at every case with x <= 1/2
    cases = 0
    for n, N in [(500, 8), (4000, 16), (32_000, 32), (100_000, 46)]:
        for k in range(1, 5):
            x = (N + 0.5) ** 2 * k * math.pi / n
            if x > 0.5:
                continue
            cases += 1
            D2 = 2 * k**2 / (3 * n**2) * N * (N + 1) * (2 * N * (N + 1) - 1) / (2 * N + 1)
            assert abs(limits._detuning(1.0, n, N, k) - D2) <= D2 * x**2 / 20, (n, N, k)
    assert cases == 11


def test_detuning_under_sqrt_rule_at_1e9():
    # N = floor(sqrt(n)): sqrt(n) D(kT)/a saturates and grows by about 0.96
    # per period; the k = 1 value is the 40-digit sum's to 0.19 eps
    n = 10**9
    N = math.isqrt(n)
    scaled = [round(math.sqrt(n) * limits._detuning(1.0, n, N, k), 4) for k in range(1, 5)]
    assert scaled == [0.5593, 1.5226, 2.4671, 3.4465]
    assert abs(limits._detuning(1.0, n, N, 1) - _mp_detuning(n, N, 1, 40)) <= 4 * EPS
