"""Tests for the constrained classical limit and the frequency detuning report."""

import math

import numpy as np
import pytest

from fejerwell import (
    ClassicalOrbit,
    PacketSpec,
    WellConfig,
    detuning_report,
    fejer_position,
    limit_sequence,
    spectral_data,
)
from fejerwell import limits
from fejerwell.classical import _matched_orbit
from fejerwell.quantum import exp_p, exp_x

P_C = 500.0 * math.pi


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


def test_detuning_leading_branches():
    cfg = WellConfig()
    report = detuning_report(cfg, PacketSpec(n=500, N=23), 1)
    assert report.ratios == (1 + 45 / 1000, 1 + 43 / 1000)
    assert math.isclose(report.classical, 500 * math.pi**2, rel_tol=1e-15)
    assert math.isclose(report.quantum[0] / report.classical, 1.045, rel_tol=1e-15)


def test_detuning_vanishes_at_large_n():
    cfg = WellConfig()
    r_small = detuning_report(cfg, PacketSpec(n=500, N=23), 1)
    r_large = detuning_report(cfg, PacketSpec(n=50000, N=23), 1)
    assert abs(r_large.ratios[0] - 1) < abs(r_small.ratios[0] - 1)
    assert math.isclose(r_large.ratios[0], 1 + 45 / 100000, rel_tol=1e-12)


def test_detuning_phase_drift_over_two_periods():
    # the leading branch of the first harmonic accumulates
    # (45/1000) * omega_n * t of extra phase by t = 0.0025
    cfg = WellConfig()
    report = detuning_report(cfg, PacketSpec(n=500, N=23), 1)
    drift = (report.quantum[0] - report.classical) * 0.0025
    assert math.isclose(drift, 0.045 * 500 * math.pi**2 * 0.0025, rel_tol=1e-12)
    assert drift / math.pi < 0.2


def test_detuning_edge_harmonic():
    cfg = WellConfig()
    report = detuning_report(cfg, PacketSpec(n=50, N=7), 14)
    assert report.ratios[0] == 1.0  # s = 2N - r = 0 at the edge
    with pytest.raises(ValueError):
        detuning_report(cfg, PacketSpec(n=50, N=7), 15)
    with pytest.raises(ValueError):
        detuning_report(cfg, PacketSpec(n=50, N=7), 0)


def test_rows_use_the_matched_orbit(monkeypatch):
    # each row's classical series run on the orbit matched to its packet,
    # with the cycle rate 2n / T_rev of that row's hbar
    made = []
    monkeypatch.setattr(limits, "_matched_orbit", lambda cfg, n: made.append((cfg.hbar, n)) or _matched_orbit(cfg, n))
    rows = limit_sequence(1.0, 1.0, P_C, [100, 200], N_rule=3)
    assert made == [(r.hbar_eff, r.n) for r in rows]
