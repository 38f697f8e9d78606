"""Tests for the well configuration, spectrum, and packet wavefunction."""

import math

import numpy as np
import pytest

from fejerwell import (
    PacketSpec,
    WellConfig,
    classical_period,
    energy,
    exp_x2,
    packet_wavefunction,
    spectral_data,
    stationary_wavefunction,
)

NATURAL = WellConfig()


def test_energy_ground_state():
    assert math.isclose(energy(NATURAL, 1), math.pi**2 / 2, rel_tol=1e-15)


def test_energy_level_500_matches_momentum():
    # E = p^2/(2 mu) with p = 500 pi in natural units
    assert math.isclose(energy(NATURAL, 500), (500 * math.pi) ** 2 / 2, rel_tol=1e-15)


def test_energy_general_units_against_quadrature():
    # independent oracle: kinetic energy integral with a finite-difference
    # second derivative of the eigenfunction
    cfg = WellConfig(a=2.0, mu=3.0, hbar=1.0)
    m = 4
    x = np.linspace(0.0, cfg.a, 8193)
    h = x[1] - x[0]
    psi = stationary_wavefunction(cfg, m, x)
    d2 = np.zeros_like(psi)
    d2[2:-2] = (
        -psi[:-4] + 16 * psi[1:-3] - 30 * psi[2:-2] + 16 * psi[3:-1] - psi[4:]
    ) / (12 * h**2)
    e_num = np.trapezoid(-(cfg.hbar**2) / (2 * cfg.mu) * psi * d2, x)
    assert math.isclose(energy(cfg, m), e_num, rel_tol=1e-7)


@pytest.mark.parametrize("bad", [0, -3])
def test_energy_rejects_bad_level(bad):
    with pytest.raises(ValueError):
        energy(NATURAL, bad)


def test_classical_period_headline_value():
    T = classical_period(NATURAL, 500)
    assert math.isclose(T, 1.27324e-3, rel_tol=5e-6)
    assert math.isclose(T, 2 / (500 * math.pi), rel_tol=1e-12)


def test_classical_period_formula():
    assert math.isclose(classical_period(NATURAL, 100), 2 / (100 * math.pi), rel_tol=1e-15)
    cfg = WellConfig(a=2.0, mu=1.0, hbar=1.0)
    assert math.isclose(classical_period(cfg, 10), 8 / (10 * math.pi), rel_tol=1e-15)
    with pytest.raises(ValueError):
        classical_period(NATURAL, 0)


def test_spectral_data_consistency():
    sd = spectral_data(NATURAL, 500)
    assert math.isclose(sd.p_n, 500 * math.pi, rel_tol=1e-15)
    assert math.isclose(sd.e_n, sd.p_n**2 / 2, rel_tol=1e-15)
    # matched packet: omega_n coincides with the orbit frequency 2 pi / T
    assert math.isclose(sd.period * sd.omega_n, 2 * math.pi, rel_tol=1e-15)
    assert math.isclose(sd.omega_n, 500 * math.pi**2, rel_tol=1e-15)
    assert energy(NATURAL, 500) == sd.e_n
    assert classical_period(NATURAL, 500) == sd.period


def test_stationary_wavefunction_values():
    assert math.isclose(stationary_wavefunction(NATURAL, 1, 0.5), math.sqrt(2), rel_tol=1e-15)
    assert stationary_wavefunction(NATURAL, 7, 0.0) == 0.0
    assert math.isclose(
        stationary_wavefunction(NATURAL, 3, 1 / 6), math.sqrt(2), rel_tol=1e-12
    )


def test_stationary_wavefunction_rejects_outside_well():
    with pytest.raises(ValueError):
        stationary_wavefunction(NATURAL, 1, 1.5)
    with pytest.raises(ValueError):
        stationary_wavefunction(NATURAL, 1, -0.1)


def test_orthonormality_by_quadrature():
    cfg = NATURAL
    x = np.linspace(0.0, cfg.a, 4096)
    for j, k in [(1, 1), (2, 5), (9, 9), (10, 17), (20, 20)]:
        pj = stationary_wavefunction(cfg, j, x)
        pk = stationary_wavefunction(cfg, k, x)
        overlap = np.trapezoid(pj * pk, x)
        assert abs(overlap - (1.0 if j == k else 0.0)) < 1e-10


def test_packet_spec_validation():
    with pytest.raises(ValueError):
        PacketSpec(n=5, N=5)
    with pytest.raises(ValueError):
        PacketSpec(n=0, N=0)
    with pytest.raises(ValueError):
        PacketSpec(n=5, N=-1)
    assert PacketSpec(n=5, N=2).size == 5


def test_packet_spec_stores_python_ints():
    # numpy integers are converted, so every moment of such a packet runs;
    # a float level raises at construction instead of deep in a kernel
    spec = PacketSpec(np.int64(500), np.int64(23))
    assert type(spec.n) is int and type(spec.N) is int
    assert spec == PacketSpec(500, 23)
    assert exp_x2(NATURAL, spec, 0.3) == exp_x2(NATURAL, PacketSpec(500, 23), 0.3)
    for n, N in [(500.5, 23), (500, 23.0)]:
        with pytest.raises(TypeError):
            PacketSpec(n, N)


def test_stationary_wavefunction_rejects_bad_level():
    with pytest.raises(ValueError):
        stationary_wavefunction(NATURAL, 0, 0.5)


def test_packet_vanishes_at_walls():
    spec = PacketSpec(n=12, N=3)
    assert packet_wavefunction(NATURAL, spec, 0.0, 0.37) == 0
    assert abs(packet_wavefunction(NATURAL, spec, NATURAL.a, 1.3)) < 1e-13


def test_single_state_packet_has_stationary_density():
    spec = PacketSpec(n=5, N=0)
    x = 0.31
    base = abs(packet_wavefunction(NATURAL, spec, x, 0.0))
    for t in (0.1, 2.7, 31.0):
        assert math.isclose(abs(packet_wavefunction(NATURAL, spec, x, t)), base, rel_tol=1e-12)
    assert math.isclose(base, abs(stationary_wavefunction(NATURAL, 5, x)), rel_tol=1e-12)


def test_packet_normalization_by_quadrature():
    spec = PacketSpec(n=50, N=7)
    x = np.linspace(0.0, 1.0, 4096)
    for t in (0.0, 0.004, 0.013):
        psi = packet_wavefunction(NATURAL, spec, x, t)
        norm = np.trapezoid(np.abs(psi) ** 2, x)
        assert abs(norm - 1.0) < 1e-10


def test_packet_real_at_time_zero():
    spec = PacketSpec(n=50, N=7)
    x = np.linspace(0.0, 1.0, 257)
    psi = packet_wavefunction(NATURAL, spec, x, 0.0)
    assert np.all(psi.imag == 0.0)


def test_well_config_validation():
    with pytest.raises(ValueError):
        WellConfig(a=-1.0)
    with pytest.raises(ValueError):
        WellConfig(mu=0.0)
    with pytest.raises(ValueError):
        WellConfig(hbar=-2.0)
