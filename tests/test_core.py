"""Tests for the well configuration, spectrum, and packet wavefunction."""

import math
import warnings

import numpy as np
import pytest

from fejerwell import (
    ClassicalOrbit,
    PacketSpec,
    WellConfig,
    classical_period,
    energy,
    exp_x,
    exp_x2,
    expectation_sample,
    fejer_position,
    packet_wavefunction,
    quasi_exp,
    sawtooth_position,
    spectral_data,
    square_momentum,
    stationary_wavefunction,
)
from fejerwell.quantum import oracle_expectation

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


def test_packet_wavefunction_takes_one_instant():
    # an array t used to broadcast against the 2N + 1 level energies and
    # return a wavefunction that belongs to no instant
    t = np.linspace(0.0, 0.06, 7)
    with pytest.raises(ValueError, match="one instant"):
        packet_wavefunction(NATURAL, PacketSpec(n=10, N=3), 0.3, t)


@pytest.mark.parametrize("x", [math.nan, np.array([0.5, math.nan])])
def test_positions_reject_nan(x):
    # nan compares false with both walls, so it passed the range check and
    # came back as a nan amplitude
    with pytest.raises(ValueError, match="outside the well"):
        stationary_wavefunction(NATURAL, 1, x)
    with pytest.raises(ValueError, match="outside the well"):
        packet_wavefunction(NATURAL, PacketSpec(n=10, N=3), x, 0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, np.float64(math.inf)])
def test_one_instant_must_be_finite(t):
    # an infinite t read nan after numpy's "invalid value" RuntimeWarning,
    # the grid oracle read nan at nan, and the spectral oracle failed with
    # "math domain error"
    spec = PacketSpec(n=10, N=3)
    calls = [
        lambda: packet_wavefunction(NATURAL, spec, 0.3, t),
        lambda: oracle_expectation(NATURAL, spec, t, "position"),
        lambda: oracle_expectation(NATURAL, spec, t, "momentum", method="spectral"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="need finite t"):
                call()


@pytest.mark.parametrize("t", [10**400, -(10**400)])
def test_int_instant_past_the_float_range_is_refused(t):
    # a Python int too large for a float raised OverflowError from float()
    # or np.asarray, where the float inf gets the documented ValueError
    spec = PacketSpec(n=10, N=3)
    orbit = ClassicalOrbit()
    calls = [
        lambda: exp_x(NATURAL, spec, t),
        lambda: expectation_sample(NATURAL, spec, t),
        lambda: fejer_position(orbit, 3, t),
        lambda: sawtooth_position(orbit, t),
        lambda: packet_wavefunction(NATURAL, spec, 0.3, t),
        lambda: oracle_expectation(NATURAL, spec, t, "position"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="need finite t"):
            call()


_NOT_REAL = {  # each was evaluated at its real part, parsed value or count of seconds
    "complex": (np.complex128(0.1 + 1j), np.array([0.1 + 1j, 0.2])),
    "string": ("0.1", np.array(["0.1", "0.2"])),
    "datetime": (np.datetime64(1, "s"), np.array([1, 2], dtype="datetime64[s]")),
    "timedelta": (np.timedelta64(1, "s"), np.array([1, 2], dtype="timedelta64[s]")),
}
_ORBIT = ClassicalOrbit()
_SPEC = PacketSpec(n=10, N=3)
_INSTANT_CALLS = {
    "moments": lambda t: exp_x(NATURAL, _SPEC, t),
    "quasi": lambda t: quasi_exp(NATURAL, _SPEC, t, "position"),
    "series": lambda t: fejer_position(_ORBIT, 3, t),
    "sawtooth": lambda t: sawtooth_position(_ORBIT, t),
    "square wave": lambda t: square_momentum(_ORBIT, t),
    "oracle": lambda t: oracle_expectation(NATURAL, _SPEC, t, "position"),
}


@pytest.mark.parametrize("call", list(_INSTANT_CALLS))
@pytest.mark.parametrize("kind", list(_NOT_REAL))
@pytest.mark.parametrize("shape", ["scalar", "array"])
def test_instants_that_are_not_real_numbers_raise(call, kind, shape):
    # such a t came back as the value at 0.1 or 1, at most with a
    # ComplexWarning; the oracle takes one instant, so an array raises
    # ValueError there first
    t = _NOT_REAL[kind][shape == "array"]
    error = ValueError if shape == "array" and call == "oracle" else TypeError
    with pytest.raises(error):
        _INSTANT_CALLS[call](t)


@pytest.mark.parametrize("call", list(_INSTANT_CALLS))
def test_real_kinds_of_instants_still_pass(call):
    # bool, integer and float32 instants and object arrays of reals take
    # the value of their float
    fn = _INSTANT_CALLS[call]
    for t, same in ((True, 1.0), (np.int64(2), 2.0), (np.float32(0.5), float(np.float32(0.5)))):
        assert fn(t) == fn(same), t
    if call != "oracle":
        t = np.array([0.1, 0.25])
        assert np.array_equal(fn(t.astype(object)), fn(t))


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
