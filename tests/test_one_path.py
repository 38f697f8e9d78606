"""Scalar and array time arguments share one evaluation path.

A scalar t is reduced in Python floats, takes the array code on its one
row and comes back as np.float64 (a float subclass); an array t keeps its
shape. For the classical series the scalar value is bit-identical to the
matching element of an array call, however many blocks the array is
evaluated in.
"""

import importlib
import math

import numpy as np
import pytest

from fejerwell import (
    ClassicalOrbit,
    PacketSpec,
    WellConfig,
    classical_reduced_uncertainty,
    exp_p,
    exp_x,
    exp_x2,
    fejer_momentum,
    fejer_position,
    fejer_position_sq,
    fourier_partial_momentum,
    fourier_partial_position,
    packet_moments,
    quasi_exp,
    reduced_uncertainty,
    sawtooth_position,
    square_momentum,
    uncertainty_product,
)

NATURAL = WellConfig()
ORBIT = ClassicalOrbit(a=1.0, p_c=500 * math.pi, mu=1.0)
T = ORBIT.period

_SERIES_FUNCTIONS = {
    "fejer_position": fejer_position,
    "fejer_position_sq": fejer_position_sq,
    "fejer_momentum": fejer_momentum,
    "fourier_partial_position": fourier_partial_position,
    "fourier_partial_momentum": fourier_partial_momentum,
}
SERIES = {name: (lambda N, t, f=f: f(ORBIT, N, t)) for name, f in _SERIES_FUNCTIONS.items()}


def _functions_of_t(n, N):
    """Every public function of t, at the packet (n, N) and its matched orbit."""
    spec, orbit = PacketSpec(n=n, N=N), ClassicalOrbit(a=1.0, p_c=n * math.pi, mu=1.0)
    return {
        **{name: (lambda t, f=f: f(orbit, N, t)) for name, f in _SERIES_FUNCTIONS.items()},
        "sawtooth_position": lambda t: sawtooth_position(orbit, t),
        "square_momentum": lambda t: square_momentum(orbit, t),
        "classical_reduced_uncertainty": lambda t: classical_reduced_uncertainty(orbit, "position", N, t),
        "exp_x": lambda t: exp_x(NATURAL, spec, t),
        "exp_x2": lambda t: exp_x2(NATURAL, spec, t),
        "exp_p": lambda t: exp_p(NATURAL, spec, t),
        "quasi_exp": lambda t: quasi_exp(NATURAL, spec, t, "momentum"),
        "quasi_exp_position": lambda t: quasi_exp(NATURAL, spec, t, "position"),
        "quasi_exp_position_sq": lambda t: quasi_exp(NATURAL, spec, t, "position_sq"),
        "reduced_uncertainty": lambda t: reduced_uncertainty(NATURAL, spec, t, "momentum"),
        "reduced_uncertainty_position": lambda t: reduced_uncertainty(NATURAL, spec, t, "position"),
        "uncertainty_product": lambda t: uncertainty_product(NATURAL, spec, t),
        # one fused pass: each of its values, and a subset asked for in another order
        **{
            f"packet_moments_{kind}": (lambda t, i=i: packet_moments(NATURAL, spec, t)[i])
            for i, kind in enumerate(("position", "position_sq", "momentum"))
        },
        "packet_moments_momentum_first": lambda t: packet_moments(NATURAL, spec, t, ("momentum", "position"))[0],
    }


OF_T = _functions_of_t(500, 23)


def _instants(count=200, seed=5):
    rng = np.random.default_rng(seed)
    window = rng.uniform(0.0, 2.0 * T, count)
    long_ = np.floor(10.0 ** rng.uniform(3.0, 6.0, count)) * T + window / 2
    return np.concatenate([window, long_, np.arange(9) * (T / 2)])


@pytest.mark.parametrize("name", sorted(SERIES))
@pytest.mark.parametrize("N", [0, 1, 23, 200])
def test_series_scalar_equals_array_element_bitwise(name, N):
    ts = _instants()
    fn = SERIES[name]
    arr = fn(N, ts)
    grid = fn(N, ts[:200].reshape(10, 20))
    for i, t in enumerate(ts.tolist()):
        assert fn(N, t) == arr[i], (t, fn(N, t), arr[i])
    assert np.array_equal(grid.reshape(-1), arr[:200])


@pytest.mark.parametrize("name", sorted(SERIES))
def test_series_blocks_are_bitwise_invisible(name):
    # 10^4 + 7 instants at N = 200: 251 to 501 blocks, the last one ragged,
    # and the two halves cut the blocks at other instants
    ts = _instants(count=4999, seed=7)
    fn = SERIES[name]
    arr = fn(200, ts)
    half = ts.size // 2
    assert np.array_equal(arr, np.concatenate([fn(200, ts[:half]), fn(200, ts[half:])]))
    assert np.array_equal(fn(200, ts[:10_000].reshape(100, 100)).reshape(-1), arr[:10_000])
    for i in np.random.default_rng(8).choice(ts.size, 60, replace=False).tolist():
        assert fn(200, float(ts[i])) == arr[i], (ts[i], arr[i])


@pytest.mark.parametrize("name", sorted(OF_T))
def test_scalar_returns_float_and_arrays_keep_shape(name):
    fn = OF_T[name]
    value = fn(0.3 * T)
    assert isinstance(value, float)
    assert isinstance(fn(np.float64(0.3 * T)), float)
    assert isinstance(fn(np.asarray(0.3 * T)), float)
    ts = np.linspace(0.0, 2.0 * T, 12)
    assert np.shape(fn(ts)) == (12,)
    grid = fn(ts.reshape(3, 4))
    assert np.shape(grid) == (3, 4)
    assert np.array_equal(grid.reshape(-1), fn(ts))
    assert math.isclose(value, fn(np.array([0.3 * T]))[0], rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
@pytest.mark.parametrize("n,N", [(500, 23), (100_000, 316)])
def test_empty_instants_give_empty_arrays(n, N, shape):
    # an array of no instants gives an array of its shape, on the dense
    # forms (500, 23) and the kernel (10^5, 316) alike
    t = np.zeros(shape)
    for name, fn in _functions_of_t(n, N).items():
        value = fn(t)
        assert isinstance(value, np.ndarray) and value.shape == shape, name


MODULES = ("core", "quantum", "classical", "optimizer", "limits", "cli")


@pytest.mark.parametrize("module", ["fejerwell", *(f"fejerwell.{m}" for m in MODULES)])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        getattr(mod, name)



PACKAGE_MODULES = ("core", "classical", "quantum", "optimizer", "limits")


def test_package_reexports_each_module_once():
    # every public name is declared in its module's __all__ alone, and the
    # package list is their concatenation
    package = importlib.import_module("fejerwell")
    modules = [importlib.import_module(f"fejerwell.{m}") for m in PACKAGE_MODULES]
    assert package.__all__ == [name for mod in modules for name in mod.__all__]
    for mod in modules:
        for name in mod.__all__:
            assert getattr(package, name) is getattr(mod, name), name
