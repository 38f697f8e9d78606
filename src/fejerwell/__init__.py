"""Equal-weight wave packets in the infinite square well, their closed-form
expectation values, and the weighted (Fejer-style) Fourier averages of the
matching classical bounce trajectory.
"""

from .classical import (
    ClassicalOrbit,
    classical_reduced_uncertainty,
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
from .core import (
    PacketSpec,
    SpectralData,
    WellConfig,
    classical_period,
    energy,
    packet_wavefunction,
    spectral_data,
    stationary_wavefunction,
)
from .limits import DetuningReport, LimitRow, detuning_report, limit_sequence
from .optimizer import (
    ScanFit,
    ScanResult,
    ScanRow,
    default_n_grid,
    optimal_N,
    scan_n,
)
from .quantum import (
    ExpectationSample,
    VarianceError,
    exp_p,
    exp_p2,
    exp_x,
    exp_x2,
    expectation_sample,
    oracle_expectation,
    packet_moments,
    quasi_exp,
    reduced_uncertainty,
    uncertainty_product,
)

__version__ = "0.1.0"

__all__ = [
    "WellConfig",
    "PacketSpec",
    "SpectralData",
    "energy",
    "classical_period",
    "spectral_data",
    "stationary_wavefunction",
    "packet_wavefunction",
    "ClassicalOrbit",
    "sawtooth_position",
    "square_momentum",
    "fourier_partial_position",
    "fourier_partial_momentum",
    "gibbs_overshoot",
    "fejer_position",
    "fejer_position_sq",
    "fejer_momentum",
    "fejer_momentum_sq",
    "classical_reduced_uncertainty",
    "ExpectationSample",
    "VarianceError",
    "exp_x",
    "exp_x2",
    "exp_p",
    "exp_p2",
    "oracle_expectation",
    "packet_moments",
    "quasi_exp",
    "reduced_uncertainty",
    "uncertainty_product",
    "expectation_sample",
    "ScanRow",
    "ScanFit",
    "ScanResult",
    "optimal_N",
    "scan_n",
    "default_n_grid",
    "LimitRow",
    "DetuningReport",
    "limit_sequence",
    "detuning_report",
]
