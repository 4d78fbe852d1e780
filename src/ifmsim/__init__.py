"""Interaction-free detection of resonant noise.

Simulations of three detectors for amplitude and phase noise on a resonant
drive: an absorptive qubit, and coherent / projective interaction-free
schemes on a qutrit, together with the noise generators, Monte Carlo sweep
engine, and counting-statistics tooling needed to characterize them.
"""

__version__ = "0.1.0"

#: The protocol kernels are numpy loops; benchmark records carry this name.
kernel_backend = "numpy"

from .noise import (
    ColorSpec,
    estimate_acf,
    estimate_psd,
    gen_colored,
    gen_telegraph_slots,
    gen_white,
    gen_white_top,
    gen_zero_sum,
)
from .protocols import DimensionMismatchError, basis_state, batch_populations

__all__ = [
    "ColorSpec",
    "DimensionMismatchError",
    "basis_state",
    "batch_populations",
    "estimate_acf",
    "estimate_psd",
    "gen_colored",
    "gen_telegraph_slots",
    "gen_white",
    "gen_white_top",
    "gen_zero_sum",
    "kernel_backend",
]
