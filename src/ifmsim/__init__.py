"""Interaction-free detection of resonant noise.

Simulations of three detectors for amplitude and phase noise on a resonant
drive: an absorptive qubit, and coherent / projective interaction-free
schemes on a qutrit, together with the noise generators, Monte Carlo sweep
engine, and counting-statistics tooling needed to characterize them.
"""

__version__ = "0.1.0"

#: The protocol kernels are numpy loops; benchmark records carry this name.
kernel_backend = "numpy"

from .core import (
    DimensionMismatchError,
    apply_unitary,
    apply_unitary_dm,
    basis_state,
    populations,
    pure_density,
)
from .noise import (
    ColorSpec,
    NoiseTrace,
    ProtocolTiming,
    PulseSchedule,
    TelegraphSpec,
    estimate_acf,
    estimate_psd,
    gen_colored,
    gen_telegraph,
    gen_telegraph_slots,
    gen_white,
    gen_white_top,
    gen_zero_sum,
    trace_to_schedule,
)
from .protocols import ProtocolResult, run_cifm, run_pifm, run_qubit
from .pulses import (
    BeamSplitterSpec,
    Pulse,
    beam_splitter,
    composed_pulse,
    lumped_pulse_amplitudes,
    n2_alternating_state,
    pifm_measure_channel,
    pifm_pi_train_p0,
    qubit_b_pulse,
    qutrit_b_pulse,
)

__all__ = [
    "BeamSplitterSpec",
    "ColorSpec",
    "DimensionMismatchError",
    "NoiseTrace",
    "ProtocolResult",
    "ProtocolTiming",
    "Pulse",
    "PulseSchedule",
    "TelegraphSpec",
    "apply_unitary",
    "apply_unitary_dm",
    "basis_state",
    "beam_splitter",
    "composed_pulse",
    "estimate_acf",
    "estimate_psd",
    "gen_colored",
    "gen_telegraph",
    "gen_telegraph_slots",
    "gen_white",
    "gen_white_top",
    "gen_zero_sum",
    "kernel_backend",
    "lumped_pulse_amplitudes",
    "n2_alternating_state",
    "pifm_measure_channel",
    "pifm_pi_train_p0",
    "populations",
    "pure_density",
    "qubit_b_pulse",
    "qutrit_b_pulse",
    "run_cifm",
    "run_pifm",
    "run_qubit",
    "trace_to_schedule",
]
