"""Single-realization detector protocols.

Each runner consumes a PulseSchedule (the per-interval noise segments) and
returns the final level populations.  The marker population signalling a
detection is p_e for the qubit and p0 for either qutrit protocol.

All three are pure functions of (schedule, initial state); ensembles of
realizations can therefore run in parallel without shared state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .core import DimensionMismatchError, basis_state
from .noise import PulseSchedule
from .pulses import BeamSplitterSpec

__all__ = ["PROTOCOLS", "Protocol", "ProtocolResult", "batch_populations",
           "run_cifm", "run_pifm", "run_qubit"]


class Protocol(NamedTuple):
    """Shape of one detector: its level count and the marker population index."""

    levels: int
    marker: int


#: Every detector by name.  Each starts in |0> unless given another state.
PROTOCOLS = {"qubit": Protocol(2, 1), "cifm": Protocol(3, 0), "pifm": Protocol(3, 0)}


def batch_populations(protocol: str, dtheta, chi, offsets, psi0) -> np.ndarray:
    """(realizations, levels) final populations of a segment batch from psi0.

    psi0 must have the protocol's level count and unit norm within 1e-12.
    A qutrit's offsets must start at 0, never decrease, and end at the
    segment count (the qubit has no slots and ignores them); the checks
    never read the segments.  The kernel is looked up in `kernels` at call
    time.
    """
    levels = PROTOCOLS[protocol].levels
    psi0 = np.asarray(psi0, dtype=np.complex128)
    if psi0.shape != (levels,):
        raise DimensionMismatchError(
            f"{protocol} initial state must have shape ({levels},), got {psi0.shape}")
    norm2 = float(np.sum(np.abs(psi0) ** 2))  # np.vdot would load BLAS: +0.3 MB peak RSS
    if abs(norm2 - 1.0) > 1e-12:
        raise ValueError(f"{protocol} initial state must have unit norm, got norm^2 {norm2:g}")
    if protocol == "qubit":
        return kernels.qubit_populations(dtheta, chi, psi0)
    edges, segments = np.asarray(offsets), np.shape(dtheta)[1]
    if edges[0] != 0 or edges[-1] != segments or np.any(edges[1:] < edges[:-1]):
        raise ValueError(f"offsets must start at 0, never decrease, and end at the "
                         f"segment count {segments}; got {edges.tolist()}")
    phi = BeamSplitterSpec(len(edges) - 1).phi
    return getattr(kernels, f"{protocol}_populations")(dtheta, chi, edges, phi, psi0)


@dataclass(frozen=True)
class ProtocolResult:
    """Final populations of one protocol run.

    populations has length 2 (qubit: p_g, p_e) or 3 (qutrit: p0, p1, p2);
    marker is the detection-signal entry.
    """

    protocol: str
    populations: np.ndarray
    marker: float

    def __post_init__(self) -> None:
        pops = np.asarray(self.populations, dtype=np.float64)
        total = float(pops.sum())
        if pops.min() < -1e-10 or pops.max() > 1.0 + 1e-10 or abs(total - 1.0) > 1e-10:
            raise ValueError(f"invalid populations {pops} (sum {total})")
        object.__setattr__(self, "populations", pops)


def _populations(protocol: str, schedule: PulseSchedule, psi0) -> np.ndarray:
    """Final populations of one realization from the pure state psi0 (default |0>)."""
    if psi0 is None:
        psi0 = basis_state(PROTOCOLS[protocol].levels, 0)
    dtheta, chi, offsets = schedule.segment_arrays()
    return batch_populations(protocol, dtheta[np.newaxis, :], chi[np.newaxis, :], offsets,
                             psi0)[0]


def _result(protocol: str, pops: np.ndarray) -> ProtocolResult:
    return ProtocolResult(protocol, pops, float(pops[PROTOCOLS[protocol].marker]))


def run_qubit(schedule: PulseSchedule, initial: np.ndarray | None = None) -> ProtocolResult:
    """Absorptive qubit detector: drive pulses only, no beam splitters.

    The composed pulses of every interval are applied to the state in time
    order; for a common axis the marker reduces to
    p_e = (1 - cos(sum of theta_j)) / 2 from the ground state.
    """
    return _result("qubit", _populations("qubit", schedule, initial))


def run_cifm(schedule: PulseSchedule, initial: np.ndarray | None = None) -> ProtocolResult:
    """Coherent interaction-free detector.

    Applies n_slots + 1 beam splitters of strength pi / (n_slots + 1)
    interleaved with the composed drive pulse of each interval, with no
    mid-sequence measurement.  With no noise the qutrit ends in |1>;
    noise pins it to |0>, so the marker is p0.
    """
    return _result("cifm", _populations("cifm", schedule, initial))


def run_pifm(schedule: PulseSchedule, initial: np.ndarray | None = None) -> ProtocolResult:
    """Projective interaction-free detector.

    Same beam-splitter train as the coherent protocol, but after every drive
    interval a projective measurement distinguishes |2> from the 0-1
    subspace: coherences to |2> are erased, and any population found on |2>
    is recorded as a detector click and shelved (a clicked detector stays
    clicked, so that branch is not driven further).  p2 of the result is
    the total click probability and the marker is p0.

    initial is a 3x3 density matrix.  The evolution is linear in it, so a
    mixed state runs as its eigenvectors, weighted by their eigenvalues.
    """
    if initial is None:
        return _result("pifm", _populations("pifm", schedule, None))
    rho0 = np.asarray(initial, np.complex128)
    if rho0.shape != (3, 3):
        raise DimensionMismatchError(f"initial density matrix must be 3x3, got {rho0.shape}")
    weights, vectors = np.linalg.eigh(rho0)
    return _result("pifm", sum(w * _populations("pifm", schedule, psi)
                               for w, psi in zip(weights, vectors.T)))
