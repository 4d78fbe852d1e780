"""The three detectors and their one entry point, batch_populations.

A detector run is a batch of realizations given as segment arrays: dtheta
and chi of shape (realizations, segments) hold each drive segment's angle
and axis, and offsets marks the slot boundaries (slot j spans columns
offsets[j]:offsets[j+1]).  chi=None puts every segment on the amplitude
axis, chi = -pi/2.  batch_populations checks the initial state, the shape
of chi and the offsets, then runs the protocol's kernel, which returns the
final level populations of every realization, all from one initial
state: one initial state per call.  A non-finite angle or axis is caught
from the populations, which it turns to NaN, and named by its realization
and segment.  The marker population signalling a detection is p_e for the
qubit and p0 for either qutrit protocol.

* qubit: the absorptive detector.  The segments drive its only transition
  in time order; on one axis its marker is (1 - cos(sum of angles)) / 2.
* cifm: the coherent interaction-free detector.  n_slots + 1 beam
  splitters of strength pi / (n_slots + 1) on levels 0-1, interleaved with
  the slots' drive on levels 1-2, and no mid-sequence measurement.
* pifm: the projective variant.  After every slot a measurement tells |2>
  from the 0-1 subspace; a click is shelved, and p2 is the total click
  probability.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import kernels

__all__ = ["PROTOCOLS", "DimensionMismatchError", "Protocol", "basis_state",
           "batch_populations"]


class DimensionMismatchError(ValueError):
    """Operator and state dimensions are incompatible."""


class Protocol(NamedTuple):
    """Shape of one detector: its level count and the marker population index."""

    levels: int
    marker: int


#: Every detector by name.  Each starts in |0> unless given another state.
PROTOCOLS = {"qubit": Protocol(2, 1), "cifm": Protocol(3, 0), "pifm": Protocol(3, 0)}


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> of a dim-level system."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    psi = np.zeros(dim, dtype=np.complex128)
    psi[index] = 1.0
    return psi


def _checked_state(protocol: str, levels: int, psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (levels,):
        raise DimensionMismatchError(
            f"{protocol} initial state must have shape ({levels},), got {psi.shape}")
    norm2 = float(np.sum(np.abs(psi) ** 2))  # np.vdot would load BLAS: +0.3 MB peak RSS
    if not abs(norm2 - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError(f"{protocol} initial state must have unit norm, got norm^2 {norm2:g}")
    return psi


def _nonfinite_segment(protocol: str, dtheta, chi) -> str:
    """Names the first (realization, segment) whose angle or axis is not finite."""
    dtheta = np.asarray(dtheta)
    bad = ~np.isfinite(dtheta)
    if chi is not None:
        bad |= ~np.isfinite(chi)
    i, p = np.argwhere(bad)[0]
    axis = "None" if chi is None else f"{np.asarray(chi)[i, p]:g}"
    return (f"{protocol} segments must be finite: realization {i}, segment {p} "
            f"has dtheta {dtheta[i, p]:g}, chi {axis}")


def batch_populations(protocol: str, dtheta, chi, offsets, psi0) -> np.ndarray:
    """(realizations, levels) final populations of a segment batch from psi0.

    dtheta is an array or a noise.TelegraphSlots batch, which the qutrit
    kernels read as it is where they can (kernels' block tables) and expand
    elsewhere.  chi has dtheta's shape, or is None.  None puts every segment
    on the amplitude axis, chi = -pi/2, where every rotation and beam
    splitter is real: from a real initial state the kernel then runs in
    float64 instead of complex128, and agrees with an explicit chi = -pi/2
    to 1e-13.
    psi0 is the one initial state of every realization; it must have the
    protocol's level count and unit norm within 1e-12 (a NaN fails).  The
    result may be a view in any memory order, and may be read-only: pifm
    from a state with an empty |2> can return one row broadcast over all.
    A qutrit's offsets must be whole numbers, hold at least one slot, start
    at 0, never decrease, and end at the segment count (the qubit has no
    slots and ignores them); the checks never read the segments.  The beam
    splitters of a qutrit turn by phi = pi / (n_slots + 1), so that the
    n_slots + 1 of a noise-free run compose to a full 0-1 inversion.  The kernel is
    looked up in `kernels` at call time.  Every update carries a NaN
    forward, so a non-finite angle or axis shows in the populations; only
    then are dtheta and chi searched, and the first bad (realization,
    segment) is named in a ValueError, with no numpy RuntimeWarning before it.
    """
    levels = PROTOCOLS[protocol].levels
    psi0 = _checked_state(protocol, levels, psi0)
    if chi is not None and np.shape(chi) != np.shape(dtheta):
        raise ValueError(f"chi must be None or have dtheta's shape {np.shape(dtheta)}, "
                         f"got {np.shape(chi)}")
    if protocol == "qubit":
        kernel, slot_args = kernels.qubit_populations, ()
    else:
        edges, segments = np.asarray(offsets), np.shape(dtheta)[1]
        if (len(edges) < 2 or edges[0] != 0 or edges[-1] != segments
                or np.any(edges[1:] < edges[:-1]) or np.any(edges != np.trunc(edges))):
            raise ValueError(f"offsets must be whole numbers, hold at least one slot, start "
                             f"at 0, never decrease, and end at the segment count {segments}; "
                             f"got {edges.tolist()}")
        n_slots = len(edges) - 1
        kernel = getattr(kernels, f"{protocol}_populations")
        slot_args = (edges, math.pi / (n_slots + 1))
    # a non-finite angle or axis turns to NaN inside the kernel; the check
    # below names it, so numpy's RuntimeWarning would only come first
    with np.errstate(invalid="ignore"):
        out = kernel(dtheta, chi, *slot_args, psi0)
    # the populations are >= 0, so their sum is finite exactly when each one
    # is; np.isfinite(out).all() would load more numpy code: +0.1 MB peak RSS.
    # A row broadcast over the batch is summed once, not once per row
    if not math.isfinite((out[:1] if out.strides[0] == 0 else out).sum()):
        raise ValueError(_nonfinite_segment(protocol, dtheta, chi))
    return out
