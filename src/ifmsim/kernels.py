"""Batched inner loops for the three detector protocols.

Every kernel takes realization-major arrays: dtheta and chi have shape
(realizations, segments), offsets is the int64 slot-boundary array of
length n_slots + 1 (slot j spans columns offsets[j]:offsets[j+1]), and the
result is a (realizations, levels) array of final populations.

Two interchangeable implementations exist: numba-compiled loops (default
when numba imports) and a pure-numpy path vectorized over realizations.
Set IFMSIM_NO_NUMBA=1 to force the numpy path.  Both are literal
time-ordered segment products in double precision; they agree to ~1e-14.

Segments on one axis compose exactly to a single rotation by their summed
angle, so the ensemble dispatch (experiments._populations_parallel) first
passes each batch through merge_coaxial, which collapses every run of
equal-axis segments within a slot, and then hands the merged arrays to
either backend.  Merged results agree with the literal segment product to
about 1e-14.  benchmarks/bench_kernels.py times the literal kernels against
merge_coaxial plus kernel.
"""

from __future__ import annotations

import os

import numpy as np


def _numba_disabled() -> bool:
    return os.environ.get("IFMSIM_NO_NUMBA", "").strip().lower() in {"1", "true", "yes", "on"}


if not _numba_disabled():
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False

BACKEND = "numba" if HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# pure-numpy implementations (vectorized over the realization axis)
# ---------------------------------------------------------------------------

def _apply_segments_np(psi: np.ndarray, dtheta: np.ndarray, chi: np.ndarray,
                       lo: int, hi: int, row0: int, row1: int) -> None:
    # rotation on the (row0, row1) block about (cos chi, -sin chi), in place
    for p in range(lo, hi):
        half = 0.5 * dtheta[:, p]
        c = np.cos(half)
        s = np.sin(half)
        e = np.exp(1j * chi[:, p])
        a = psi[:, row0].copy()
        b = psi[:, row1]
        psi[:, row0] = c * a - 1j * e * s * b
        psi[:, row1] = -1j * np.conj(e) * s * a + c * b


def _beam_split_np(psi: np.ndarray, c: float, s: float) -> None:
    a = psi[:, 0].copy()
    b = psi[:, 1]
    psi[:, 0] = c * a - s * b
    psi[:, 1] = s * a + c * b


def _qubit_populations_np(dtheta, chi, psi0):
    r = dtheta.shape[0]
    psi = np.tile(np.asarray(psi0, dtype=np.complex128), (r, 1))
    _apply_segments_np(psi, dtheta, chi, 0, dtheta.shape[1], 0, 1)
    return np.abs(psi) ** 2


def _cifm_populations_np(dtheta, chi, offsets, phi, psi0):
    r = dtheta.shape[0]
    c = np.cos(phi / 2.0)
    s = np.sin(phi / 2.0)
    psi = np.tile(np.asarray(psi0, dtype=np.complex128), (r, 1))
    _beam_split_np(psi, c, s)
    for j in range(len(offsets) - 1):
        _apply_segments_np(psi, dtheta, chi, offsets[j], offsets[j + 1], 1, 2)
        _beam_split_np(psi, c, s)
    return np.abs(psi) ** 2


def _segment_unitaries_np(dth, ch):
    # (r,) angles -> (r, 3, 3) pulse unitaries on the 1-2 block
    r = dth.shape[0]
    c = np.cos(0.5 * dth)
    s = np.sin(0.5 * dth)
    e = np.exp(1j * ch)
    u = np.zeros((r, 3, 3), dtype=np.complex128)
    u[:, 0, 0] = 1.0
    u[:, 1, 1] = c
    u[:, 2, 2] = c
    u[:, 1, 2] = -1j * e * s
    u[:, 2, 1] = -1j * np.conj(e) * s
    return u


def _pifm_populations_np(dtheta, chi, offsets, phi, rho0):
    r = dtheta.shape[0]
    c = np.cos(phi / 2.0)
    s = np.sin(phi / 2.0)
    bs = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rho = np.tile(np.asarray(rho0, dtype=np.complex128), (r, 1, 1))
    absorbed = np.zeros(r)
    rho = bs @ rho @ bs.T
    for j in range(len(offsets) - 1):
        for p in range(offsets[j], offsets[j + 1]):
            u = _segment_unitaries_np(dtheta[:, p], chi[:, p])
            rho = u @ rho @ np.conj(np.swapaxes(u, 1, 2))
        # measurement: erase 0-2/1-2 coherences, then shelve the detected
        # population so the click branch stops evolving
        rho[:, 0, 2] = 0.0
        rho[:, 1, 2] = 0.0
        rho[:, 2, 0] = 0.0
        rho[:, 2, 1] = 0.0
        absorbed += np.real(rho[:, 2, 2])
        rho[:, 2, 2] = 0.0
        rho = bs @ rho @ bs.T
    out = np.empty((r, 3))
    out[:, 0] = np.real(rho[:, 0, 0])
    out[:, 1] = np.real(rho[:, 1, 1])
    out[:, 2] = absorbed + np.real(rho[:, 2, 2])
    return out


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True, nogil=True)
    def _qubit_populations_jit(dtheta, chi, psi0, out):
        r, n_seg = dtheta.shape
        for i in range(r):
            a = psi0[0]
            b = psi0[1]
            for p in range(n_seg):
                half = 0.5 * dtheta[i, p]
                c = np.cos(half)
                s = np.sin(half)
                er = np.cos(chi[i, p])
                ei = np.sin(chi[i, p])
                f = (ei - 1j * er) * s      # -i e^{+i chi} sin
                g = (-ei - 1j * er) * s     # -i e^{-i chi} sin
                ta = c * a + f * b
                b = g * a + c * b
                a = ta
            out[i, 0] = a.real * a.real + a.imag * a.imag
            out[i, 1] = b.real * b.real + b.imag * b.imag

    @njit(cache=True, nogil=True)
    def _cifm_populations_jit(dtheta, chi, offsets, phi, psi0, out):
        r = dtheta.shape[0]
        n = offsets.shape[0] - 1
        cb = np.cos(phi / 2.0)
        sb = np.sin(phi / 2.0)
        for i in range(r):
            a0 = psi0[0]
            a1 = psi0[1]
            a2 = psi0[2]
            t = cb * a0 - sb * a1
            a1 = sb * a0 + cb * a1
            a0 = t
            for j in range(n):
                for p in range(offsets[j], offsets[j + 1]):
                    half = 0.5 * dtheta[i, p]
                    c = np.cos(half)
                    s = np.sin(half)
                    er = np.cos(chi[i, p])
                    ei = np.sin(chi[i, p])
                    f = (ei - 1j * er) * s
                    g = (-ei - 1j * er) * s
                    t1 = c * a1 + f * a2
                    a2 = g * a1 + c * a2
                    a1 = t1
                t = cb * a0 - sb * a1
                a1 = sb * a0 + cb * a1
                a0 = t
            out[i, 0] = a0.real * a0.real + a0.imag * a0.imag
            out[i, 1] = a1.real * a1.real + a1.imag * a1.imag
            out[i, 2] = a2.real * a2.real + a2.imag * a2.imag

    @njit(cache=True, nogil=True)
    def _pifm_populations_jit(dtheta, chi, offsets, phi, rho0, out):
        r = dtheta.shape[0]
        n = offsets.shape[0] - 1
        cb = np.cos(phi / 2.0)
        sb = np.sin(phi / 2.0)
        rho = np.empty((3, 3), dtype=np.complex128)
        tmp = np.empty((3, 3), dtype=np.complex128)
        for i in range(r):
            for a in range(3):
                for b in range(3):
                    rho[a, b] = rho0[a, b]
            absorbed = 0.0
            # beam splitter: real rotation on rows/cols 0-1
            for b in range(3):
                t = cb * rho[0, b] - sb * rho[1, b]
                rho[1, b] = sb * rho[0, b] + cb * rho[1, b]
                rho[0, b] = t
            for a in range(3):
                t = cb * rho[a, 0] - sb * rho[a, 1]
                rho[a, 1] = sb * rho[a, 0] + cb * rho[a, 1]
                rho[a, 0] = t
            for j in range(n):
                for p in range(offsets[j], offsets[j + 1]):
                    half = 0.5 * dtheta[i, p]
                    c = np.cos(half)
                    s = np.sin(half)
                    er = np.cos(chi[i, p])
                    ei = np.sin(chi[i, p])
                    f = (ei - 1j * er) * s
                    g = (-ei - 1j * er) * s
                    # tmp = U rho (U mixes rows 1 and 2)
                    for b in range(3):
                        tmp[0, b] = rho[0, b]
                        tmp[1, b] = c * rho[1, b] + f * rho[2, b]
                        tmp[2, b] = g * rho[1, b] + c * rho[2, b]
                    # rho = tmp U^dagger (mixes columns 1 and 2)
                    fc = np.conj(f)
                    gc = np.conj(g)
                    for a in range(3):
                        rho[a, 0] = tmp[a, 0]
                        rho[a, 1] = c * tmp[a, 1] + fc * tmp[a, 2]
                        rho[a, 2] = gc * tmp[a, 1] + c * tmp[a, 2]
                rho[0, 2] = 0.0
                rho[1, 2] = 0.0
                rho[2, 0] = 0.0
                rho[2, 1] = 0.0
                absorbed += rho[2, 2].real
                rho[2, 2] = 0.0
                for b in range(3):
                    t = cb * rho[0, b] - sb * rho[1, b]
                    rho[1, b] = sb * rho[0, b] + cb * rho[1, b]
                    rho[0, b] = t
                for a in range(3):
                    t = cb * rho[a, 0] - sb * rho[a, 1]
                    rho[a, 1] = sb * rho[a, 0] + cb * rho[a, 1]
                    rho[a, 0] = t
            out[i, 0] = rho[0, 0].real
            out[i, 1] = rho[1, 1].real
            out[i, 2] = absorbed + rho[2, 2].real


# ---------------------------------------------------------------------------
# segment assembly
# ---------------------------------------------------------------------------

#: Elements per row block when testing for axis changes, so the comparison
#: never allocates a full (realizations, segments) boolean temporary.
_MERGE_BLOCK_ELEMENTS = 1 << 18


def merge_coaxial(dtheta, chi, offsets):
    """Collapse runs of equal-axis segments within each slot.

    A run breaks at every slot offset and at every column p where any row
    has chi[:, p] != chi[:, p - 1], so the merged layout is shared by all
    rows and does not depend on how the rows are later chunked.  Each run
    becomes one segment whose angle is the run's summed dtheta and whose
    axis is the run's chi.  Empty slots stay empty.  offsets=None treats
    the whole chain as one slot and is returned as None.  When nothing
    merges, the inputs are returned unchanged.
    """
    r, n_seg = dtheta.shape
    if n_seg < 2:
        return dtheta, chi, offsets
    breaks = np.zeros(n_seg, dtype=bool)
    breaks[0] = True
    if offsets is not None:
        edges = np.asarray(offsets, dtype=np.int64)
        breaks[edges[edges < n_seg]] = True
    rows = max(1, _MERGE_BLOCK_ELEMENTS // n_seg)
    for lo in range(0, r, rows):
        block = chi[lo:lo + rows]
        breaks[1:] |= (block[:, 1:] != block[:, :-1]).any(axis=0)
    starts = np.flatnonzero(breaks)
    if starts.size == n_seg:
        return dtheta, chi, offsets
    merged_offsets = None if offsets is None else np.searchsorted(starts, edges)
    return np.add.reduceat(dtheta, starts, axis=1), chi[:, starts], merged_offsets


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _as_c(arr, dtype):
    return np.ascontiguousarray(arr, dtype=dtype)


def qubit_populations(dtheta, chi, psi0) -> np.ndarray:
    """Final (p_g, p_e) for each realization after the flat segment chain."""
    dtheta = _as_c(dtheta, np.float64)
    chi = _as_c(chi, np.float64)
    psi0 = _as_c(psi0, np.complex128)
    if HAVE_NUMBA:
        out = np.empty((dtheta.shape[0], 2))
        _qubit_populations_jit(dtheta, chi, psi0, out)
        return out
    return _qubit_populations_np(dtheta, chi, psi0)


def cifm_populations(dtheta, chi, offsets, phi, psi0) -> np.ndarray:
    """Final (p0, p1, p2) per realization for the coherent protocol."""
    dtheta = _as_c(dtheta, np.float64)
    chi = _as_c(chi, np.float64)
    offsets = _as_c(offsets, np.int64)
    psi0 = _as_c(psi0, np.complex128)
    if HAVE_NUMBA:
        out = np.empty((dtheta.shape[0], 3))
        _cifm_populations_jit(dtheta, chi, offsets, float(phi), psi0, out)
        return out
    return _cifm_populations_np(dtheta, chi, offsets, float(phi), psi0)


def pifm_populations(dtheta, chi, offsets, phi, rho0) -> np.ndarray:
    """Final (p0, p1, p2) per realization for the projective protocol.

    p2 accumulates the population detected on |2> at the mid-sequence
    measurements; once detected, that branch is shelved and no longer
    driven, so the three outputs always sum to the initial trace.
    """
    dtheta = _as_c(dtheta, np.float64)
    chi = _as_c(chi, np.float64)
    offsets = _as_c(offsets, np.int64)
    rho0 = _as_c(rho0, np.complex128)
    if HAVE_NUMBA:
        out = np.empty((dtheta.shape[0], 3))
        _pifm_populations_jit(dtheta, chi, offsets, float(phi), rho0, out)
        return out
    return _pifm_populations_np(dtheta, chi, offsets, float(phi), rho0)
