"""One batched state-vector loop for the three detector protocols.

Every kernel takes realization-major arrays: dtheta and chi have shape
(realizations, segments), offsets is the int64 slot-boundary array of
length n_slots + 1 (slot j spans columns offsets[j]:offsets[j+1]), and the
result is a (realizations, levels) array of final populations.  chi=None
puts every segment on the amplitude axis, chi = -pi/2.

All three detectors run the same loop, _evolve, vectorized over the
realizations with numpy.  A qutrit (cifm, pifm) gets a beam splitter on
levels 0-1 before the first slot and after every slot, and each slot's
drive segments act on levels 1-2.  The projective detector (pifm) also
measures |2> after every slot.  Its no-click branch stays a pure,
sub-normalized state vector, so the loop adds |a2|^2 to a click total and
zeroes a2; the final p2 is the click total plus |a2|^2.  The qubit is the
same loop on a 2-level state: the whole chain drives levels 0-1 and there
is no beam splitter.  The loop is a literal time-ordered segment product
in double precision and never renormalizes.  The segments run exactly as
the noise scenarios emit them; where the noise holds one axis across a slot
(BinarySampledNoise), the scenario already emits that slot as one segment.

A segment of angle theta turns the driven pair (a, b) into
(c a + u b, v a + c b), with c = cos(theta/2), s = sin(theta/2),
u = -i e^{i chi} s and v = -i e^{-i chi} s.  On the amplitude axis these
are u = -s and v = s, and the beam splitters are real too, so with chi=None
and a real initial state the loop runs in float64; otherwise it runs in
complex128.  The dtype and the coefficient rule are fixed before the loop;
the loop body is the same on both paths.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# the state-vector loop
# ---------------------------------------------------------------------------

def _beam_split(psi, c, s) -> None:
    a = psi[:, 0].copy()
    b = psi[:, 1]
    psi[:, 0] = c * a - s * b
    psi[:, 1] = s * a + c * b


def _evolve(dtheta, chi, offsets, phi, psi0, project) -> np.ndarray:
    """Final populations of every realization; offsets=None is one slot."""
    dtheta = np.ascontiguousarray(dtheta, dtype=np.float64)
    psi0 = np.asarray(psi0)
    if chi is None:  # the amplitude axis: both coefficients are real
        real = not np.any(np.imag(psi0))

        def coefficients(p, s):
            return -s, s
    else:
        real = False
        chi = np.ascontiguousarray(chi, dtype=np.float64)

        def coefficients(p, s):
            e = np.exp(1j * chi[:, p])
            return -1j * e * s, -1j * np.conj(e) * s
    psi0 = np.real(psi0).astype(np.float64) if real else psi0.astype(np.complex128)
    r, n_seg = dtheta.shape
    edges = (0, n_seg) if offsets is None else np.asarray(offsets, dtype=np.int64)
    qutrit = psi0.size == 3
    x, y = (1, 2) if qutrit else (0, 1)  # the driven level pair
    cb = np.cos(float(phi) / 2.0)
    sb = np.sin(float(phi) / 2.0)
    psi = np.tile(psi0, (r, 1))
    clicks = np.zeros(r)
    if qutrit:
        _beam_split(psi, cb, sb)
    for j in range(len(edges) - 1):
        for p in range(edges[j], edges[j + 1]):
            # rotation by dtheta about the axis (cos chi, -sin chi)
            half = 0.5 * dtheta[:, p]
            c = np.cos(half)
            s = np.sin(half)
            u, v = coefficients(p, s)
            a = psi[:, x].copy()
            b = psi[:, y]
            psi[:, x] = c * a + u * b
            psi[:, y] = v * a + c * b
        if project:
            clicks += np.abs(psi[:, 2]) ** 2
            psi[:, 2] = 0.0
        if qutrit:
            _beam_split(psi, cb, sb)
    out = np.abs(psi) ** 2
    if project:
        out[:, 2] += clicks
    return out


# ---------------------------------------------------------------------------
# protocol entry points
# ---------------------------------------------------------------------------

def qubit_populations(dtheta, chi, psi0) -> np.ndarray:
    """Final (p_g, p_e) for each realization after the flat segment chain."""
    return _evolve(dtheta, chi, None, 0.0, psi0, project=False)


def cifm_populations(dtheta, chi, offsets, phi, psi0) -> np.ndarray:
    """Final (p0, p1, p2) per realization for the coherent protocol."""
    return _evolve(dtheta, chi, offsets, phi, psi0, project=False)


def pifm_populations(dtheta, chi, offsets, phi, psi0) -> np.ndarray:
    """Final (p0, p1, p2) per realization for the projective protocol.

    p2 accumulates the population detected on |2> at the mid-sequence
    measurements; once detected, that branch is shelved and no longer
    driven, so the three outputs always sum to the initial norm.
    """
    return _evolve(dtheta, chi, offsets, phi, psi0, project=True)
