"""One batched state-vector loop for the three detector protocols.

Every kernel takes realization-major arrays: dtheta and chi have shape
(realizations, segments), offsets is the int64 slot-boundary array of
length n_slots + 1 (slot j spans columns offsets[j]:offsets[j+1]), and the
result is a (realizations, levels) array of final populations.  chi=None
puts every segment on the amplitude axis, chi = -pi/2.  psi0 is the one
initial state of every realization, of shape (levels,): one initial state
per call.

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
and real initial states the loop runs in float64; otherwise it runs in
complex128.  The dtype and the coefficient rule are fixed before the loop;
the loop body is the same on both paths.

The state is held level-major, shape (levels, realizations), so each
level is one contiguous row.  A segment's cos and sin are computed once per
realization into preallocated rows, and every 2x2 update (drive and beam
splitter alike, _rotate) works in place through two preallocated scratch
rows, in the order of the products above, so a realization's populations
do not depend on the batch around it.
Where every realization drives a segment with one magnitude, +-m as the
telegraph and fixed-strength phase scenarios do, cos(m/2) and sin(m/2) are
computed once for the column and sin takes each angle's sign: numpy's cos
is even and its sin odd to the bit, and a scalar call rounds as an array
element does, so the populations are those of the per-element calls.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# the state-vector loop
# ---------------------------------------------------------------------------

def _rotate(a, b, c, u, v, t1, t2) -> None:
    """(a, b) <- (c a + u b, v a + c b) in place; t1, t2 are scratch rows."""
    np.multiply(v, a, out=t1)
    np.multiply(u, b, out=t2)
    a *= c
    a += t2
    b *= c
    b += t1


def _evolve(dtheta, chi, offsets, phi, psi0, project) -> np.ndarray:
    """Final populations of every realization; offsets=None is one slot."""
    dtheta = np.ascontiguousarray(dtheta, dtype=np.float64)
    psi0 = np.asarray(psi0)
    r, n_seg = dtheta.shape
    half, c, s, u = np.empty((4, r))
    if chi is None:  # the amplitude axis: both coefficients are real
        real = not np.any(np.imag(psi0))

        def coefficients(p):
            return np.negative(s, out=u), s
    else:
        real = False
        chi = np.ascontiguousarray(chi, dtype=np.float64)

        def coefficients(p):
            e = np.exp(1j * chi[:, p])
            return -1j * e * s, -1j * np.conj(e) * s
    levels = psi0.size
    psi = np.empty((levels, r), dtype=np.float64 if real else np.complex128)
    psi[...] = (np.real(psi0) if real else psi0)[:, np.newaxis]
    t1, t2 = np.empty((2, r), dtype=psi.dtype)
    edges = (0, n_seg) if offsets is None else np.asarray(offsets, dtype=np.int64)
    qutrit = levels == 3
    a, b = psi[1:] if qutrit else psi  # the driven level pair
    cb = np.cos(float(phi) / 2.0)
    sb = np.sin(float(phi) / 2.0)
    if project:
        clicks = np.zeros(r)
        shelved = np.empty(r)
    if qutrit:
        _rotate(psi[0], psi[1], cb, -sb, sb, t1, t2)
    for j in range(len(edges) - 1):
        for p in range(edges[j], edges[j + 1]):
            # rotation by dtheta about the axis (cos chi, -sin chi)
            np.multiply(dtheta[:, p], 0.5, out=half)
            # one magnitude m in the column (a NaN fails); comparing the end
            # rows first rules out most other columns without two reductions
            if (r and abs(half[0]) == abs(half[-1])
                    and np.abs(half, out=s).max() == s.min()):
                # cos is even and sin odd to the bit, so cos(m) and
                # +-sin(m) are what the per-element calls would give
                m = s[0]
                c.fill(np.cos(m))
                np.copysign(1.0, half, out=s)  # the sign of -0.0 is -1
                s *= np.sin(m)
            else:
                np.cos(half, out=c)
                np.sin(half, out=s)
            _rotate(a, b, c, *coefficients(p), t1, t2)
        if project:
            np.abs(psi[2], out=shelved)
            clicks += np.square(shelved, out=shelved)
            psi[2] = 0.0
        if qutrit:
            _rotate(psi[0], psi[1], cb, -sb, sb, t1, t2)
    out = psi if real else np.abs(psi)  # a float64 x*x is |x|^2 to the bit
    np.square(out, out=out)
    if project:
        out[2] += clicks
    return out.T


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
