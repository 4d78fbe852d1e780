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
do not depend on the batch around it, as long as both batches take the
same path (below).
Where every realization drives a segment with one magnitude, +-m as the
fixed-strength phase scenarios and telegraph batches off the table path
(below) do, cos(m/2) and sin(m/2) are
computed once for the column and sin takes each angle's sign: numpy's cos
is even and its sin odd to the bit, and a scalar call rounds as an array
element does, so the populations are those of the per-element calls.

Block tables.  A qutrit batch on the amplitude axis from a real state whose
every slot is one segment of angle +-2 m_j, with |dtheta| equal down each
column (a NaN fails), takes a second path, chosen once per batch:
clustering (BinarySlotNoise) and kappa mode (BinarySampledNoise) emit such
batches.  Each slot's map is then one of two real 3x3 matrices: its drive
by +-2 m_j, pifm's |2> projection, then the beam splitter.  So a block of b <= 8
slots has 2^b products, which _tables builds with the loop's own updates
broadcast over the sign patterns, without BLAS, and caches: the blocks of
a call and the calls of a sweep share them.  A realization advances a
whole block with one np.take gather of its product, indexed by the
little-endian np.packbits byte of its sign bits in the block, one multiply
and one add.reduce.  pifm's product leaves |2> empty, so it acts on
levels 0-1 alone, and its clicks in a block are a quadratic form in the
state entering it, the sum over the block's slots of the squared |2>
amplitude before each projection; the table holds the form's Cholesky
factor, so clicks are sums of squares and never negative.  The first block starts from the one state all realizations
share, so its table holds the state it leaves (and pifm's clicks), computed
as the loop computes them: a batch of at most 8 slots gets the loop's
populations bit for bit.  Later blocks reassociate the loop's products, so
populations move from the loop's by about 1e-15; the tests hold them to
it at 1e-13.  Every other batch (random magnitudes as in zero_sum, the
phase scenarios, the qubit, slots of several segments) runs the
per-segment loop, which stays the reference.
"""

from __future__ import annotations

import functools

import numpy as np

#: Slots per table block: the sign bits of a block fill one byte.
_BLOCK = 8


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
    if qutrit:
        _rotate(psi[0], psi[1], cb, -sb, sb, t1, t2)
        half_mags = _slot_magnitudes(dtheta, edges) if real else None
        if half_mags is not None:  # a telegraph batch: the block tables
            return _evolve_blocks(dtheta, half_mags, float(phi), psi, project)
    if project:
        clicks = np.zeros(r)
        shelved = np.empty(r)
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
# block tables: every slot one segment of angle +-2 m_j down its column
# ---------------------------------------------------------------------------

def _slot_magnitudes(dtheta, edges):
    """The half-angles m_j when slot j is one segment of angle +-2 m_j in
    every realization, else None (a NaN fails)."""
    r, n = dtheta.shape
    if r == 0 or len(edges) != n + 1 or np.any(edges != np.arange(n + 1)):
        return None
    # the first and last rows rule out most other batches in O(n)
    if not np.array_equal(np.abs(dtheta[0]), np.abs(dtheta[-1])):
        return None
    mags = np.abs(dtheta)
    if not np.array_equal(mags[1:], mags[:-1]):
        return None
    return mags[0] * 0.5


@functools.lru_cache(maxsize=16)
def _tables(half_mags, phi, project, start):
    """(maps, first) of a block of slots with drive half-angles half_mags.

    Column i of both tables is the sign pattern i: bit k set when slot k
    drives -2 m_k.  Each slot is the loop's own: its drive, pifm's |2>
    projection, then the beam splitter, applied to basis states and to
    start.  maps holds, row-major, the block's 3x3 product M (cifm), or
    (pifm, which leaves |2> empty after every slot) M's 0-1 block followed
    by the factor L^T of the click form L L^T = sum over the block's slots
    of h h^T, h the |2> amplitudes of |0> and |1> before each projection;
    a block then adds |L^T (a0, a1)|^2 to the clicks.  first holds the
    state the block leaves start in: (a0, a1, a2) for cifm, (a0, a1,
    clicks) for pifm.
    """
    b = len(half_mags)
    negative = np.arange(1 << b) >> np.arange(b)[:, np.newaxis] & 1
    inputs = 2 if project else 3
    psi = np.zeros((3, inputs + 1, 1 << b))
    psi[np.arange(inputs), np.arange(inputs)] = 1.0
    psi[:, inputs] = np.array(start)[:, np.newaxis]
    t1, t2 = np.empty((2,) + psi.shape[1:])
    gram = np.zeros((inputs + 1, inputs + 1, 1 << b))
    cb, sb = np.cos(phi / 2.0), np.sin(phi / 2.0)
    for m, sign in zip(half_mags, 1.0 - 2.0 * negative):
        s = sign * np.sin(m)
        _rotate(psi[1], psi[2], np.cos(m), -s, s, t1, t2)
        if project:
            gram += psi[2, :, np.newaxis] * psi[2]
            psi[2] = 0.0
        _rotate(psi[0], psi[1], cb, -sb, sb, t1, t2)
    if project:
        # gram's 0-1 block is positive semidefinite: its Cholesky factor
        # (zero where |0> never reaches |2>) makes every click a sum of squares
        l00 = np.sqrt(gram[0, 0])
        l10 = np.divide(gram[0, 1], l00, out=np.zeros_like(l00), where=l00 > 0)
        l11 = np.sqrt(np.maximum(gram[1, 1] - l10 * l10, 0.0))  # NaN stays NaN
        maps = np.concatenate((psi[:2, :2], [[l00, l10], [np.zeros_like(l11), l11]]))
        first = np.stack((psi[0, 2], psi[1, 2], gram[2, 2]))
    else:
        maps, first = psi[:, :3], psi[:, 3]
    tables = np.ascontiguousarray(maps.reshape(-1, 1 << b)), np.ascontiguousarray(first)
    for table in tables:
        table.flags.writeable = False  # cached: shared by every later call
    return tables


def _evolve_blocks(dtheta, half_mags, phi, psi, project) -> np.ndarray:
    """_evolve's populations, one table lookup per block of eight slots.

    psi is the state after the first beam splitter, the same in every
    realization.  A realization's table index in a block is the
    little-endian byte of its sign bits there; a -0.0 angle takes the +0.0
    entry, the same map up to the sign of its zeros.
    """
    r, n = dtheta.shape
    n_blocks = -(-n // _BLOCK)
    negative = np.zeros((r, n_blocks * _BLOCK), dtype=bool)
    np.less(dtheta, 0.0, out=negative[:, :n])
    index = np.packbits(negative.reshape(-1), bitorder="little").reshape(r, n_blocks)
    index = index.T.astype(np.intp)
    start = tuple(psi[:, 0].tolist())
    half_mags = half_mags.tolist()
    tables = [_tables(tuple(half_mags[k:k + _BLOCK]), phi, project, start)
              for k in range(0, n, _BLOCK)]
    out = np.take(tables[0][1], index[0], axis=1)  # pifm: (a0, a1, clicks)
    rows, inputs = (4, 2) if project else (3, 3)
    amps = out[:inputs]
    g = np.empty((rows, inputs, r))
    w = np.empty((2, r))
    for (maps, _), idx in zip(tables[1:], index[1:]):
        np.take(maps, idx, axis=1, out=g.reshape(-1, r), mode="wrap")  # every index is in range
        g *= amps  # g[i, j] = M_ij a_j
        np.add.reduce(g[:inputs], axis=1, out=amps)
        if project:  # the click form: |L^T (a0, a1)|^2
            np.add.reduce(g[2:], axis=1, out=w)
            out[2] += np.add.reduce(np.square(w, out=w))
    np.square(amps, out=amps)
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
