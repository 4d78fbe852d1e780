"""One batched state-vector loop for the three detector protocols.

Every kernel takes realization-major arrays: dtheta and chi have shape
(realizations, segments), and dtheta may also be a noise.TelegraphSlots
batch of that shape (below), which any other path expands; offsets is the
int64 slot-boundary array of length n_slots + 1 (slot j spans columns
offsets[j]:offsets[j+1]), and the result is a (realizations, levels) array
of final populations.  chi=None puts every segment on the amplitude axis,
chi = -pi/2.  psi0 is the one initial state of every realization, of shape
(levels,): one initial state per call.

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

Block tables.  A qutrit batch given as a noise.TelegraphSlots, on the
amplitude axis from a real state with one segment per slot, takes a second
path, chosen by its type: clustering (BinarySlotNoise) and kappa mode
(BinarySampledNoise) emit such batches, and nothing inspects their values.
Slot j of every realization drives +-2 h_j, with h_j = factor_j / 2, so
each slot's map is one of two real 3x3 matrices: its drive by +-2 h_j,
pifm's |2> projection, then the beam splitter.  So a block of b <= BLOCK
slots has 2^b products, which _tables builds with the loop's own updates
broadcast over the sign patterns, without BLAS.  A call builds the tables
of each distinct block once and keeps none of them: a sweep makes one call
per slot count, whose rows are every correlation time's realizations, so
no sweep builds a table twice.  A realization advances a whole block with
one np.take gather of its product, indexed by its byte of the batch's sign
bits as the generator sampled them, one multiply and one add.reduce.
Rows advance in slices of 4096 (_SLICE), each slice through every block
before the next, so the scratch (a slice's state, its gather and pifm's
click rows) holds at most 4096 rows whatever the ensemble size, and a
batch of one block is one np.take into the result, with no scratch.
pifm's product leaves |2> empty, so it acts on levels 0-1 alone, and its
clicks in a block are a quadratic form in the state entering it, the sum
over the block's slots of the squared |2> amplitude before each
projection; the table holds the form's Cholesky factor, so clicks are sums
of squares and never negative.  From a psi0 whose |2> is empty (0.0 or
-0.0), every pifm slot starts with |2> empty, so the sign of a slot's drive
only sets the sign of the |2> amplitude it makes, and the measurement
erases it: every sign pattern gets the same table columns, bit for bit.
So pifm then evolves the all-zero sign row alone, through tables that
hold the zero pattern only, and returns its populations as a read-only
np.broadcast_to view over the rows, not a copy.
cifm, and pifm from a psi0 with |2> amplitude, evolve every row.  The
first block starts from the one state all realizations share, so its table
holds the state it leaves (and pifm's clicks), computed with the loop's
updates from cos(h_j) and +-sin(h_j): numpy's cos is even and its sin odd
to the bit, and a scalar call rounds as an array element does, so a batch
of at most BLOCK slots gets the loop's populations bit for bit.  Later
blocks reassociate the loop's products, so populations move from the
loop's by about 1e-15; the tests hold them to it at 1e-13.  Every other
input runs the per-segment loop, which stays the reference: any float
array, even one whose magnitudes are equal down every column, and a
TelegraphSlots batch that drives the qubit, starts from a complex state or
is split into several segments per slot, which the loop expands to floats
first.
"""

from __future__ import annotations

import numpy as np

from .noise import BLOCK, TelegraphSlots


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
    psi0 = np.asarray(psi0)
    real = chi is None and not np.any(np.imag(psi0))  # the amplitude axis from a real state
    if (isinstance(dtheta, TelegraphSlots) and real and psi0.size == 3
            and np.array_equal(offsets, np.arange(dtheta.shape[1] + 1))):
        return _evolve_blocks(dtheta, float(phi), np.real(psi0), project)
    dtheta = np.ascontiguousarray(dtheta, dtype=np.float64)
    r, n_seg = dtheta.shape
    half, c, s, u = np.empty((4, r))
    if chi is None:  # the amplitude axis: both coefficients are real

        def coefficients(p):
            return np.negative(s, out=u), s
    else:
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
    if project:
        clicks = np.zeros(r)
        shelved = np.empty(r)
    for j in range(len(edges) - 1):
        for p in range(edges[j], edges[j + 1]):
            # rotation by dtheta about the axis (cos chi, -sin chi)
            np.multiply(dtheta[:, p], 0.5, out=half)
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
# block tables: a telegraph batch, every slot one segment of angle +-2 h_j
# ---------------------------------------------------------------------------

def _tables(half_angles, phi, project, psi0, patterns):
    """(maps, first) of a block of slots, slot k of drive half-angle h_k.

    Column i of both tables, for i < patterns, is the sign pattern i: slot k
    drives -2 h_k where bit k of i is set and 2 h_k elsewhere, as a
    TelegraphSlots sign bit makes (-1.0) * factor_k; patterns = 2^b builds
    them all, 1 the zero pattern alone, bit for bit its column of the full
    build.  Each slot is the loop's own: its drive, pifm's |2> projection,
    then the beam splitter, applied to basis states and to psi0 after the
    first beam splitter.  maps holds, row-major, the
    block's 3x3 product M (cifm), or (pifm, which leaves |2> empty after
    every slot) M's 0-1 block followed by the factor L^T of the click form
    L L^T = sum over the block's slots of z z^T, z the |2> amplitudes of |0>
    and |1> before each projection; a block then adds |L^T (a0, a1)|^2 to
    the clicks.  first holds the state the block leaves that start in: (a0,
    a1, a2) for cifm, (a0, a1, clicks) for pifm.
    """
    b = len(half_angles)
    bits = np.arange(patterns) >> np.arange(b)[:, np.newaxis] & 1
    inputs = 2 if project else 3
    psi = np.zeros((3, inputs + 1, patterns))
    psi[np.arange(inputs), np.arange(inputs)] = 1.0
    psi[:, inputs] = psi0[:, np.newaxis]
    t1, t2 = np.empty((2,) + psi.shape[1:])
    gram = np.zeros((inputs + 1, inputs + 1, patterns))
    cb, sb = np.cos(phi / 2.0), np.sin(phi / 2.0)
    _rotate(psi[0, inputs], psi[1, inputs], cb, -sb, sb, t1[0], t2[0])  # the first beam splitter
    for h, sign in zip(half_angles, 1.0 - 2.0 * bits):
        s = sign * np.sin(h)
        _rotate(psi[1], psi[2], np.cos(h), -s, s, t1, t2)
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
    # cifm's first is a strided column of psi; np.take reads a compact copy
    return maps.reshape(-1, patterns), np.ascontiguousarray(first)


#: Rows a telegraph batch advances at a time: its scratch holds at most
#: this many rows, whatever the number of realizations.
_SLICE = 4096


def _evolve_blocks(batch, phi, psi0, project) -> np.ndarray:
    """_evolve's populations of a TelegraphSlots batch, one table lookup per
    block of BLOCK slots.

    psi0 is the real initial state.  The call builds the tables of each
    distinct block once, and keeps none of them; a realization's table
    index in a block is its byte of batch.signs.  One block is one gather
    into the result; more blocks run in slices of at most _SLICE rows, each
    through every block, so the scratch is sized by the slice.  pifm from a
    psi0 with an empty |2> evolves the all-zero sign row alone, through
    tables of that one pattern, and returns a read-only view of it for
    every realization.
    """
    realizations, n = batch.shape
    index = batch.signs
    one_row = project and psi0[2] == 0.0  # every slot starts from an empty |2>
    if one_row:
        index = np.zeros((len(index), 1), dtype=index.dtype)
    r = index.shape[1]
    half_angles = (batch.factor * 0.5).tolist()
    blocks = [tuple(half_angles[k:k + BLOCK]) for k in range(0, n, BLOCK)]
    built = {block: _tables(block, phi, project, psi0, 1 if one_row else 1 << len(block))
             for block in dict.fromkeys(blocks)}
    (_, first), *tables = [built[block] for block in blocks]
    out = np.empty((3, r))  # pifm: (a0, a1, clicks)
    rows, inputs = (4, 2) if project else (3, 3)
    # every index is in range; mode="raise" would make np.take copy out first
    if not tables:  # one block: one gather straight into out, no slices
        np.take(first, index[0], axis=1, out=out, mode="wrap")
    else:
        width = min(r, _SLICE)
        # flat buffers, whose leading part a shorter slice takes: the slice's
        # state (out itself when one slice holds every row), contiguous, as
        # numpy runs a strided slice of out about a fifth slower; its gather;
        # pifm's click form
        held = out.reshape(-1) if r == width else np.empty(3 * width)
        gather = np.empty(rows * inputs * width)
        if project:
            form = np.empty(2 * width)
        for lo in range(0, r, _SLICE):
            hi = min(lo + _SLICE, r)
            m = hi - lo
            state = held[:3 * m].reshape(3, m)
            np.take(first, index[0, lo:hi], axis=1, out=state, mode="wrap")
            amps = state[:inputs]
            g = gather[:rows * inputs * m].reshape(rows, inputs, m)
            if project:
                w = form[:2 * m].reshape(2, m)
            for (maps, _), idx in zip(tables, index[1:, lo:hi]):
                np.take(maps, idx, axis=1, out=g.reshape(-1, m), mode="wrap")
                g *= amps  # g[i, j] = M_ij a_j
                np.add.reduce(g[:inputs], axis=1, out=amps)
                if project:  # the click form: |L^T (a0, a1)|^2
                    np.add.reduce(g[2:], axis=1, out=w)
                    state[2] += np.add.reduce(np.square(w, out=w))
            if r > width:
                out[:, lo:hi] = state
    amps = out[:inputs]
    np.square(amps, out=amps)
    return out.T if r == realizations else np.broadcast_to(out.T, (realizations, 3))


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
