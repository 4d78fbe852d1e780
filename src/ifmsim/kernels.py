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
splitter alike, _rotate) works in place on the (2, realizations) view of
its level pair through one preallocated scratch pair: the products u b and
v a in one call, then c times the pair and the sum, so each amplitude
rounds as fl(fl(c a) + fl(u b)), and a realization's populations do not
depend on the batch around it, as long as both batches take the same path
(below).

Telegraph batches.  A qutrit batch given as a noise.TelegraphSlots, on the
amplitude axis from a real state with one segment per slot, is read as its
sign bits, chosen by its type: clustering (BinarySlotNoise) and kappa mode
(BinarySampledNoise) emit such batches, and nothing inspects their values.
Slot j of every realization drives +-2 h_j, with h_j = factor_j / 2.

pifm runs the batch's distinct realizations through the loop itself.
After slot 0 every pifm slot starts from an empty |2>, so the sign of its
drive only sets the sign of the |2> amplitude it makes, which the
measurement erases: only slot 0's sign bit, and only when psi0 has |2>
amplitude, can move a row's populations.  So from a psi0 whose |2> is
empty (0.0 or -0.0) the all-zero sign row stands for every realization,
returned as a read-only np.broadcast_to view over the rows, not a copy;
otherwise that row and the row with slot 0 flipped are evolved and
gathered back by each realization's slot-0 sign bit.  Either way a row's
populations are bit for bit those of its row of np.asarray(batch) on the
float64 loop.

cifm takes block tables.  Each slot's map is one of two real 3x3
matrices, its drive by +-2 h_j then the beam splitter, so a block of
b <= BLOCK slots has 2^b products, which _tables builds with the loop's own
updates broadcast over the sign patterns, without BLAS.  A call builds the
tables of each distinct block once and keeps none of them: a sweep makes
one call per slot count, whose rows are every correlation time's
realizations, so no sweep builds a table twice.  A realization advances a
whole block with one np.take gather of its product, indexed by its byte of
the batch's sign bits as the generator sampled them, one multiply and one
add.reduce.  Rows advance in slices of 4096 (_SLICE), each slice through
every block before the next, so the scratch (a slice's state and its
gather) holds at most 4096 rows whatever the ensemble size, and a batch of
one block is one np.take into the result, with no scratch.  The first
block starts from the one state all realizations share, so its table holds
the state it leaves, computed with the loop's updates from cos(h_j) and
+-sin(h_j): numpy's cos is even and its sin odd to the bit, and a scalar
call rounds as an array element does, so a batch of at most BLOCK slots
gets the loop's populations bit for bit.  Later blocks reassociate the
loop's products, so populations move from the loop's by about 1e-15; the
tests hold them to it at 1e-13.  Every other input runs the per-segment
loop, which stays the reference: any float array, even one whose
magnitudes are equal down every column, and a TelegraphSlots batch that
drives the qubit, starts from a complex state or is split into several
segments per slot, which the loop expands to floats first.
"""

from __future__ import annotations

import numpy as np

from .noise import BLOCK, TelegraphSlots


# ---------------------------------------------------------------------------
# the state-vector loop
# ---------------------------------------------------------------------------

def _rotate(pair, c, uv, t) -> None:
    """pair = (a, b) <- (c a + u b, v a + c b) in place, uv = (u, v); t is
    scratch of pair's shape."""
    np.multiply(uv, pair[::-1], out=t)  # (u b, v a)
    pair *= c
    pair += t


def _evolve(dtheta, chi, offsets, phi, psi0, project) -> np.ndarray:
    """Final populations of every realization; offsets=None is one slot."""
    psi0 = np.asarray(psi0)
    real = chi is None and not np.any(np.imag(psi0))  # the amplitude axis from a real state
    if (isinstance(dtheta, TelegraphSlots) and real and psi0.size == 3
            and np.array_equal(offsets, np.arange(dtheta.shape[1] + 1))):
        if not project:
            return _evolve_blocks(dtheta, float(phi), np.real(psi0))
        # pifm: only slot 0's sign bit can move a row, and not even that when
        # |2> starts empty, so the all-zero sign row and, when it can, the row
        # with slot 0 flipped stand for the batch
        realizations, n = dtheta.shape
        distinct = np.ones((1 if psi0[2] == 0.0 else 2, n))
        distinct[1:, 0] = -1.0
        distinct *= dtheta.factor  # (+-1.0) * factor, as np.asarray(dtheta) expands it
        rows = _evolve(distinct, None, offsets, phi, psi0, project)
        if len(rows) == 1:
            return np.broadcast_to(rows[0], (realizations, 3))
        return rows[dtheta.signs[0] & 1]
    dtheta = np.ascontiguousarray(dtheta, dtype=np.float64)
    r, n_seg = dtheta.shape
    half, c = np.empty((2, r))
    uv = np.empty((2, r))
    s = uv[1]
    if chi is None:  # the amplitude axis: both coefficients are real

        def coefficients(p):
            np.negative(s, out=uv[0])
            return uv
    else:
        chi = np.ascontiguousarray(chi, dtype=np.float64)

        def coefficients(p):
            e = np.exp(1j * chi[:, p])
            return -1j * np.stack((e, np.conj(e))) * s
    levels = psi0.size
    psi = np.empty((levels, r), dtype=np.float64 if real else np.complex128)
    psi[...] = (np.real(psi0) if real else psi0)[:, np.newaxis]
    t = np.empty((2, r), dtype=psi.dtype)
    edges = (0, n_seg) if offsets is None else np.asarray(offsets, dtype=np.int64)
    qutrit = levels == 3
    driven = psi[1:] if qutrit else psi  # the driven level pair
    cb = np.cos(float(phi) / 2.0)
    sb = np.sin(float(phi) / 2.0)
    split = np.array([[-sb], [sb]])  # the beam splitter's (u, v)
    if qutrit:
        _rotate(psi[:2], cb, split, t)
    if project:
        clicks = np.zeros(r)
        shelved = np.empty(r)
    for j in range(len(edges) - 1):
        for p in range(edges[j], edges[j + 1]):
            # rotation by dtheta about the axis (cos chi, -sin chi)
            np.multiply(dtheta[:, p], 0.5, out=half)
            np.cos(half, out=c)
            np.sin(half, out=s)
            _rotate(driven, c, coefficients(p), t)
        if project:
            level_2 = psi[2] if real else np.abs(psi[2], out=shelved)
            clicks += np.square(level_2, out=shelved)
            psi[2] = 0.0
        if qutrit:
            _rotate(psi[:2], cb, split, t)
    out = psi if real else np.abs(psi)  # a float64 x*x is |x|^2 to the bit
    np.square(out, out=out)
    if project:
        out[2] += clicks
    return out.T


# ---------------------------------------------------------------------------
# block tables: a cifm telegraph batch, every slot one segment of angle +-2 h_j
# ---------------------------------------------------------------------------

def _tables(half_angles, phi, psi0):
    """(maps, first) of a block of slots, slot k of drive half-angle h_k.

    Column i of both tables is the sign pattern i: slot k drives -2 h_k
    where bit k of i is set and 2 h_k elsewhere, as a TelegraphSlots sign
    bit makes (-1.0) * factor_k.  Each slot is the loop's own drive, then
    the beam splitter, applied to the basis states and to psi0 after the
    first beam splitter.  maps holds the block's 3x3 product row-major,
    and first the state (a0, a1, a2) the block leaves that start in.
    """
    b = len(half_angles)
    patterns = 1 << b
    bits = np.arange(patterns) >> np.arange(b)[:, np.newaxis] & 1
    psi = np.zeros((3, 4, patterns))
    psi[np.arange(3), np.arange(3)] = 1.0
    psi[:, 3] = psi0[:, np.newaxis]
    t = np.empty((2, 4, patterns))
    cb, sb = np.cos(phi / 2.0), np.sin(phi / 2.0)
    split = np.array([-sb, sb])[:, np.newaxis, np.newaxis]
    _rotate(psi[:2, 3], cb, split[:, 0], t[:, 0])  # the first beam splitter
    s = (1.0 - 2.0 * bits) * np.sin(half_angles)[:, np.newaxis]  # +-sin(h_k), exactly
    uv = np.stack((-s, s))[:, :, np.newaxis]  # slot k's (u, v) is uv[:, k]
    for k, h in enumerate(half_angles):
        _rotate(psi[1:], np.cos(h), uv[:, k], t)
        _rotate(psi[:2], cb, split, t)
    # first is a strided column of psi; np.take reads a compact copy
    return psi[:, :3].reshape(-1, patterns), np.ascontiguousarray(psi[:, 3])


#: Rows a cifm telegraph batch advances at a time: its scratch (a slice's
#: state and gather) holds at most this many rows, whatever the number of
#: realizations.
_SLICE = 4096


def _evolve_blocks(batch, phi, psi0) -> np.ndarray:
    """cifm's populations of a TelegraphSlots batch, one table lookup per
    block of BLOCK slots.

    psi0 is the real initial state.  The call builds the tables of each
    distinct block once, and keeps none of them; a realization's table
    index in a block is its byte of batch.signs.  One block is one gather
    into the result; more blocks run in slices of at most _SLICE rows, each
    through every block, so the scratch is sized by the slice.
    """
    r, n = batch.shape
    index = batch.signs
    half_angles = (batch.factor * 0.5).tolist()
    blocks = [tuple(half_angles[k:k + BLOCK]) for k in range(0, n, BLOCK)]
    built = {block: _tables(block, phi, psi0) for block in dict.fromkeys(blocks)}
    (_, first), *tables = [built[block] for block in blocks]
    out = np.empty((3, r))
    # every index is in range; mode="raise" would make np.take copy out first
    if not tables:  # one block: one gather straight into out, no slices
        np.take(first, index[0], axis=1, out=out, mode="wrap")
    else:
        width = min(r, _SLICE)
        # flat buffers, whose leading part a shorter slice takes: the slice's
        # state (out itself when one slice holds every row), contiguous, as
        # numpy runs a strided slice of out about a fifth slower; its gather
        held = out.reshape(-1) if r == width else np.empty(3 * width)
        gather = np.empty(9 * width)
        for lo in range(0, r, _SLICE):
            hi = min(lo + _SLICE, r)
            m = hi - lo
            state = held[:3 * m].reshape(3, m)
            np.take(first, index[0, lo:hi], axis=1, out=state, mode="wrap")
            g = gather[:9 * m].reshape(3, 3, m)
            for (maps, _), idx in zip(tables, index[1:, lo:hi]):
                np.take(maps, idx, axis=1, out=g.reshape(-1, m), mode="wrap")
                g *= state  # g[i, j] = M_ij a_j
                np.add.reduce(g, axis=1, out=state)
            if r > width:
                out[:, lo:hi] = state
    np.square(out, out=out)
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
