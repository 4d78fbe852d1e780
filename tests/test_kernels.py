import numpy as np
import pytest

from ifmsim import kernels
from ifmsim.core import basis_state, pure_density
from ifmsim.experiments import _populations_parallel
from ifmsim.pulses import BeamSplitterSpec, Pulse, beam_splitter, composed_pulse


def random_batch(seed, r=40, slots=5, per_slot=3):
    rng = np.random.default_rng(seed)
    n_seg = slots * per_slot
    dtheta = rng.uniform(-2 * np.pi, 2 * np.pi, (r, n_seg))
    chi = rng.uniform(-np.pi, np.pi, (r, n_seg))
    offsets = np.arange(slots + 1, dtype=np.int64) * per_slot
    return dtheta, chi, offsets


def reference_cifm(dtheta, chi, offsets, n_slots):
    """Slow oracle: explicit matrix products per realization."""
    s = beam_splitter(n_slots)
    out = np.empty((dtheta.shape[0], 3))
    for i in range(dtheta.shape[0]):
        psi = s @ basis_state(3, 0)
        for j in range(n_slots):
            lo, hi = offsets[j], offsets[j + 1]
            u = composed_pulse(Pulse(dtheta[i, lo:hi], chi[i, lo:hi]), 3)
            psi = s @ (u @ psi)
        out[i] = np.abs(psi) ** 2
    return out


def test_cifm_kernel_matches_matrix_oracle():
    dtheta, chi, offsets = random_batch(0)
    got = kernels.cifm_populations(dtheta, chi, offsets, np.pi / 6, basis_state(3, 0))
    ref = reference_cifm(dtheta, chi, offsets, 5)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_qubit_kernel_matches_direct_product():
    dtheta, chi, _ = random_batch(1, slots=1, per_slot=7)
    got = kernels.qubit_populations(dtheta, chi, basis_state(2, 0))
    for i in range(dtheta.shape[0]):
        u = composed_pulse(Pulse(dtheta[i], chi[i]), 2)
        expected = np.abs(u @ basis_state(2, 0)) ** 2
        assert np.max(np.abs(got[i] - expected)) < 1e-12


def test_backends_agree():
    dtheta, chi, offsets = random_batch(2)
    psi2 = basis_state(2, 0)
    psi3 = basis_state(3, 0)
    rho3 = pure_density(psi3)
    pairs = [
        (kernels.qubit_populations(dtheta, chi, psi2),
         kernels._qubit_populations_np(dtheta, chi, psi2)),
        (kernels.cifm_populations(dtheta, chi, offsets, np.pi / 6, psi3),
         kernels._cifm_populations_np(dtheta, chi, offsets, np.pi / 6, psi3)),
        (kernels.pifm_populations(dtheta, chi, offsets, np.pi / 6, rho3),
         kernels._pifm_populations_np(dtheta, chi, offsets, np.pi / 6, rho3)),
    ]
    for got, ref in pairs:
        assert np.max(np.abs(got - ref)) < 1e-12


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba backend not active")
def test_jit_matches_numpy_exactly_on_splits():
    # splitting a batch across chunk boundaries must not change any row
    dtheta, chi, offsets = random_batch(3, r=33)
    psi3 = basis_state(3, 0)
    whole = kernels.cifm_populations(dtheta, chi, offsets, np.pi / 5, psi3)
    parts = np.vstack([
        kernels.cifm_populations(dtheta[:10], chi[:10], offsets, np.pi / 5, psi3),
        kernels.cifm_populations(dtheta[10:21], chi[10:21], offsets, np.pi / 5, psi3),
        kernels.cifm_populations(dtheta[21:], chi[21:], offsets, np.pi / 5, psi3),
    ])
    assert np.array_equal(whole, parts)


def test_pifm_kernel_probabilities_are_normalized():
    dtheta, chi, offsets = random_batch(4)
    out = kernels.pifm_populations(dtheta, chi, offsets, np.pi / 6,
                                   pure_density(basis_state(3, 0)))
    assert np.all(out >= -1e-12)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# coaxial merging through the ensemble dispatch
# ---------------------------------------------------------------------------

PROTOCOLS = ("qubit", "cifm", "pifm")


def coaxial_batch(seed, r=40, slots=5, per_slot=6):
    """Random angles on one random axis per slot and realization."""
    rng = np.random.default_rng(seed)
    dtheta = rng.uniform(-np.pi, np.pi, (r, slots * per_slot))
    chi = np.repeat(rng.uniform(-np.pi, np.pi, (r, slots)), per_slot, axis=1)
    offsets = np.arange(slots + 1, dtype=np.int64) * per_slot
    return dtheta, chi, offsets


def one_axis_batch(seed):
    """Every segment on the amplitude axis, as in the binary-noise sweeps."""
    dtheta, chi, offsets = coaxial_batch(seed)
    return dtheta, np.full_like(chi, -np.pi / 2), offsets


BATCHES = {"per_segment_axes": random_batch, "per_slot_axes": coaxial_batch,
           "one_axis": one_axis_batch}


def literal(protocol, dtheta, chi, offsets):
    """The kernels on the segments as given, without merging."""
    if protocol == "qubit":
        return kernels.qubit_populations(dtheta, chi, basis_state(2, 0))
    phi = BeamSplitterSpec(len(offsets) - 1).phi
    if protocol == "cifm":
        return kernels.cifm_populations(dtheta, chi, offsets, phi, basis_state(3, 0))
    return kernels.pifm_populations(dtheta, chi, offsets, phi, pure_density(basis_state(3, 0)))


def dispatch(protocol, dtheta, chi, offsets, threads=1):
    return _populations_parallel(protocol, dtheta, chi, offsets, len(offsets) - 1, threads)


def split_coaxial(dtheta, chi, offsets, rng, max_pieces=4):
    """Cut every segment into 1..max_pieces random pieces on its own axis."""
    pieces = rng.integers(1, max_pieces + 1, dtheta.shape[1])
    cols = np.repeat(np.arange(dtheta.shape[1]), pieces)
    starts = np.concatenate(([0], np.cumsum(pieces)))
    weights = rng.uniform(0.1, 1.0, (dtheta.shape[0], cols.size))
    weights /= np.add.reduceat(weights, starts[:-1], axis=1)[:, cols]
    return dtheta[:, cols] * weights, chi[:, cols], starts[offsets]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_coaxial_split_leaves_outputs_unchanged(protocol, batch):
    dtheta, chi, offsets = BATCHES[batch](5)
    split = split_coaxial(dtheta, chi, offsets, np.random.default_rng(6))
    assert split[0].shape[1] > dtheta.shape[1]
    ref = literal(protocol, dtheta, chi, offsets)
    for got in (dispatch(protocol, *split), dispatch(protocol, *split, threads=3),
                literal(protocol, *split)):
        assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_four_pi_slot_shift_leaves_outputs_unchanged(protocol, batch):
    dtheta, chi, offsets = BATCHES[batch](7)
    shifted = dtheta.copy()
    shifted[:, offsets[2]] += 4.0 * np.pi
    ref = dispatch(protocol, dtheta, chi, offsets)
    assert np.max(np.abs(dispatch(protocol, shifted, chi, offsets) - ref)) <= 1e-12


def test_merge_keeps_columns_where_any_row_changes_axis():
    dtheta = np.arange(1.0, 9.0).reshape(2, 4)
    chi = np.zeros((2, 4))
    chi[1, 2:] = 1.0  # only row 1 changes axis, at column 2
    d, c, o = kernels.merge_coaxial(dtheta, chi, np.array([0, 4]))
    assert np.array_equal(d, [[3.0, 7.0], [11.0, 15.0]])
    assert np.array_equal(c, [[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(o, [0, 2])


def test_merge_keeps_empty_slots_and_slot_edges():
    dtheta = np.arange(1.0, 7.0).reshape(1, 6)
    chi = np.zeros((1, 6))
    d, c, o = kernels.merge_coaxial(dtheta, chi, np.array([0, 0, 2, 2, 6, 6]))
    assert np.array_equal(d, [[3.0, 18.0]])
    assert np.array_equal(c, [[0.0, 0.0]])
    assert np.array_equal(o, [0, 0, 1, 1, 2, 2])


def test_merge_without_offsets_treats_chain_as_one_slot():
    dtheta = np.arange(1.0, 7.0).reshape(2, 3)
    d, c, o = kernels.merge_coaxial(dtheta, np.full((2, 3), 0.5), None)
    assert np.array_equal(d, [[6.0], [15.0]])
    assert np.array_equal(c, [[0.5], [0.5]])
    assert o is None


def test_merge_without_coaxial_runs_returns_inputs():
    dtheta, chi, offsets = random_batch(8)
    assert all(a is b for a, b in zip(kernels.merge_coaxial(dtheta, chi, offsets),
                                      (dtheta, chi, offsets)))
