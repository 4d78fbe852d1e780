import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ifmsim import kernels
from ifmsim.protocols import PROTOCOLS, basis_state, batch_populations
from oracles import AXIS, beam_splitter, composed_pulse, pifm_measure_channel, pure_density


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
            u = composed_pulse(dtheta[i, lo:hi], chi[i, lo:hi], 3)
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
        u = composed_pulse(dtheta[i], chi[i], 2)
        expected = np.abs(u @ basis_state(2, 0)) ** 2
        assert np.max(np.abs(got[i] - expected)) < 1e-12


def reference_pifm(dtheta, chi, offsets, n_slots, rho0):
    """Slow oracle: dense density-matrix products per realization.

    After every slot the measurement channel erases the coherences to |2>,
    and the population on |2> is shelved as a click.
    """
    s = beam_splitter(n_slots)
    out = np.empty((dtheta.shape[0], 3))
    for i in range(dtheta.shape[0]):
        rho = s @ rho0 @ s.conj().T
        clicks = 0.0
        for j in range(n_slots):
            lo, hi = offsets[j], offsets[j + 1]
            u = composed_pulse(dtheta[i, lo:hi], chi[i, lo:hi], 3)
            rho = pifm_measure_channel(u @ rho @ u.conj().T)
            clicks += rho[2, 2].real
            rho[2, 2] = 0.0
            rho = s @ rho @ s.conj().T
        out[i] = rho[0, 0].real, rho[1, 1].real, clicks + rho[2, 2].real
    return out


def test_pifm_kernel_matches_density_matrix_oracle():
    dtheta, chi, offsets = random_batch(2)
    psi = np.array([0.6, 0.48j, -0.64])
    got = kernels.pifm_populations(dtheta, chi, offsets, np.pi / 6, psi)
    ref = reference_pifm(dtheta, chi, offsets, 5, pure_density(psi))
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_mixed_pifm_run_matches_density_matrix_oracle():
    # the evolution is linear in the state, so a mixed initial state runs as
    # its eigenvectors, weighted by their eigenvalues
    dtheta, chi, offsets = random_batch(9, r=6)
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(np.complex128)
    rho0[0, 1], rho0[1, 0] = 0.1 - 0.2j, 0.1 + 0.2j
    weights, vectors = np.linalg.eigh(rho0)
    got = sum(w * batch_populations("pifm", dtheta, chi, offsets, psi)
              for w, psi in zip(weights, vectors.T))
    ref = reference_pifm(dtheta, chi, offsets, 5, rho0)
    assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("protocol", ("qubit", "cifm", "pifm"))
def test_row_splits_are_byte_identical(protocol):
    # splitting a batch across chunk boundaries must not change any row
    dtheta, chi, offsets = random_batch(3, r=33)
    psi0 = basis_state(PROTOCOLS[protocol].levels, 0)
    whole = batch_populations(protocol, dtheta, chi, offsets, psi0)
    parts = np.vstack([
        batch_populations(protocol, dtheta[lo:hi], chi[lo:hi], offsets, psi0)
        for lo, hi in ((0, 10), (10, 21), (21, 33))
    ])
    assert np.array_equal(whole, parts)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_kernel_probabilities_are_normalized(protocol):
    dtheta, chi, offsets = random_batch(4)
    out = batch_populations(protocol, dtheta, chi, offsets,
                            basis_state(PROTOCOLS[protocol].levels, 0))
    assert np.all(out >= -1e-12)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-10


def test_norm_stable_over_many_compositions():
    # the loop never renormalizes, so 10,000 segments must keep the norm by
    # themselves; all three protocols share that loop
    rng = np.random.default_rng(7)
    dtheta, chi = rng.uniform(-np.pi, np.pi, (2, 1, 10_000))
    out = batch_populations("cifm", dtheta, chi, np.array([0, 10_000]), basis_state(3, 0))
    assert abs(out.sum() - 1.0) <= 1e-10


@pytest.mark.parametrize("offsets, segments",
                         [([0, 1, 2], 4), ([2, 3, 4], 4), ([0, 3, 1, 4], 4), ([0, 2, 5], 4),
                          ([0], 0)],
                         ids=["drops_tail", "drops_head", "decreases", "overruns", "no_slots"])
@pytest.mark.parametrize("protocol", ["cifm", "pifm"])
def test_dispatch_rejects_offsets_that_do_not_tile_the_segments(protocol, offsets, segments):
    dtheta = np.full((2, segments), 0.3)
    with pytest.raises(ValueError, match="offsets"):
        batch_populations(protocol, dtheta, np.zeros_like(dtheta), np.array(offsets),
                          basis_state(3, 0))


@pytest.mark.parametrize("chi_shape", [(2, 6), (1, 4), (4,)],
                         ids=["wider", "one_row", "one_dimensional"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_dispatch_rejects_chi_of_another_shape(protocol, chi_shape):
    dtheta = np.full((2, 4), 0.3)
    message = f"chi must be None or have dtheta's shape (2, 4), got {chi_shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        batch_populations(protocol, dtheta, np.zeros(chi_shape), np.arange(5),
                          basis_state(PROTOCOLS[protocol].levels, 0))


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_dispatch_rejects_initial_state_without_unit_norm(protocol):
    dtheta = np.full((2, 4), 0.3)
    psi0 = basis_state(PROTOCOLS[protocol].levels, 0) * np.sqrt(2.0)  # norm^2 = 2
    with pytest.raises(ValueError, match="unit norm"):
        batch_populations(protocol, dtheta, np.zeros_like(dtheta), np.arange(5), psi0)
    # a state that is normalized up to rounding passes
    plus = np.ones(PROTOCOLS[protocol].levels) / np.sqrt(PROTOCOLS[protocol].levels)
    out = batch_populations(protocol, dtheta, np.zeros_like(dtheta), np.arange(5), plus)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# metamorphic invariants of the segment chain
# ---------------------------------------------------------------------------

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


def split_coaxial(dtheta, chi, offsets, rng, max_pieces=4):
    """Cut every segment into 1..max_pieces random pieces on its own axis."""
    pieces = rng.integers(1, max_pieces + 1, dtheta.shape[1])
    cols = np.repeat(np.arange(dtheta.shape[1]), pieces)
    starts = np.concatenate(([0], np.cumsum(pieces)))
    weights = rng.uniform(0.1, 1.0, (dtheta.shape[0], cols.size))
    weights /= np.add.reduceat(weights, starts[:-1], axis=1)[:, cols]
    return dtheta[:, cols] * weights, chi[:, cols], starts[offsets]


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_coaxial_split_leaves_outputs_unchanged(protocol, batch):
    dtheta, chi, offsets = BATCHES[batch](5)
    split = split_coaxial(dtheta, chi, offsets, np.random.default_rng(6))
    assert split[0].shape[1] > dtheta.shape[1]
    psi0 = basis_state(PROTOCOLS[protocol].levels, 0)
    ref = batch_populations(protocol, dtheta, chi, offsets, psi0)
    assert np.max(np.abs(batch_populations(protocol, *split, psi0) - ref)) <= 1e-13


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_four_pi_slot_shift_leaves_outputs_unchanged(protocol, batch):
    dtheta, chi, offsets = BATCHES[batch](7)
    shifted = dtheta.copy()
    shifted[:, offsets[2]] += 4.0 * np.pi
    psi0 = basis_state(PROTOCOLS[protocol].levels, 0)
    ref = batch_populations(protocol, dtheta, chi, offsets, psi0)
    assert np.max(np.abs(batch_populations(protocol, shifted, chi, offsets, psi0) - ref)) <= 1e-12


# ---------------------------------------------------------------------------
# the amplitude axis: chi=None against an explicit chi = -pi/2
# ---------------------------------------------------------------------------

AMPLITUDE_AXIS_STATES = {
    # a real state with weight on every level runs in float64 and sees the
    # sign of u and v; a complex one keeps the amplitude axis in complex128
    ("qubit", "real"): np.array([0.6, -0.8]),
    ("qubit", "complex"): np.array([1.0, 1.0j]) / np.sqrt(2.0),
    ("cifm", "real"): np.array([0.6, 0.48, -0.64]),
    ("cifm", "complex"): np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0),
    ("pifm", "real"): np.array([0.6, 0.48, -0.64]),
    ("pifm", "complex"): np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0),
}


@pytest.mark.parametrize("protocol, kind", sorted(AMPLITUDE_AXIS_STATES))
def test_amplitude_axis_matches_explicit_axis(protocol, kind):
    dtheta, _, offsets = random_batch(10)
    psi0 = AMPLITUDE_AXIS_STATES[protocol, kind]
    implicit = batch_populations(protocol, dtheta, None, offsets, psi0)
    explicit = batch_populations(protocol, dtheta, np.full_like(dtheta, AXIS), offsets, psi0)
    assert np.max(np.abs(implicit - explicit)) <= 1e-13


# ---------------------------------------------------------------------------
# property tests: random batches, axes and initial states
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
ANGLES = st.floats(-4 * np.pi, 4 * np.pi)
AXES = st.floats(-np.pi, np.pi)


@st.composite
def batches(draw, chi=True):
    """(dtheta, chi, offsets): 1-3 realizations, 1-4 slots of 0-3 segments.

    chi is None (the amplitude axis) or an array of random axes; chi=False
    draws only None.
    """
    counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    shape = (draw(st.integers(1, 3)), int(offsets[-1]))
    dtheta = draw(hnp.arrays(np.float64, shape, elements=ANGLES))
    axes = hnp.arrays(np.float64, shape, elements=AXES)
    return dtheta, draw(st.none() | axes) if chi else None, offsets


@st.composite
def states(draw, levels, real=False):
    """A unit-norm initial state of the given level count."""
    parts = hnp.arrays(np.float64, levels, elements=st.floats(-1.0, 1.0))
    psi = draw(parts) + (0.0 if real else 1j * draw(parts))
    norm = np.sqrt(np.sum(np.abs(psi) ** 2))
    assume(norm > 0.1)
    return psi / norm


def protocol_cases(chi=True, real=False):
    """(protocol, batch, psi0) for every protocol."""
    return st.sampled_from(sorted(PROTOCOLS)).flatmap(lambda protocol: st.tuples(
        st.just(protocol), batches(chi), states(PROTOCOLS[protocol].levels, real)))


@PROPERTY_SETTINGS
@given(protocol_cases())
def test_property_norm_is_conserved(case):
    protocol, batch, psi0 = case
    out = batch_populations(protocol, *batch, psi0)
    assert np.all(out >= 0.0)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12


@PROPERTY_SETTINGS
@given(protocol_cases(), st.data())
def test_property_four_pi_shift_of_a_segment_changes_nothing(case, data):
    protocol, (dtheta, chi, offsets), psi0 = case
    assume(dtheta.shape[1] > 0)
    p = data.draw(st.integers(0, dtheta.shape[1] - 1))
    shifted = dtheta.copy()
    shifted[:, p] += data.draw(st.sampled_from((-4.0 * np.pi, 4.0 * np.pi)))
    ref = batch_populations(protocol, dtheta, chi, offsets, psi0)
    assert np.max(np.abs(batch_populations(protocol, shifted, chi, offsets, psi0) - ref)) <= 1e-12


@PROPERTY_SETTINGS
@given(protocol_cases(), st.data())
def test_property_splitting_a_segment_on_its_axis_changes_nothing(case, data):
    protocol, (dtheta, chi, offsets), psi0 = case
    assume(dtheta.shape[1] > 0)
    p = data.draw(st.integers(0, dtheta.shape[1] - 1))
    w = data.draw(st.floats(0.0, 1.0))
    cols = np.insert(np.arange(dtheta.shape[1]), p, p)  # segment p twice
    split = dtheta[:, cols]
    split[:, p] *= w
    split[:, p + 1] *= 1.0 - w
    split_chi = None if chi is None else chi[:, cols]
    split_offsets = offsets + (offsets > p)  # the slot holding p gains a segment
    ref = batch_populations(protocol, dtheta, chi, offsets, psi0)
    out = batch_populations(protocol, split, split_chi, split_offsets, psi0)
    assert np.max(np.abs(out - ref)) <= 1e-12


@PROPERTY_SETTINGS
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.floats(0.0, 4 * np.pi), st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n),
    st.permutations(range(n)))), states(2).map(lambda psi: np.append(psi, 0.0)))
def test_property_pifm_ignores_the_order_of_equal_magnitude_slots(slots, psi0):
    # Table 1's alternating-sign rows: from a state without |2>, the
    # measurement after every slot keeps only cos(theta/2) of its drive, so
    # permuting slot angles of one magnitude (amplitude axis) leaves every
    # pifm population unchanged
    theta, signs, order = slots
    dtheta = theta * np.array([signs])
    offsets = np.arange(dtheta.shape[1] + 1)
    ref = batch_populations("pifm", dtheta, None, offsets, psi0)
    out = batch_populations("pifm", dtheta[:, order], None, offsets, psi0)
    assert np.max(np.abs(out - ref)) <= 1e-12


@PROPERTY_SETTINGS
@given(protocol_cases(chi=False, real=True))
def test_property_real_path_matches_complex_path(case):
    protocol, (dtheta, _, offsets), psi0 = case
    real = batch_populations(protocol, dtheta, None, offsets, psi0)
    complex_ = batch_populations(protocol, dtheta, np.full_like(dtheta, AXIS), offsets, psi0)
    assert np.max(np.abs(real - complex_)) <= 1e-13
