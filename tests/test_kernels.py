import ast
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ifmsim import kernels
from ifmsim.noise import TelegraphSlots, gen_telegraph_slots
from ifmsim.protocols import PROTOCOLS, basis_state, batch_populations
from oracles import AXIS, beam_splitter, composed_pulse, pifm_measure_channel, pure_density


def random_batch(seed, r=40, slots=5, per_slot=3):
    rng = np.random.default_rng(seed)
    n_seg = slots * per_slot
    dtheta = rng.uniform(-2 * np.pi, 2 * np.pi, (r, n_seg))
    chi = rng.uniform(-np.pi, np.pi, (r, n_seg))
    offsets = np.arange(slots + 1, dtype=np.int64) * per_slot
    return dtheta, chi, offsets


def telegraph_batch(seed, r, n, column=None, value=None):
    """(batch, offsets): a TelegraphSlots batch of fair signs (q = 1/2) on
    one factor m_j per slot, and its one-segment-per-slot offsets.

    The factors hold 0 (with signed zeros down its column), 2 pi + 1, where
    sin(m / 2) < 0, a negative one in the last slot (n > 2), and value in
    the given column.
    """
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 4 * np.pi, n)
    m[0] = 0.0
    m[n // 2] = 2 * np.pi + 1.0
    if n > 2:
        m[-1] = -m[-1]
    if column is not None:
        m[column] = value
    return gen_telegraph_slots(1e3, m, (r, n), 1.0, rng), np.arange(n + 1)


@pytest.fixture
def block_calls(monkeypatch):
    """Counts the kernel calls that take the table path."""
    calls = []
    evolve_blocks = kernels._evolve_blocks

    def counted(*args):
        calls.append(args[0].shape)
        return evolve_blocks(*args)

    monkeypatch.setattr(kernels, "_evolve_blocks", counted)
    return calls


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
                          ([0], 0), ([0, 1.5, 3], 3)],
                         ids=["drops_tail", "drops_head", "decreases", "overruns", "no_slots",
                              "not_whole"])
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


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_dispatch_rejects_a_nan_initial_state(protocol):
    # abs(nan - 1) > tol is False, so the norm check must be written to fail on NaN
    psi0 = np.zeros(PROTOCOLS[protocol].levels)
    psi0[0] = np.nan
    with pytest.raises(ValueError, match=f"{protocol} initial state must have unit norm"):
        batch_populations(protocol, [[0.3, 0.2]], None, [0, 1, 2], psi0)


NON_FINITE = [("qubit", "dtheta", np.inf), ("pifm", "dtheta", np.nan), ("cifm", "chi", np.inf),
              ("cifm", "dtheta", np.inf)]


def non_finite_column_batch(value):
    """(dtheta, offsets): one +-m segment per slot and a column of +-value.

    An inf column is the factor of a telegraph batch, which takes the block
    tables; a NaN column is written into its expanded floats, which take the
    segment loop.
    """
    if value == np.inf:
        return telegraph_batch(14, 6, 12, column=9, value=value)
    batch, offsets = telegraph_batch(14, 6, 12)
    dtheta = np.asarray(batch)
    dtheta[:, 9] = np.copysign(value, dtheta[:, 9])
    return dtheta, offsets


@pytest.mark.parametrize("protocol, where, value", NON_FINITE)
def test_dispatch_names_the_first_non_finite_segment(protocol, where, value, block_calls):
    dtheta, chi, offsets = random_batch(14, r=6, slots=3, per_slot=2)
    bad = {"dtheta": dtheta, "chi": chi}[where]
    bad[4, 3] = value
    bad[5, 0] = value  # a later realization: not the first bad segment
    with pytest.raises(ValueError, match=f"{protocol} segments must be finite: "
                                         r"realization 4, segment 3 has"):
        batch_populations(protocol, dtheta, chi, offsets, basis_state(PROTOCOLS[protocol].levels, 0))
    if where == "dtheta":  # on the amplitude axis too
        with pytest.raises(ValueError, match="realization 4, segment 3 has dtheta"):
            batch_populations(protocol, dtheta, None, offsets,
                              basis_state(PROTOCOLS[protocol].levels, 0))
    if where == "dtheta" and protocol != "qubit":  # a column of them
        dtheta, offsets = non_finite_column_batch(value)
        with pytest.raises(ValueError, match="realization 0, segment 9 has dtheta"):
            batch_populations(protocol, dtheta, None, offsets, basis_state(3, 0))
        assert block_calls == ([(6, 12)] if value == np.inf else [])


@pytest.mark.parametrize("protocol, where, value", NON_FINITE)
def test_non_finite_segment_raises_without_a_numpy_warning(protocol, where, value, block_calls):
    # inf in cos/sin or exp makes numpy warn "invalid value encountered";
    # the ValueError naming the segment must be all the caller sees
    dtheta, chi, offsets = random_batch(15, r=3, slots=2, per_slot=2)
    {"dtheta": dtheta, "chi": chi}[where][1, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="realization 1, segment 2 has"):
            batch_populations(protocol, dtheta, chi, offsets,
                              basis_state(PROTOCOLS[protocol].levels, 0))
    # a column that is value in every row: an inf column has one magnitude,
    # so the kernel takes one cos and one sin of it, which must stay silent too
    dtheta, chi, offsets = random_batch(15, r=3, slots=2, per_slot=2)
    {"dtheta": dtheta, "chi": chi}[where][:, 2] = value
    for axes in (chi, None) if where == "dtheta" else (chi,):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="realization 0, segment 2 has"):
                batch_populations(protocol, dtheta, axes, offsets,
                                  basis_state(PROTOCOLS[protocol].levels, 0))
    # one segment per slot: an inf column sends the batch to the block
    # tables, whose cos and sin of inf must stay silent as well
    if where == "dtheta" and protocol != "qubit":
        dtheta, offsets = non_finite_column_batch(value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="realization 0, segment 9 has"):
                batch_populations(protocol, dtheta, None, offsets, basis_state(3, 0))
        assert block_calls == ([(6, 12)] if value == np.inf else [])


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_one_realization_runs_as_its_row_of_the_batch(protocol):
    # a batch of one takes other numpy loops than a wide batch, and numpy
    # rounds the complex product of a (1,) and a (1, 1) array differently
    # from the same product in other layouts; on the complex path its
    # populations must still be bit-identical to its row
    dtheta, chi, offsets = random_batch(15, r=9)
    psi0 = np.array([0.6, 0.8j, 0.0][:PROTOCOLS[protocol].levels])
    psi0 /= np.linalg.norm(psi0)
    whole = batch_populations(protocol, dtheta, chi, offsets, psi0)
    for i in range(dtheta.shape[0]):
        row = batch_populations(protocol, dtheta[i:i + 1], chi[i:i + 1], offsets, psi0)
        assert np.array_equal(row, whole[i:i + 1])


# ---------------------------------------------------------------------------
# columns of +-m: the block tables' first block takes cos(m) and +-sin(m)
# once per slot, and the segment loop gives a row the same populations
# whatever the other rows' magnitudes
# ---------------------------------------------------------------------------

def test_cos_is_even_and_sin_odd_to_the_bit():
    # the premise of the block tables' first block, which matches the loop's
    # per-element cos and sin bit for bit only through it: if a numpy or libm
    # update broke it, populations would shift silently instead of failing here
    rng = np.random.default_rng(0)
    spread = np.ldexp(rng.uniform(0.5, 1.0, 20_000), rng.integers(-1074, 1024, 20_000))
    x = np.concatenate((rng.uniform(-1e6, 1e6, 1_000_000), spread,
                        [0.0, np.pi, 2 * np.pi, np.finfo(np.float64).max]))
    cos, sin = np.cos(x), np.sin(x)
    assert np.array_equal(np.cos(-x), cos)
    assert np.array_equal(np.sin(-x), -sin)
    # a scalar call rounds as the same value's element of a wide array
    for i in rng.integers(0, x.size, 20_000):
        assert np.cos(x[i]) == cos[i] and np.sin(x[i]) == sin[i]


@pytest.mark.parametrize("axes", ["amplitude", "random"])
@pytest.mark.parametrize("magnitudes", ["one", "per_column"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_segment_loop_rows_do_not_depend_on_their_batch(protocol, magnitudes, axes):
    # one row of another magnitude, at the end or between rows of equal
    # magnitude, must not change the other rows by a bit; three segments per
    # slot keep the batch off the block tables, so on the amplitude axis this
    # is the float64 loop's row-independence test
    rng = np.random.default_rng(16)
    _, chi, offsets = random_batch(16, r=8, slots=4, per_slot=3)
    n_seg = int(offsets[-1])
    if magnitudes == "one":  # +-theta in every slot, as telegraph clustering
        m = np.full(n_seg, np.pi)
    else:  # one magnitude per column, as BinarySampledNoise in kappa mode
        m = rng.uniform(0.0, 4 * np.pi, n_seg)
        m[:2] = 0.0, 2 * np.pi + 1.0  # signed zeros; sin(m/2) < 0
    dtheta = rng.choice((-1.0, 1.0), (7, n_seg)) * m
    real = axes == "amplitude"  # the float64 path; random axes run in complex128
    psi0 = np.array([0.6, 0.8 if real else 0.8j, 0.0])[:PROTOCOLS[protocol].levels]
    for at in (7, 3):
        one = batch_populations(protocol, dtheta, None if real else np.delete(chi, at, axis=0),
                                offsets, psi0)
        mixed = batch_populations(protocol, np.insert(dtheta, at, 0.1, axis=0),
                                  None if real else chi, offsets, psi0)
        assert np.array_equal(one, np.delete(mixed, at, axis=0))
        alone = batch_populations(protocol, np.full((1, n_seg), 0.1),
                                  None if real else chi[at:at + 1], offsets, psi0)
        assert np.array_equal(mixed[at:at + 1], alone)


# ---------------------------------------------------------------------------
# block tables: batches whose every slot is one segment of angle +-m down its
# column, on the amplitude axis from a real state, advance eight slots per
# table lookup; the per-segment loop on an explicit axis is the reference
# ---------------------------------------------------------------------------

TABLE_STATES = {"ground": np.array([1.0, 0.0, 0.0]),
                "with_level_2": np.array([0.6, 0.48, -0.64])}


@pytest.mark.parametrize("state", sorted(TABLE_STATES))
@pytest.mark.parametrize("r", [1, 3, 2000])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 40])
@pytest.mark.parametrize("protocol", ["cifm", "pifm"])
def test_block_tables_match_the_segment_loop(protocol, n, r, state, block_calls):
    batch, offsets = telegraph_batch(n * 1000 + r, r, n)
    psi0 = TABLE_STATES[state]
    got = batch_populations(protocol, batch, None, offsets, psi0)
    assert block_calls == [(r, n)]
    dtheta = np.asarray(batch)
    ref = batch_populations(protocol, dtheta, np.full(dtheta.shape, AXIS), offsets, psi0)
    assert np.max(np.abs(got - ref)) <= 1e-13
    assert np.all(got >= 0.0)
    assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("state", sorted(TABLE_STATES))
@pytest.mark.parametrize("first", [0.0, -0.0, -2 * np.pi - 1.0], ids=["0", "-0", "negative"])
@pytest.mark.parametrize("n", [1, 7, 8])
@pytest.mark.parametrize("protocol", ["cifm", "pifm"])
def test_one_block_matches_the_float64_loop_bit_for_bit(protocol, n, first, state,
                                                        block_calls):
    # a batch of at most BLOCK slots reads its first table alone, which the
    # loop's own updates build from cos(h) and +-sin(h), h = factor / 2
    rng = np.random.default_rng(n)
    factor = rng.uniform(-4 * np.pi, 4 * np.pi, n)
    factor[:4] = (first, 0.0, -0.0, -1.5)[:n]
    batch = gen_telegraph_slots(1e3, factor, (300, n), 1.0, rng)
    offsets, psi0 = np.arange(n + 1), TABLE_STATES[state]
    got = batch_populations(protocol, batch, None, offsets, psi0)
    assert block_calls == [(300, n)]
    ref = batch_populations(protocol, np.asarray(batch), None, offsets, psi0)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", [1, 9, 40])
@pytest.mark.parametrize("protocol", ["cifm", "pifm"])
def test_block_tables_give_a_row_the_populations_of_its_batch(protocol, n, block_calls):
    # the (1, n) batch at the same seed is row 0 of the (2000, n) one
    batch, offsets = telegraph_batch(n, 2000, n)
    row, _ = telegraph_batch(n, 1, n)
    psi0 = TABLE_STATES["with_level_2"]
    wide = batch_populations(protocol, batch, None, offsets, psi0)
    alone = batch_populations(protocol, row, None, offsets, psi0)
    assert block_calls == [(2000, n), (1, n)]
    assert np.array_equal(wide[:1], alone)


@pytest.mark.parametrize("protocol", ["cifm", "pifm"])
def test_block_tables_are_built_per_call(protocol, monkeypatch):
    # a clustering batch drives theta in every slot: n = 40 is five equal
    # blocks of 8 and n = 20 two of 8 and one of 4, so a call builds one
    # and two tables; the same call again builds them again
    built = []
    tables = kernels._tables
    monkeypatch.setattr(kernels, "_tables",
                        lambda block, *rest: built.append(len(block)) or tables(block, *rest))
    for n, sizes in ((40, [8]), (20, [8, 4])):
        batch = gen_telegraph_slots(1e5, np.pi, (2000, n), 1e-5 / n, np.random.default_rng(n))
        for _ in range(2):
            built.clear()
            batch_populations(protocol, batch, None, np.arange(n + 1), TABLE_STATES["ground"])
            assert built == sizes


def bits(a):
    """a's float64 bit patterns, so that 0.0 and -0.0 compare unequal."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("n", [4, 8, 9, 40])
@pytest.mark.parametrize("protocol", ["cifm", "pifm"])
def test_slice_boundaries_keep_every_row_bit_for_bit(protocol, n, block_calls):
    # rows of more than one block advance in slices of _SLICE, and a batch
    # of one block (n = 4, as clustering's, and 8) is one gather, so a row's
    # bits must not depend on where the slices of its batch fall, or whether
    # it has any.  The rows repeat 16 sign patterns
    # in random order, so every row run alone is one of 16 one-row batches;
    # pifm starts with |2> amplitude, so it evolves every row
    S = kernels._SLICE
    patterns, offsets = telegraph_batch(n, 16, n)
    psi0 = TABLE_STATES["with_level_2"]
    alone = np.concatenate([
        batch_populations(protocol, TelegraphSlots((1, n), patterns.factor, patterns.signs[:, [k]]),
                          None, offsets, psi0)
        for k in range(16)])
    rng = np.random.default_rng(n)
    sizes = (1, S - 1, S, S + 1, 2 * S + 3)
    for r in sizes:
        which = rng.integers(16, size=r)
        batch = TelegraphSlots((r, n), patterns.factor, patterns.signs[:, which])
        got = batch_populations(protocol, batch, None, offsets, psi0)
        assert np.array_equal(bits(got), bits(alone[which]))
    assert block_calls == [(1, n)] * 16 + [(r, n) for r in sizes]


def test_block_scratch_does_not_grow_with_the_ensemble():
    # the scratch is sized by the slice, not the batch: from 16,384 to
    # 65,536 rows the peak grows by the result's 24 B/row alone, where a
    # scratch of every row (gather, click rows, np.take's int64 copy of the
    # index bytes) adds 96 B/row, 4.7 MB
    peaks = []
    for r in (16384, 65536):
        batch, offsets = telegraph_batch(40, r, 40)
        tracemalloc.start()
        try:
            kernels.cifm_populations(batch, None, offsets, np.pi / 41, TABLE_STATES["ground"])
            peaks.append(tracemalloc.get_traced_memory()[1] - 24 * r)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 1024


# ---------------------------------------------------------------------------
# pifm from an empty |2>: the measurement erases the drive's sign, so one row
# stands for the whole batch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b", [1, 5, 8])
def test_pifm_tables_are_bit_identical_across_sign_patterns(b):
    rng = np.random.default_rng(b)
    factor = rng.uniform(-4 * np.pi, 4 * np.pi, b)
    factor[:3] = (2 * np.pi + 1.0, 0.0, -0.0)[:b]  # sin(m / 2) < 0; signed zeros
    for phi in (np.pi / (b + 1), 0.3):
        for state, psi0 in TABLE_STATES.items():
            maps, first = kernels._tables(tuple(factor * 0.5), phi, True, psi0, 1 << b)
            assert maps.shape == (8, 1 << b)
            assert np.array_equal(bits(maps), bits(maps[:, :1]).repeat(1 << b, axis=1))
            if state == "ground":  # the state's columns too, when |2> starts empty
                assert np.array_equal(bits(first), bits(first[:, :1]).repeat(1 << b, axis=1))
            else:  # slot 0 turns psi0's |2> one way or the other
                assert np.unique(first, axis=1).shape[1] > 1
            # the one-row path builds the zero pattern alone: column 0, bit for bit
            zero_maps, zero_first = kernels._tables(tuple(factor * 0.5), phi, True, psi0, 1)
            assert np.array_equal(bits(zero_maps), bits(maps[:, :1]))
            assert np.array_equal(bits(zero_first), bits(first[:, :1]))


@pytest.mark.parametrize("level_2", [0.0, -0.0], ids=["0", "-0"])
@pytest.mark.parametrize("r", [1, 3, 2000])
@pytest.mark.parametrize("n", [1, 9, 40])
def test_pifm_from_an_empty_level_2_gives_every_row_the_one_row_batch(n, r, level_2,
                                                                       block_calls):
    # the (1, n) batch at the same seed is row 0, of the same factors; the
    # other rows hold other sign patterns
    batch, offsets = telegraph_batch(n, r, n)
    row, _ = telegraph_batch(n, 1, n)
    psi0 = np.array([1.0, 0.0, level_2])
    got = batch_populations("pifm", batch, None, offsets, psi0)
    alone = batch_populations("pifm", row, None, offsets, psi0)
    assert block_calls == [(r, n), (1, n)]
    assert got.shape == (r, 3)
    assert np.array_equal(bits(got), bits(alone).repeat(r, axis=0))
    if r > 1:  # one row, broadcast and read-only, not a copy
        assert got.strides[0] == 0 and not got.flags.writeable


@pytest.mark.parametrize("n", [9, 40])
def test_pifm_rows_from_a_level_2_amplitude_differ_by_sign_pattern(n, block_calls):
    batch, offsets = telegraph_batch(n, 2000, n, column=0, value=2.0)  # slot 0 driven
    got = batch_populations("pifm", batch, None, offsets, TABLE_STATES["with_level_2"])
    assert block_calls == [(2000, n)]
    assert got.flags.writeable
    # only the first slot sees psi0's |2>, so the rows split by its sign
    first_sign = (batch.signs[0] & 1).astype(bool)
    assert np.unique(got[first_sign], axis=0).shape[0] == 1
    assert np.unique(got[~first_sign], axis=0).shape[0] == 1
    assert not np.array_equal(got[first_sign][0], got[~first_sign][0])


@pytest.mark.parametrize("column", [0, 5, 11])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_pifm_one_row_names_a_non_finite_factor(value, column, block_calls):
    batch, offsets = telegraph_batch(14, 6, 12, column=column, value=value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"pifm segments must be finite: realization 0, "
                                             f"segment {column} has dtheta"):
            batch_populations("pifm", batch, None, offsets, TABLE_STATES["ground"])
    assert block_calls == [(6, 12)]


@pytest.mark.parametrize("case", ["two_segment_slot", "complex_state", "mixed_magnitudes",
                                  "equal_magnitude_floats"])
def test_batches_off_the_table_path_take_the_segment_loop(case, block_calls):
    # the block tables take telegraph batches only: a float array runs the
    # loop even where its magnitudes are equal down every column
    dtheta, offsets = telegraph_batch(0, 5, 9)
    psi0 = TABLE_STATES["ground"]
    if case == "two_segment_slot":
        offsets = np.delete(offsets, 3)
    elif case == "complex_state":
        psi0 = np.array([0.6, 0.8j, 0.0])
    elif case == "mixed_magnitudes":
        dtheta = np.asarray(dtheta)
        dtheta[2, 4] *= 0.5
    else:
        dtheta = np.asarray(dtheta)
    batch_populations("cifm", dtheta, None, offsets, psi0)
    assert block_calls == []


def test_kernels_call_no_blas():
    # a table build with @ and np.linalg.eigh raised clustering's peak RSS
    # from 39.02 to 40.30 MB: BLAS and LAPACK map their code and buffers on
    # first use; broadcasting builds the same tables within 0.25 MB
    tree = ast.parse(Path(kernels.__file__).read_text(encoding="utf-8"))
    banned = {"dot", "vdot", "matmul", "tensordot", "linalg"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.MatMult), f"@ at line {node.lineno}"
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        assert name not in banned, f"{name} at line {node.lineno}"
