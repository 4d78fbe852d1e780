"""Self-tests of the dense oracles in oracles.py."""

import math

import numpy as np
import pytest

from ifmsim.protocols import basis_state
from oracles import (
    AXIS,
    beam_splitter,
    composed_pulse,
    is_unitary,
    lumped_pulse_amplitudes,
    n2_alternating_state,
    pifm_measure_channel,
    pifm_pi_train_p0,
    pure_density,
    qubit_b_pulse,
    qutrit_b_pulse,
)


def matrix_product_state(n_slots, thetas, phis):
    """Independent oracle: explicit matrix-product evolution from |0>."""
    s = beam_splitter(n_slots)
    psi = basis_state(3, 0)
    psi = s @ psi
    for theta, phi in zip(thetas, phis):
        psi = s @ (qutrit_b_pulse(theta, phi) @ psi)
    return psi


# ---------------------------------------------------------------------------
# beam splitter
# ---------------------------------------------------------------------------

def test_beam_splitter_n1_splits_evenly():
    # hand evaluation of the 2x2 block at phi = pi/2
    s = beam_splitter(1)
    out = s @ basis_state(3, 0)
    assert abs(out[0] - math.cos(np.pi / 4)) < 1e-15
    assert abs(out[1] - math.sin(np.pi / 4)) < 1e-15


def test_beam_splitter_leaves_level2_invariant():
    for n in (1, 2, 5, 40):
        out = beam_splitter(n) @ basis_state(3, 2)
        assert np.allclose(out, basis_state(3, 2))


def test_beam_splitter_n2_matrix():
    s = beam_splitter(2)
    expected = np.array(
        [[np.sqrt(3) / 2, -0.5, 0], [0.5, np.sqrt(3) / 2, 0], [0, 0, 1]], dtype=complex
    )
    assert np.max(np.abs(s - expected)) < 1e-12


def test_beam_splitter_spec_invariants():
    # the n + 1 beam splitters of a noise-free run compose to a full 0-1 inversion
    for n in (1, 4, 17):
        out = np.linalg.matrix_power(beam_splitter(n), n + 1) @ basis_state(3, 0)
        assert np.max(np.abs(out - basis_state(3, 1))) < 1e-12


# ---------------------------------------------------------------------------
# drive pulses
# ---------------------------------------------------------------------------

def test_qubit_pulse_trivial_angles():
    assert np.allclose(qubit_b_pulse(0.0, 0.3), np.eye(2))
    assert np.allclose(qubit_b_pulse(2 * np.pi, 1.1), -np.eye(2), atol=1e-12)


def test_qubit_pi_pulse_inverts():
    out = qubit_b_pulse(np.pi, AXIS) @ basis_state(2, 0)
    assert abs(abs(out[1]) ** 2 - 1.0) < 1e-12


def test_qutrit_pulse_block_structure():
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta, phi = rng.uniform(-6, 6), rng.uniform(-np.pi, np.pi)
        u = qutrit_b_pulse(theta, phi)
        assert np.allclose(u @ basis_state(3, 0), basis_state(3, 0))
        assert np.allclose(u[1:, 1:], qubit_b_pulse(theta, phi))


def test_qutrit_transparency_at_4pi():
    assert np.max(np.abs(qutrit_b_pulse(4 * np.pi, 0.7) - np.eye(3))) < 1e-12
    # 2 pi only flips the sign of the active block
    u = qutrit_b_pulse(2 * np.pi, 0.7)
    expected = np.diag([1.0, -1.0, -1.0]).astype(complex)
    assert np.max(np.abs(u - expected)) < 1e-12


def test_pulse_period_4pi_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        theta, phi = rng.uniform(-8, 8), rng.uniform(-np.pi, np.pi)
        diff = qutrit_b_pulse(theta + 4 * np.pi, phi) - qutrit_b_pulse(theta, phi)
        assert np.max(np.abs(diff)) < 1e-12


def test_returned_operators_are_unitary():
    rng = np.random.default_rng(23)
    for _ in range(50):
        assert is_unitary(qubit_b_pulse(rng.uniform(-9, 9), rng.uniform(-4, 4)))
        assert is_unitary(qutrit_b_pulse(rng.uniform(-9, 9), rng.uniform(-4, 4)))
        assert is_unitary(beam_splitter(int(rng.integers(1, 60))))
    assert not is_unitary(np.ones((3, 3)))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_composed_single_segment():
    assert np.allclose(composed_pulse([0.8], [0.2], 3), qutrit_b_pulse(0.8, 0.2))


def test_composed_same_axis_adds_angles():
    u = composed_pulse([0.45, 0.45], [1.2, 1.2], 3)
    assert np.max(np.abs(u - qutrit_b_pulse(0.9, 1.2))) < 1e-12


def test_composed_same_axis_random():
    rng = np.random.default_rng(29)
    for _ in range(30):
        k = int(rng.integers(2, 9))
        dthetas = rng.uniform(-1, 1, k)
        chi = rng.uniform(-np.pi, np.pi)
        u = composed_pulse(dthetas, np.full(k, chi), 3)
        assert np.max(np.abs(u - qutrit_b_pulse(dthetas.sum(), chi))) < 1e-12


def test_composed_noncommuting_axes_matches_literal_product():
    u = composed_pulse([np.pi, np.pi], [0.0, np.pi / 2], 3)
    expected = qutrit_b_pulse(np.pi, np.pi / 2) @ qutrit_b_pulse(np.pi, 0.0)
    assert np.max(np.abs(u - expected)) < 1e-14
    # and differs from any single same-axis pulse of the summed angle
    assert np.max(np.abs(u - qutrit_b_pulse(2 * np.pi, 0.0))) > 0.1


def test_composed_qubit_dim():
    u = composed_pulse([0.3, -0.7, 1.1], [0.1, 0.1, 0.1], 2)
    assert np.max(np.abs(u - qubit_b_pulse(0.7, 0.1))) < 1e-12


# ---------------------------------------------------------------------------
# measurement channel
# ---------------------------------------------------------------------------

def test_channel_leaves_diagonal_untouched():
    rho = np.diag([0.2, 0.5, 0.3]).astype(complex)
    assert np.array_equal(pifm_measure_channel(rho), rho)


def test_channel_erases_12_coherence():
    plus = (basis_state(3, 1) + basis_state(3, 2)) / np.sqrt(2)
    out = pifm_measure_channel(pure_density(plus))
    assert np.max(np.abs(out - np.diag([0.0, 0.5, 0.5]))) < 1e-15


def test_channel_idempotent_and_exact_zeros():
    rng = np.random.default_rng(31)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    out = pifm_measure_channel(pure_density(psi))
    for idx in ((0, 2), (1, 2), (2, 0), (2, 1)):
        assert out[idx] == 0.0
    assert np.array_equal(pifm_measure_channel(out), out)
    assert abs(np.trace(out) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# closed forms against the matrix-product oracle
# ---------------------------------------------------------------------------

def test_lumped_amplitudes_trivial_theta():
    c0, c1, c2 = lumped_pulse_amplitudes(5, 2, 0.0)
    assert (c0, c1, c2) == (0.0, 1.0, 0.0)


def test_lumped_amplitudes_large_n_misses_strong_pulse():
    # fixed total angle and fixed slot, growing slot count: the detector
    # sees nothing even though the single pulse is very strong
    total = 3 * np.pi
    c0, c1, c2 = lumped_pulse_amplitudes(200, 3, total / 200)
    assert abs(c0) < 0.05 and abs(c2) < 0.05 and c1 > 0.99


def test_lumped_amplitudes_match_matrix_product():
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 41))
        slot = int(rng.integers(1, n))
        theta = rng.uniform(0, 2 * np.pi)
        c = np.array(lumped_pulse_amplitudes(n, slot, theta), dtype=complex)
        thetas = np.zeros(n)
        thetas[slot - 1] = n * theta
        psi = matrix_product_state(n, thetas, np.full(n, AXIS))
        worst = max(worst, float(np.max(np.abs(psi - c))))
    assert worst < 1e-10


def test_lumped_slot_bounds():
    with pytest.raises(ValueError):
        lumped_pulse_amplitudes(4, 0, 0.3)
    with pytest.raises(ValueError):
        lumped_pulse_amplitudes(4, 4, 0.3)


def test_alternating_pair_state_trivial():
    out = n2_alternating_state(0.0)
    assert np.allclose(out, [0, 1, 0], atol=1e-15)


def test_alternating_pair_state_matches_matrix_product():
    for theta in np.linspace(0.0, np.pi, 41):
        closed = n2_alternating_state(theta)
        psi = matrix_product_state(2, [theta, -theta], [AXIS, AXIS])
        assert np.max(np.abs(psi - closed)) < 1e-10


def test_alternating_pair_ground_amplitude_is_second_order():
    # leading term (sqrt(3)-1)/16 * theta^2, found by expanding the closed form
    theta = 1e-2
    a0 = float(np.real(n2_alternating_state(theta)[0]))
    lead = (np.sqrt(3.0) - 1.0) / 16.0 * theta**2
    assert abs(a0 - lead) < theta**3
    assert a0 != 0.0


def test_pi_train_closed_form_values():
    assert abs(pifm_pi_train_p0(1) - 0.25) < 1e-15
    assert abs(pifm_pi_train_p0(4) - 0.605429049713) < 1e-12
    # monotone increasing toward 1
    values = [pifm_pi_train_p0(n) for n in range(1, 60)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert pifm_pi_train_p0(4000) > 0.999
