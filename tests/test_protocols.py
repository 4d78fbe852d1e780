import numpy as np
import pytest

from ifmsim.noise import gen_zero_sum
from ifmsim.protocols import PROTOCOLS, DimensionMismatchError, basis_state, batch_populations
from oracles import AXIS, lumped_pulse_amplitudes, pifm_pi_train_p0


def slot_run(protocol, thetas, phis=None, psi0=None):
    """Final populations of one realization with one segment per slot."""
    dtheta = np.atleast_2d(np.asarray(thetas, dtype=float))
    chi = np.full_like(dtheta, AXIS) if phis is None else np.atleast_2d(np.asarray(phis, float))
    if psi0 is None:
        psi0 = basis_state(PROTOCOLS[protocol].levels, 0)
    return batch_populations(protocol, dtheta, chi, np.arange(dtheta.shape[1] + 1), psi0)[0]


def marker(protocol, thetas, phis=None):
    return slot_run(protocol, thetas, phis)[PROTOCOLS[protocol].marker]


# ---------------------------------------------------------------------------
# qubit detector
# ---------------------------------------------------------------------------

def test_qubit_zero_noise():
    assert marker("qubit", [0.0, 0.0, 0.0]) == 0.0


def test_qubit_pi_pulse_excites():
    p_e = marker("qubit", [np.pi])
    assert abs(p_e - 1.0) < 1e-12
    assert abs(0.5 * (1 - np.cos(np.pi)) - p_e) < 1e-12


def test_qubit_same_axis_depends_only_on_angle_sum():
    rng = np.random.default_rng(4)
    for _ in range(20):
        thetas = rng.uniform(-2, 2, 8)
        expected = 0.5 * (1.0 - np.cos(thetas.sum()))
        assert abs(marker("qubit", thetas) - expected) < 1e-10


def test_qubit_zero_sum_schedule_blind():
    thetas = gen_zero_sum(np.pi, 40, 123)
    assert marker("qubit", thetas) < 1e-10


def test_qubit_initial_superposition():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    p_e = slot_run("qubit", [0.7], psi0=plus)[1]
    assert abs(p_e - 0.5 * (1 + np.sin(0.7))) < 1e-12


# ---------------------------------------------------------------------------
# coherent qutrit detector
# ---------------------------------------------------------------------------

def test_cifm_zero_noise_ends_in_level1():
    pops = slot_run("cifm", [0.0] * 6)
    assert pops[0] < 1e-12
    assert abs(pops[1] - 1.0) < 1e-12


def test_cifm_transparent_to_4pi_pulses():
    pops = slot_run("cifm", [4 * np.pi] * 4)
    assert pops[0] < 1e-12
    assert abs(pops[1] - 1.0) < 1e-12


def test_cifm_two_pulse_configuration():
    assert abs(marker("cifm", [np.pi, np.pi, 0.0, 0.0]) - 0.611) < 1e-3


def test_cifm_reproduces_lumped_closed_form():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        slot = int(rng.integers(1, n))
        theta = rng.uniform(0, 2 * np.pi)
        thetas = np.zeros(n)
        thetas[slot - 1] = n * theta
        c = lumped_pulse_amplitudes(n, slot, theta)
        expected = np.array([x * x for x in c])
        assert np.max(np.abs(slot_run("cifm", thetas) - expected)) < 1e-10


def test_cifm_sensitive_to_axis_angles():
    rng = np.random.default_rng(2)
    base = marker("cifm", [np.pi / 2] * 4)
    deviations = [
        abs(marker("cifm", [np.pi / 2] * 4, rng.uniform(-np.pi, np.pi, 4)) - base)
        for _ in range(100)
    ]
    assert max(deviations) > 1e-6


def test_cifm_reversal_symmetry():
    pairs = [
        ((np.pi, np.pi, 0, 0), (0, 0, np.pi, np.pi)),
        ((np.pi, 0, np.pi, 0), (0, np.pi, 0, np.pi)),
        ((np.pi, np.pi, -np.pi, -np.pi), (-np.pi, -np.pi, np.pi, np.pi)),
        ((np.pi, -np.pi, np.pi, -np.pi), (-np.pi, np.pi, -np.pi, np.pi)),
        ((np.pi, -np.pi, -np.pi, np.pi), (-np.pi, np.pi, np.pi, -np.pi)),
    ]
    for forward, reverse in pairs:
        assert abs(marker("cifm", forward) - marker("cifm", reverse)) < 1e-12


def test_cifm_permutation_sensitivity():
    assert abs(marker("cifm", (0, np.pi, np.pi, 0)) - 0.937) < 1e-3
    assert abs(marker("cifm", (np.pi, 0, 0, np.pi)) - 0.393) < 1e-3


# ---------------------------------------------------------------------------
# projective qutrit detector
# ---------------------------------------------------------------------------

def test_pifm_zero_noise():
    pops = slot_run("pifm", [0.0] * 5)
    assert pops[0] < 1e-12
    assert abs(pops[1] - 1.0) < 1e-12
    assert pops[2] < 1e-12


def test_pifm_pi_train_matches_closed_form():
    for n in range(1, 41):
        assert abs(marker("pifm", [np.pi] * n) - pifm_pi_train_p0(n)) < 1e-10


def test_pifm_two_pulse_configurations():
    assert abs(marker("pifm", [np.pi, np.pi, 0, 0]) - 0.283) < 1e-3
    assert abs(marker("pifm", [0, np.pi, np.pi, 0]) - 0.387) < 1e-3


def test_pifm_insensitive_to_axis_angles():
    rng = np.random.default_rng(8)
    thetas = [np.pi / 2] * 4
    base = marker("pifm", thetas)
    for _ in range(100):
        phis = rng.uniform(-np.pi, np.pi, 4)
        assert abs(marker("pifm", thetas, phis) - base) < 1e-12


def test_pifm_alternating_sign_matches_pi_train():
    # the projective detector sees only |theta| per slot
    p0 = marker("pifm", [np.pi, -np.pi, np.pi, -np.pi])
    assert abs(p0 - pifm_pi_train_p0(4)) < 1e-12


def test_pifm_populations_sum_to_one():
    rng = np.random.default_rng(14)
    for _ in range(20):
        thetas = rng.uniform(-2 * np.pi, 2 * np.pi, 6)
        assert abs(slot_run("pifm", thetas).sum() - 1.0) < 1e-10


def test_initial_state_shape_is_checked():
    with pytest.raises(DimensionMismatchError):
        slot_run("qubit", [0.1], psi0=basis_state(3, 0))
    with pytest.raises(DimensionMismatchError):
        slot_run("cifm", [0.1], psi0=basis_state(2, 0))
    with pytest.raises(DimensionMismatchError):
        slot_run("pifm", [0.1], psi0=np.eye(3, dtype=complex))


def test_multi_segment_schedule_matches_composed_slots():
    # two same-axis segments per slot behave like their summed angle
    thetas = np.array([0.9, 1.7, 2.4])
    split = np.repeat(thetas / 2, 2)[np.newaxis, :]
    for protocol, (levels, index) in PROTOCOLS.items():
        split_run = batch_populations(protocol, split, np.full_like(split, AXIS),
                                      np.arange(0, 7, 2), basis_state(levels, 0))[0]
        assert abs(split_run[index] - marker(protocol, thetas)) < 1e-12
