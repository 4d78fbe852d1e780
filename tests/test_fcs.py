import math

import numpy as np
import pytest

from ifmsim import kernels
from ifmsim.experiments import (
    GFEstimate,
    fcs_estimate,
    moments_from_gf,
    poisson_generating_function,
)
from ifmsim.protocols import basis_state, batch_populations
from oracles import AXIS, event_counts, fcs_every_row, zero_freq_psd_check


def test_event_trains_extend_with_realizations():
    small = event_counts(3, 0, 4.0, 30, 40)
    large = event_counts(3, 0, 4.0, 80, 40)
    assert small.shape == (30, 40)
    assert np.array_equal(small, large[:30])
    # the zero-frequency check draws its trains under key 1, independent of key 0
    assert not np.array_equal(small, event_counts(3, 1, 4.0, 30, 40))


def test_gf_from_event_totals_matches_slot_resolved_trains():
    # fcs_estimate draws only the per-row totals; the slot-resolved trains of
    # the same keyed stream must give the same populations, slot by slot
    kappa, theta, total, r = 4e5, 0.5, 1e-5, 50
    lambdas = np.array([-1.0, 0.3, 2.0])
    gf = fcs_estimate(kappa, theta, total, lambdas, r, master_seed=5)
    counts = event_counts(5, 0, kappa * total, r, 40)
    chi = np.full(counts.shape, AXIS)
    for i, lam in enumerate(lambdas):
        pe_g = batch_populations("qubit", counts * theta * lam, chi, None, basis_state(2, 0))
        assert abs(gf.re[i] - (1.0 - 2.0 * pe_g[:, 1].mean())) < 1e-12


def test_gf_at_zero_attenuation_is_one():
    gf = fcs_estimate(kappa=4e5, theta=0.5, total_duration=1e-5,
                      lambda_values=[0.0], realizations=200, master_seed=1)
    assert abs(gf.re[0] - 1.0) < 1e-15
    assert abs(gf.im[0]) < 1e-15


def test_gf_matches_poisson_at_pi_point():
    # kappa T = 4 and lambda theta = pi: gf = exp(-8)
    kappa_t = 4.0
    total = 1e-5
    theta = np.pi / 2
    r = 10_000
    gf = fcs_estimate(kappa_t / total, theta, total, lambda_values=[2.0],
                      realizations=r, master_seed=7)
    expected = math.exp(kappa_t * (math.cos(np.pi) - 1.0))  # exp(-8), imaginary part 0
    assert abs(gf.re[0] - expected) < 4.0 / math.sqrt(r)
    assert abs(gf.im[0]) < 4.0 / math.sqrt(r)


def test_gf_matches_poisson_across_grid():
    kappa_t = 4.0
    total = 1e-5
    theta = np.pi / 4
    lambdas = np.linspace(-2.0, 2.0, 41)
    r = 10_000
    gf = fcs_estimate(kappa_t / total, theta, total, lambdas, r, master_seed=11)
    analytic = poisson_generating_function(kappa_t / total, total, theta, lambdas)
    err = np.maximum(gf.statistical_error, 1e-12)
    assert np.max(np.abs(gf.re - analytic.real) / err) < 3.0
    assert np.max(np.abs(gf.im - analytic.imag) / err) < 3.0


def test_slot_placement_does_not_matter_for_qubit():
    # same-axis pulses: the response depends only on the total angle
    rng = np.random.default_rng(3)
    n = 20
    counts = np.zeros(n)
    np.add.at(counts, rng.integers(0, n, 7), 1.0)
    theta = 0.37

    def marker(c):
        dtheta = c[np.newaxis, :] * theta
        return batch_populations("qubit", dtheta, np.full_like(dtheta, AXIS), None,
                                 basis_state(2, 0))[0, 1]

    base = marker(counts)
    for _ in range(10):
        shuffled = counts.copy()
        rng.shuffle(shuffled)
        assert abs(marker(shuffled) - base) < 1e-12


def test_moments_plane_wave():
    # gf of a deterministic angle a: exp(i lambda a)
    a = 0.8
    h = 0.01
    lam = np.array([-h, 0.0, h])
    vals = np.exp(1j * lam * a)
    gf = GFEstimate(lam, vals.real, vals.imag, np.zeros(3))
    assert abs(moments_from_gf(gf, 1) - a) < 1e-4  # O(h^2) truncation
    assert abs(moments_from_gf(gf, 2) - a * a) < 1e-3


def test_moments_poisson_mean_and_variance_ratio():
    kappa_t = 4.0
    total = 1e-5
    theta = 0.1
    h = 0.01
    gf = fcs_estimate(kappa_t / total, theta, total, np.array([-h, 0.0, h]),
                      realizations=10_000, master_seed=13)
    m1 = moments_from_gf(gf, 1)
    assert abs(m1 - kappa_t * theta) < 0.02  # analytic mean 0.4
    m2 = moments_from_gf(gf, 2)
    mean_m = m1 / theta
    var_m = (m2 - m1 * m1) / theta**2
    assert abs(var_m / mean_m - 1.0) < 0.10


def test_moments_require_symmetric_grid():
    gf = GFEstimate(np.array([0.0, 0.01]), np.ones(2), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        moments_from_gf(gf, 1)
    gf2 = GFEstimate(np.array([-0.02, 0.0, 0.01]), np.ones(3), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        moments_from_gf(gf2, 2)


def test_zero_freq_psd_trivial_when_drive_vanishes():
    report = zero_freq_psd_check(kappa=1e5, theta=0.0, total_duration=1e-5,
                                 realizations=200, master_seed=5)
    assert report.theta_t2_fcs == 0.0
    assert report.theta_t2_psd == 0.0
    assert report.agrees


def test_zero_freq_psd_agreement():
    report = zero_freq_psd_check(kappa=1e6, theta=0.05, total_duration=1e-5,
                                 realizations=10_000, master_seed=17)
    assert report.agrees
    assert abs(report.ratio - 1.0) <= 0.15


def test_zero_freq_psd_scales_linearly_with_duration():
    # Poisson: <theta_T^2> = kT t^2 + (kT t)^2, so the connected part doubles with T
    kappa, theta = 1e6, 0.05
    r1 = zero_freq_psd_check(kappa, theta, 1e-5, realizations=8000, master_seed=19)
    r2 = zero_freq_psd_check(kappa, theta, 2e-5, realizations=8000, master_seed=23)
    kt1, kt2 = kappa * 1e-5, kappa * 2e-5
    expected1 = kt1 * theta**2 + (kt1 * theta) ** 2
    expected2 = kt2 * theta**2 + (kt2 * theta) ** 2
    assert abs(r1.theta_t2_fcs - expected1) / expected1 < 0.1
    assert abs(r2.theta_t2_fcs - expected2) / expected2 < 0.1


def test_stderr_shrinks_with_realizations():
    kappa_t, total, theta = 4.0, 1e-5, np.pi / 4
    lam = np.array([0.9])
    small = fcs_estimate(kappa_t / total, theta, total, lam, 1000, master_seed=29)
    large = fcs_estimate(kappa_t / total, theta, total, lam, 4000, master_seed=29)
    ratio = large.statistical_error[0] / small.statistical_error[0]
    assert abs(ratio - 0.5) < 0.1  # 1/sqrt(R) scaling within 20 percent


@pytest.mark.parametrize("seed", [3, 20240905, 77])
@pytest.mark.parametrize("kappa_t, realizations", [
    (4.0, 10_000), (4.0, 1), (4.0, 2), (0.0, 500), (300.0, 2000),
], ids=["shipped", "one_realization", "two_realizations", "one_distinct_count",
        "many_distinct_counts"])
def test_distinct_counts_give_every_row_bit_for_bit(seed, kappa_t, realizations):
    # the gathered rows feed the mean and std in the order of the realizations,
    # so the estimate must not move in the last bit
    total, theta = 1e-5, 0.5
    lambdas = np.concatenate([np.linspace(-2.0, 2.0, 7), [-0.01, 0.01, 1e-300]])
    got = fcs_estimate(kappa_t / total, theta, total, lambdas, realizations, master_seed=seed)
    ref = fcs_every_row(kappa_t / total, theta, total, lambdas, realizations, master_seed=seed)
    assert np.array_equal(got.re, ref.re)
    assert np.array_equal(got.im, ref.im)
    assert np.array_equal(got.statistical_error, ref.statistical_error)


def test_kernel_runs_once_per_lambda_over_the_distinct_counts(monkeypatch):
    kappa_t, total, r, seed = 30.0, 1e-5, 3000, 11
    shapes = []
    qubit = kernels.qubit_populations

    def recording(dtheta, *rest):
        shapes.append(np.shape(dtheta))
        return qubit(dtheta, *rest)

    monkeypatch.setattr(kernels, "qubit_populations", recording)
    lambdas = np.linspace(-1.0, 1.0, 5)
    fcs_estimate(kappa_t / total, 0.5, total, lambdas, r, master_seed=seed)
    distinct = np.unique(event_counts(seed, 0, kappa_t, r, 1).sum(axis=1)).size
    assert 10 < distinct < r
    # one call per initial state, each over every (lambda, distinct count) row
    assert shapes == [(lambdas.size * distinct, 1)] * 2


@pytest.mark.parametrize("kappa", [-1.0, 1e30, math.nan], ids=["negative", "huge", "nan"])
def test_fcs_estimate_names_a_poisson_mean_numpy_cannot_draw(kappa):
    # numpy's own "lam < 0 or lam is NaN" and "lam value too large" used to surface
    with pytest.raises(ValueError, match=r"kappa \* total_duration"):
        fcs_estimate(kappa, 0.5, 1.0, [0.0], 10)


@pytest.mark.parametrize("realizations", [0, 2.5])
def test_fcs_estimate_names_a_realization_count_that_is_not_whole(realizations):
    with pytest.raises(ValueError, match="realizations"):
        fcs_estimate(4e5, 0.5, 1e-5, [0.0], realizations)
