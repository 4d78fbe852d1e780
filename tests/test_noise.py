import numpy as np
import pytest
from scipy import stats

from ifmsim.noise import (
    ColorSpec,
    NoiseTrace,
    ProtocolTiming,
    TelegraphSpec,
    estimate_acf,
    estimate_psd,
    fit_psd_slope,
    gen_colored,
    gen_telegraph,
    gen_telegraph_slots,
    gen_white,
    gen_white_top,
    gen_zero_sum,
    trace_to_segments,
)


# ---------------------------------------------------------------------------
# white / zero-sum generators
# ---------------------------------------------------------------------------

def test_white_degenerate_range_is_constant():
    assert np.array_equal(gen_white(0.0, 0.0, 10, 1), np.zeros(10))


def test_white_deterministic_under_seed():
    a = gen_white(0.0, np.pi, 1000, 42)
    b = gen_white(0.0, np.pi, 1000, 42)
    assert np.array_equal(a, b)


def test_white_sample_mean():
    n = 100_000
    x = gen_white(0.0, np.pi, n, 7)
    sigma = np.pi / 6
    # clipping is symmetric, so the mean stays at the midpoint
    assert abs(x.mean() - np.pi / 2) < 3 * sigma / np.sqrt(n)
    assert x.min() >= 0.0 and x.max() <= np.pi


def test_all_generators_bit_reproducible():
    spec = TelegraphSpec(kappa=1e4, amplitude=0.5, sample_rate=1e6)
    pairs = [
        (gen_white(-1.0, 1.0, 256, 9), gen_white(-1.0, 1.0, 256, 9)),
        (gen_white_top(0.0, 2.0, 256, 9), gen_white_top(0.0, 2.0, 256, 9)),
        (gen_zero_sum(np.pi, 33, 9), gen_zero_sum(np.pi, 33, 9)),
        (gen_telegraph(spec, 1e-3, 9), gen_telegraph(spec, 1e-3, 9)),
        (gen_telegraph_slots(1e4, 1.0, 64, 1e-5, 9), gen_telegraph_slots(1e4, 1.0, 64, 1e-5, 9)),
        (gen_colored(ColorSpec(2), 256, 9), gen_colored(ColorSpec(2), 256, 9)),
    ]
    for a, b in pairs:
        assert np.array_equal(a, b)


def test_white_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_white(1.0, 0.0, 10, 0)
    with pytest.raises(ValueError):
        gen_white(0.0, 1.0, 0, 0)


def test_white_top_concentrates_at_ceiling():
    x = gen_white_top(0.0, 1.0, 20_000, 3)
    assert x.min() >= 0.0 and x.max() <= 1.0
    assert np.mean(x == 1.0) > 0.4  # half the mass clips to the maximum
    assert x.mean() > 0.9


def test_zero_sum_forced_pair():
    x = gen_zero_sum(np.pi, 2, 5)
    assert abs(x[0] + x[1]) == 0.0
    assert abs(x[0]) <= np.pi


def test_zero_sum_sums_to_zero():
    for n in (2, 7, 50, 101):
        x = gen_zero_sum(np.pi, n, n)
        assert abs(x.sum()) < 1e-12
        assert np.max(np.abs(x)) <= np.pi


def test_zero_sum_magnitudes_follow_amplitude_law():
    # KS test of |theta_j| against the generator's own clipped-Gaussian CDF
    n = 4000
    x = np.abs(gen_zero_sum(np.pi, n, 11))
    x = x[x != 0.0]
    sigma = np.pi / 6

    def cdf(t):
        t = np.asarray(t, dtype=float)
        base = stats.norm.cdf(t, loc=np.pi, scale=sigma) - stats.norm.cdf(0.0, loc=np.pi, scale=sigma)
        out = np.where(t >= np.pi, 1.0, base)
        return np.clip(out, 0.0, 1.0)

    # the point mass at pi breaks a plain KS test; compare on the continuum part
    cont = x[x < np.pi]
    scale = cdf(np.pi - 1e-12)
    result = stats.kstest(cont, lambda t: cdf(t) / scale)
    assert result.pvalue > 0.001


# ---------------------------------------------------------------------------
# telegraph noise
# ---------------------------------------------------------------------------

def test_telegraph_constant_at_tiny_rate():
    spec = TelegraphSpec(kappa=1e-12, amplitude=1.0, sample_rate=1e4)
    x = gen_telegraph(spec, 1.0, 9)
    assert np.all(x == x[0])
    assert abs(x[0]) == 1.0


def test_telegraph_switch_count_matches_rate():
    kappa, duration = 200.0, 1.0
    spec = TelegraphSpec(kappa=kappa, amplitude=1.0, sample_rate=100 * kappa)
    counts = []
    for i in range(1000):
        x = gen_telegraph(spec, duration, [77, i])
        counts.append(int(np.sum(x[1:] != x[:-1])))
    mean = np.mean(counts)
    assert abs(mean - kappa * duration) < 3 * np.sqrt(kappa * duration)


def test_telegraph_switch_counts_are_poisson():
    kappa, duration = 50.0, 1.0
    spec = TelegraphSpec(kappa=kappa, amplitude=1.0, sample_rate=200 * kappa)
    counts = np.array([
        int(np.sum((x := gen_telegraph(spec, duration, [123, i]))[1:] != x[:-1]))
        for i in range(10_000)
    ])
    mu = kappa * duration
    kmax = int(stats.poisson.ppf(0.999, mu))
    edges = np.arange(0, kmax + 2)
    observed, _ = np.histogram(counts, bins=np.append(edges, np.inf))
    expected = stats.poisson.pmf(edges, mu) * counts.size
    expected[-1] += (1.0 - stats.poisson.cdf(kmax + 1, mu)) * counts.size
    keep = expected > 5
    chi2 = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
    p = stats.chi2.sf(chi2, keep.sum() - 1)
    assert p > 0.001


def test_telegraph_acf_is_exponential():
    kappa = 1e5
    rate = 2e6
    duration = 100e-6
    spec = TelegraphSpec(kappa=kappa, amplitude=1.0, sample_rate=rate)
    max_lag = int(3.0 / (2.0 * kappa) * rate)
    acc = np.zeros(max_lag + 1)
    n_traces = 4000
    for i in range(n_traces):
        acc += estimate_acf(gen_telegraph(spec, duration, [31, i]), max_lag)
    acf = acc / n_traces
    lags = np.arange(max_lag + 1) / rate
    expected = np.exp(-2.0 * kappa * lags)
    rel = np.abs(acf - expected) / expected
    assert rel.max() < 0.05


def test_telegraph_psd_is_lorentzian():
    kappa = 1e5
    # the sample rate must sit far above the fit band (f < 5 kappa) or the
    # discretely sampled chain's spectrum bends away from the Lorentzian
    rate = 2e7
    n = 4096
    duration = n / rate
    spec = TelegraphSpec(kappa=kappa, amplitude=1.0, sample_rate=rate)
    acc = None
    n_traces = 1500
    for i in range(n_traces):
        freqs, psd = estimate_psd(gen_telegraph(spec, duration, [57, i]), rate)
        acc = psd if acc is None else acc + psd
    psd_mean = acc / n_traces
    lorentz = kappa / (kappa**2 + np.pi**2 * freqs**2)
    band = (np.abs(freqs) < 5 * kappa) & (np.abs(freqs) > 0)
    rel = np.abs(psd_mean[band] - lorentz[band]) / lorentz[band]
    assert rel.max() < 0.10


def test_telegraph_slots_1d_call_is_row_0_of_batch():
    one = gen_telegraph_slots(3e4, 0.7, 40, 1e-5, 123)
    batch = gen_telegraph_slots(3e4, 0.7, (1, 40), 1e-5, 123)
    assert batch.shape == (1, 40)
    assert one.tobytes() == batch[0].tobytes()


def test_telegraph_slots_initial_sign_is_fair():
    rows = 20_000
    s = gen_telegraph_slots(10.0, 1.0, (rows, 3), 1e-5, 4)  # flips almost never
    assert abs(s[:, 0].mean()) < 4.0 / np.sqrt(rows)
    assert np.mean(s[:, 1:] != s[:, :-1]) < 1e-3


def test_telegraph_slots_markov_flip_probability():
    kappa, tau = 2e4, 1e-5
    q = 0.5 * (1.0 - np.exp(-2 * kappa * tau))
    flips = []
    for i in range(2000):
        s = gen_telegraph_slots(kappa, 1.0, 50, tau, [13, i])
        flips.append(np.mean(s[1:] != s[:-1]))
    assert abs(np.mean(flips) - q) < 5 * np.sqrt(q * (1 - q) / (2000 * 49))


# ---------------------------------------------------------------------------
# colored noise
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,target", [(0, 0.0), (1, -10.0), (2, -20.0), (-1, 10.0), (-2, 20.0)])
def test_colored_noise_slopes(alpha, target):
    n = 2**14
    acc = None
    for i in range(16):
        x = gen_colored(ColorSpec(alpha), n, [19, alpha + 3, i])
        freqs, psd = estimate_psd(x, 1.0)
        acc = psd if acc is None else acc + psd
    slope = fit_psd_slope(freqs, acc / 16)
    assert abs(slope - target) < 1.5


def test_colored_noise_normalization():
    x = gen_colored(ColorSpec(1), 4096, 3)
    assert abs(x.mean()) < 1e-10
    assert abs(x.var() - 1.0) < 0.01


def test_colored_noise_rejects_bad_count():
    with pytest.raises(ValueError):
        gen_colored(ColorSpec(1), 100, 0)
    with pytest.raises(ValueError):
        gen_colored(ColorSpec(1), 32, 0)
    with pytest.raises(ValueError):
        ColorSpec(3)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def test_acf_constant_series():
    acf = estimate_acf(np.full(100, 2.5), 10)
    assert np.allclose(acf, 6.25, atol=1e-12)


def test_acf_alternating_series():
    x = np.resize([1.0, -1.0], 100)
    acf = estimate_acf(x, 6)
    assert np.allclose(acf, [1, -1, 1, -1, 1, -1, 1], atol=1e-14)


def test_acf_zero_lag_is_mean_square():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    assert abs(estimate_acf(x, 0)[0] - np.mean(x**2)) < 1e-12


def test_acf_rejects_bad_args():
    with pytest.raises(ValueError):
        estimate_acf(np.array([]), 0)
    with pytest.raises(ValueError):
        estimate_acf(np.ones(5), 5)


def test_psd_sinusoid_peaks_at_frequency():
    rate = 1000.0
    t = np.arange(2048) / rate
    f0 = 125.0
    freqs, psd = estimate_psd(np.sin(2 * np.pi * f0 * t), rate)
    pos = freqs > 0
    peak = freqs[pos][np.argmax(psd[pos])]
    assert abs(peak - f0) <= rate / 2048


def test_psd_parseval_rectangular():
    rng = np.random.default_rng(6)
    x = rng.normal(size=4096)
    freqs, psd = estimate_psd(x, 10.0, segment_count=4)
    df = freqs[1] - freqs[0]
    assert abs(np.sum(psd) * df - np.mean(x**2)) / np.mean(x**2) < 0.02


def test_psd_white_is_flat():
    acc = None
    for i in range(16):
        x = np.random.default_rng(i).normal(size=2**13)
        freqs, psd = estimate_psd(x, 1.0)
        acc = psd if acc is None else acc + psd
    assert abs(fit_psd_slope(freqs, acc / 16)) < 1.5


def test_psd_rejects_bad_segmentation():
    with pytest.raises(ValueError):
        estimate_psd(np.ones(10), 1.0, segment_count=3)


# ---------------------------------------------------------------------------
# trace slicing
# ---------------------------------------------------------------------------

def test_schedule_constant_noise_collapses_to_single_angle():
    rate, tau_b, tau_bs, n = 5e6, 2e-7, 2e-8, 10
    timing = ProtocolTiming(n, tau_b, tau_bs)
    count = int(round(rate * timing.total_duration))
    zeta = np.full(count, 1.2e6)  # rad/s
    chi = np.full(count, 0.4)
    dtheta, _, offsets = trace_to_segments(NoiseTrace(rate, timing.total_duration, zeta, chi),
                                           timing)
    assert offsets.size == n + 1
    slot_angles = np.add.reduceat(dtheta[0], offsets[:-1])
    assert np.max(np.abs(slot_angles - 1.2e6 * tau_b)) < 1e-9


def test_schedule_one_sample_per_slot_regime():
    rate, tau_b, tau_bs, n = 5e6, 2e-7, 2e-8, 25
    timing = ProtocolTiming(n, tau_b, tau_bs)
    count = int(round(rate * timing.total_duration))
    rng = np.random.default_rng(2)
    trace = NoiseTrace(rate, timing.total_duration, rng.normal(size=count), rng.normal(size=count))
    _, _, offsets = trace_to_segments(trace, timing)
    assert np.array_equal(offsets, np.arange(n + 1))


def test_schedule_fast_sampling_regime():
    # 1e9 samples/s, 10 us over 40 slots: 250 samples per drive interval
    n = 40
    total = 1e-5
    timing = ProtocolTiming(n, total / n, 0.0)
    rate = 1e9
    count = int(round(rate * timing.total_duration))
    trace = NoiseTrace(rate, timing.total_duration, np.zeros(count), np.zeros(count))
    _, _, offsets = trace_to_segments(trace, timing)
    assert np.array_equal(offsets, np.arange(n + 1) * 250)


def test_schedule_discards_beam_splitter_samples():
    rate, tau_b, tau_bs, n = 1e8, 2e-7, 2e-8, 4
    timing = ProtocolTiming(n, tau_b, tau_bs)
    count = int(round(rate * timing.total_duration))
    trace = NoiseTrace(rate, timing.total_duration, np.ones(count), np.zeros(count))
    dtheta, chi, offsets = trace_to_segments(trace, timing)
    # 20 samples per interval survive out of 22 per (bs + drive) block
    assert dtheta.shape == chi.shape == (1, n * 20)
    assert np.array_equal(offsets, np.arange(n + 1) * 20)


def test_schedule_preserves_segment_values():
    rate, tau_b, n = 1e7, 2e-7, 6
    timing = ProtocolTiming(n, tau_b, 0.0)
    count = int(round(rate * timing.total_duration))
    rng = np.random.default_rng(8)
    zeta = rng.normal(size=count)
    chi = rng.normal(size=count)
    dtheta, chis, offsets = trace_to_segments(NoiseTrace(rate, timing.total_duration, zeta, chi),
                                              timing)
    assert offsets[-1] == n * 2
    assert np.allclose(dtheta, zeta[: n * 2] / rate)
    assert np.allclose(chis, chi[: n * 2])


def test_schedule_rejects_short_trace():
    timing = ProtocolTiming(10, 2e-7, 2e-8)
    with pytest.raises(ValueError):
        trace_to_segments(NoiseTrace(5e6, 1e-6, np.zeros(5), np.zeros(5)), timing)


def test_schedule_rejects_empty_interval():
    timing = ProtocolTiming(4, 2e-7, 2e-8)
    rate = 1e6  # one sample per 1 us: drive intervals of 200 ns are skipped
    count = int(round(rate * timing.total_duration))
    with pytest.raises(ValueError):
        trace_to_segments(
            NoiseTrace(rate, timing.total_duration, np.zeros(count), np.zeros(count)), timing
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["zeta", "chi"])
def test_trace_rejects_non_finite_samples(which, bad):
    series = {"zeta": np.zeros(5), "chi": np.zeros(5)}
    series[which][2] = bad
    with pytest.raises(ValueError, match="finite"):
        NoiseTrace(5e6, 1e-6, **series)


def test_timing_warns_on_slow_beam_splitters():
    with pytest.warns(UserWarning):
        ProtocolTiming(4, 1e-7, 5e-8)
