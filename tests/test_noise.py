import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ifmsim import noise
from ifmsim.noise import (
    ColorSpec,
    estimate_acf,
    estimate_psd,
    fit_psd_slope,
    gen_colored,
    gen_telegraph_slots,
    gen_white,
    gen_white_top,
    gen_zero_sum,
)
from oracles import (
    NoiseTrace,
    family_wise_k,
    float_telegraph_slots,
    packed_signs,
    telegraph_periodogram,
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
    pairs = [
        (gen_white(-1.0, 1.0, 256, 9), gen_white(-1.0, 1.0, 256, 9)),
        (gen_white_top(0.0, 2.0, 256, 9), gen_white_top(0.0, 2.0, 256, 9)),
        (gen_zero_sum(np.pi, 33, 9), gen_zero_sum(np.pi, 33, 9)),
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
    x = np.asarray(gen_telegraph_slots(1e-12, 1.0, 10_000, 1e-4, 9))
    assert np.all(x == x[0])
    assert abs(x[0]) == 1.0


def test_telegraph_switch_count_matches_rate():
    # each of the n - 1 steps changes sign with probability q, so a trace's
    # count is Binomial(n - 1, q); the mean of the 1000 counts is held to
    # that law's mean within k standard errors of a mean, not of one count
    kappa, duration = 200.0, 1.0
    rate = 100 * kappa
    n = int(round(rate * duration))
    q = 0.5 * (1.0 - np.exp(-2.0 * kappa / rate))
    counts = []
    for i in range(1000):
        x = np.asarray(gen_telegraph_slots(kappa, 1.0, n, 1.0 / rate, [77, i]))
        counts.append(int(np.sum(x[1:] != x[:-1])))
    se = np.sqrt((n - 1) * q * (1.0 - q) / len(counts))
    assert abs(np.mean(counts) - (n - 1) * q) <= family_wise_k(1e-3, 1) * se


def test_telegraph_switch_counts_are_poisson():
    # Poisson switches seen on a grid of step 1 / rate: a step shows a sign
    # change when it holds an odd number of switches, probability q, so the
    # count is Binomial(n - 1, q), which tends to Poisson(kappa T) as the
    # step shrinks.  At 200 samples per switch time its mean is 49.75, not
    # 50, which 10,000 traces resolve; so the check takes the exact law
    kappa, duration = 50.0, 1.0
    rate = 200 * kappa
    n = int(round(rate * duration))
    q = 0.5 * (1.0 - np.exp(-2.0 * kappa / rate))
    traces = (np.asarray(gen_telegraph_slots(kappa, 1.0, n, 1.0 / rate, [123, i]))
              for i in range(10_000))
    counts = np.array([int(np.sum(x[1:] != x[:-1])) for x in traces])
    law = stats.binom(n - 1, q)
    kmax = int(law.ppf(0.999))
    edges = np.arange(0, kmax + 2)
    observed, _ = np.histogram(counts, bins=np.append(edges, np.inf))
    expected = law.pmf(edges) * counts.size
    expected[-1] += law.sf(kmax + 1) * counts.size
    keep = expected > 5
    chi2 = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
    p = stats.chi2.sf(chi2, keep.sum() - 1)
    assert p > 0.001


def test_telegraph_acf_is_exponential():
    # every lag within k standard errors of e^(-2 kappa lag), with k set by
    # a family-wise false-alarm rate of 1e-3 over the lags beyond 0 and the
    # standard errors taken from the traces' own spread
    kappa = 1e5
    rate = 2e6
    n = int(round(100e-6 * rate))
    max_lag = int(3.0 / (2.0 * kappa) * rate)
    n_traces = 4000
    acfs = np.array([estimate_acf(gen_telegraph_slots(kappa, 1.0, n, 1.0 / rate, [31, i]),
                                  max_lag) for i in range(n_traces)])
    acf = acfs.mean(axis=0)
    se = acfs.std(axis=0, ddof=1) / np.sqrt(n_traces)
    expected = np.exp(-2.0 * kappa * np.arange(max_lag + 1) / rate)
    assert acf[0] == 1.0
    z = np.abs(acf[1:] - expected[1:]) / se[1:]
    assert z.max() <= family_wise_k(1e-3, max_lag)


def test_telegraph_psd_is_lorentzian():
    # every bin of the band |f| < 5 kappa within k standard errors of the
    # chain's exact expected periodogram, which is the sampled Lorentzian
    # kappa / (kappa^2 + pi^2 f^2); k is set by a family-wise false-alarm
    # rate of 1e-3 over the band's bins
    kappa = 1e5
    rate = 2e7
    n = 4096
    expected = telegraph_periodogram(kappa, rate, n)
    n_traces = 1500
    rows = []
    for i in range(n_traces):
        freqs, psd = estimate_psd(gen_telegraph_slots(kappa, 1.0, n, 1.0 / rate, [57, i]), rate)
        band = (np.abs(freqs) < 5 * kappa) & (np.abs(freqs) > 0)
        rows.append(psd[band])
    rows = np.array(rows)
    se = rows.std(axis=0, ddof=1) / np.sqrt(n_traces)
    z = np.abs(rows.mean(axis=0) - expected[band]) / se
    assert z.max() <= family_wise_k(1e-3, int(band.sum()))
    # the grid's aliasing and the finite record move the exact law up to
    # 2.6 percent off the continuous-time Lorentzian across the band
    lorentz = kappa / (kappa**2 + np.pi**2 * freqs[band] ** 2)
    assert np.max(np.abs(expected[band] / lorentz - 1.0)) < 0.03


@pytest.mark.parametrize("n, kappa, rate", [(16, 3.0, 10.0), (33, 0.5, 2.0)])
def test_telegraph_periodogram_is_the_dense_double_sum(n, kappa, rate):
    # E|X_j|^2 = sum_t sum_s rho^|t - s| e^(-2 pi i j (t - s) / n), term by term
    t = np.arange(n)
    cov = np.exp(-2.0 * kappa / rate) ** np.abs(t[:, None] - t[None, :])
    dft = np.exp(-2j * np.pi * np.outer(t, t) / n)
    dense = np.einsum("jt,ts,js->j", dft, cov, dft.conj()).real / (rate * n)
    assert np.allclose(telegraph_periodogram(kappa, rate, n), np.fft.fftshift(dense),
                       rtol=1e-12, atol=0.0)


def test_telegraph_slots_1d_call_is_row_0_of_batch():
    one = np.asarray(gen_telegraph_slots(3e4, 0.7, 40, 1e-5, 123))
    batch = np.asarray(gen_telegraph_slots(3e4, 0.7, (1, 40), 1e-5, 123))
    assert batch.shape == (1, 40)
    assert one.tobytes() == batch[0].tobytes()


def test_telegraph_slots_initial_sign_is_fair():
    rows = 20_000
    s = np.asarray(gen_telegraph_slots(10.0, 1.0, (rows, 3), 1e-5, 4))  # flips almost never
    assert abs(s[:, 0].mean()) < 4.0 / np.sqrt(rows)
    assert np.mean(s[:, 1:] != s[:, :-1]) < 1e-3


def test_telegraph_slots_markov_flip_probability():
    kappa, tau = 2e4, 1e-5
    q = 0.5 * (1.0 - np.exp(-2 * kappa * tau))
    flips = []
    for i in range(2000):
        s = np.asarray(gen_telegraph_slots(kappa, 1.0, 50, tau, [13, i]))
        flips.append(np.mean(s[1:] != s[:-1]))
    assert abs(np.mean(flips) - q) < 5 * np.sqrt(q * (1 - q) / (2000 * 49))


#: slot counts of the telegraph bit tests: one, partial and whole bytes
SLOT_COUNTS = (1, 7, 8, 9, 17, 40)
#: kappa * tau of the telegraph bit tests: q near 0, q = 0.3 and q = 1/2 exactly
KAPPA_TAU = {"q_near_0": 1e-7, "q_0.3": -0.5 * np.log(0.4), "q_half": 1e3}


@pytest.mark.parametrize("q", sorted(KAPPA_TAU))
@pytest.mark.parametrize("amplitude", [np.pi, -0.7, 0.0, -0.0], ids=["pi", "-0.7", "0", "-0"])
@pytest.mark.parametrize("shape", [*SLOT_COUNTS, *((300, n) for n in SLOT_COUNTS)], ids=str)
def test_telegraph_bits_are_the_float_rule(shape, amplitude, q):
    # the packed sign bits expand to the floats that copysign and cumprod
    # make from the same draw, signed zeros included, and are the packed
    # bits of value < 0 at unit amplitude
    tau = 1e-6
    kappa = KAPPA_TAU[q] / tau
    batch = gen_telegraph_slots(kappa, amplitude, shape, tau, 29)
    ref = float_telegraph_slots(kappa, amplitude, shape, tau, 29)
    values = np.asarray(batch)
    assert values.shape == ref.shape == batch.shape and values.dtype == np.float64
    assert np.array_equal(values, ref) and values.tobytes() == ref.tobytes()
    unit = float_telegraph_slots(kappa, 1.0, shape, tau, 29)
    assert np.array_equal(batch.signs, packed_signs(unit))
    assert len(batch) == len(ref) and batch.size == ref.size
    n = ref.shape[-1]
    if n % 8:
        assert not np.any(batch.signs[-1] >> n % 8)  # the padding bits read 0
    if np.ndim(shape) and n > 8 and n % 8:
        # a row whose last full block ends on a negative sign carries odd
        # parity into the partial block
        unit = np.asarray(gen_telegraph_slots(kappa, 1.0, shape, tau, 29))
        assert np.any(unit[:, 8 * (n // 8) - 1] < 0)


@pytest.mark.parametrize("rows", [None, 1, 3, 257], ids=["1d", "1", "3", "257"])
@pytest.mark.parametrize("n", [*range(1, 18), 40, 64])
def test_telegraph_sign_bytes_are_packbits_of_the_signs(n, rows):
    # the word multiply packs 8 flips a byte: every slot count up to 17,
    # whole bytes (8, 16, 40, 64) and one-row batches give np.packbits'
    # bytes, block-major and C-contiguous
    shape = n if rows is None else (rows, n)
    batch = gen_telegraph_slots(2.3e5, 1.0, shape, 1e-6, [n, 5])
    unit = float_telegraph_slots(2.3e5, 1.0, shape, 1e-6, [n, 5])
    expected = packed_signs(unit)
    assert batch.signs.dtype == np.uint8 and batch.signs.flags.c_contiguous
    assert batch.signs.shape == expected.shape == (-(-n // 8), rows or 1)
    assert batch.signs.tobytes() == np.ascontiguousarray(expected).tobytes()


#: rows per generator of the stacked-draw tests: one row, and either side of
#: one and two slices
STACKED_ROWS = (1, noise._SLICE - 1, noise._SLICE, noise._SLICE + 1, 2 * noise._SLICE + 3)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 40, 64])
@pytest.mark.parametrize("rows", STACKED_ROWS)
def test_stacked_draw_is_each_generators_own_draw(rows, n):
    # one call over three generators at three rates holds each one's rows in
    # turn, the sign bits of its one-shot uniform draw: slicing neither moves
    # a generator's stream nor lets a slice's rates, flips or carries leak
    # into the next generator's rows
    tau = 1e-6
    rates = [KAPPA_TAU[q] / tau for q in sorted(KAPPA_TAU)]
    amplitude = np.linspace(-2.0, 3.0, n)
    seeds = [[rows, n, j] for j in range(3)]
    batch = gen_telegraph_slots(rates, amplitude, (rows, n), tau,
                                tuple(np.random.default_rng(s) for s in seeds))
    assert batch.shape == (3 * rows, n) and len(batch) == 3 * rows
    assert batch.signs.shape == (-(-n // 8), 3 * rows) and batch.signs.flags.c_contiguous
    values = np.asarray(batch)
    for j, (rate, seed) in enumerate(zip(rates, seeds)):
        own = gen_telegraph_slots(rate, amplitude, (rows, n), tau, seed)
        part = batch.signs[:, j * rows:(j + 1) * rows]
        assert np.array_equal(part, own.signs)
        assert np.array_equal(part, packed_signs(float_telegraph_slots(rate, 1.0, (rows, n),
                                                                       tau, seed)))
        ref = float_telegraph_slots(rate, amplitude, (rows, n), tau, seed)
        assert values[j * rows:(j + 1) * rows].tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [[5, 3], (5, 3), 5, [np.random.default_rng(5)]],
                         ids=["int_list", "int_tuple", "int", "one_generator"])
def test_a_sequence_of_rates_takes_one_generator_per_rate(seed):
    # a list of ints is one seed of one rate, never a stack of generators
    with pytest.raises(ValueError, match="one per rate"):
        gen_telegraph_slots([1e5, 2e5], 1.0, (3, 9), 1e-6, seed)
    with pytest.raises(ValueError, match="one per rate"):
        gen_telegraph_slots([[1e5, 2e5]], 1.0, (3, 9), 1e-6, [np.random.default_rng(5)] * 2)
    with pytest.raises(ValueError, match="kappa and slot_duration must be positive"):
        gen_telegraph_slots([1e5, np.nan], 1.0, (3, 9), 1e-6, [np.random.default_rng(5)] * 2)


def test_telegraph_scratch_does_not_grow_with_the_ensemble():
    # the uniforms, flips and packed words are held a slice at a time: from
    # 16,384 to 65,536 rows at n = 40 the peak grows by the packed signs'
    # 5 B/row alone, where a float block of every row adds 320 B/row, 15 MB
    peaks = []
    for r in (16384, 65536):
        rngs = tuple(np.random.default_rng(j) for j in range(4))
        tracemalloc.start()
        try:
            gen_telegraph_slots([1e5, 2e5, 3e5, 4e5], 1.0, (r // 4, 40), 1e-6, rngs)
            peaks.append(tracemalloc.get_traced_memory()[1] - 5 * r)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * 1024


def test_telegraph_amplitude_takes_one_value_per_slot():
    amplitude = np.array([0.5, -2.0, 0.0, -0.0, 3.0])
    batch = gen_telegraph_slots(2e5, amplitude, (40, 5), 1e-6, 8)
    ref = float_telegraph_slots(2e5, amplitude, (40, 5), 1e-6, 8)
    assert np.asarray(batch).tobytes() == ref.tobytes()
    unit = float_telegraph_slots(2e5, 1.0, (40, 5), 1e-6, 8)
    assert np.array_equal(batch.signs, packed_signs(unit))
    with pytest.raises(ValueError, match="one number or one per slot"):
        gen_telegraph_slots(2e5, amplitude[:4], (40, 5), 1e-6, 8)


def test_telegraph_slots_flip_probability_at_an_extreme_rate():
    # kappa * tau = 1 with kappa = 1e308: -2 kappa alone would overflow to
    # -inf and make every step a fair coin
    s = np.asarray(gen_telegraph_slots(1e308, 1.0, (2000, 50), 1e-308, 3))
    q = 0.5 * (1.0 - np.exp(-2.0))
    assert abs(np.mean(s[:, 1:] != s[:, :-1]) - q) < 5 * np.sqrt(q * (1 - q) / (2000 * 49))


@pytest.mark.parametrize("kappa, slot_duration",
                         [(np.nan, 1.0), (1.0, np.nan), (0.0, 1.0), (1.0, -1.0)],
                         ids=["nan_kappa", "nan_duration", "zero_kappa", "negative_duration"])
def test_telegraph_slots_reject_a_rate_or_duration_that_is_not_positive(kappa, slot_duration):
    # NaN fails every comparison: a check of kappa <= 0 alone let it through
    # and returned rows without a single sign switch
    with pytest.raises(ValueError, match="kappa and slot_duration must be positive"):
        gen_telegraph_slots(kappa, 1.0, (3, 16), slot_duration, 0)


def test_telegraph_slots_take_an_infinite_rate_as_fair_signs():
    # kappa = inf gives q = 1/2: every slot's sign is a fair coin
    s = np.asarray(gen_telegraph_slots(np.inf, 1.0, (2000, 50), 1e-6, 4))
    assert abs(np.mean(s[:, 1:] != s[:, :-1]) - 0.5) < 5 * np.sqrt(0.25 / (2000 * 49))


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


@pytest.mark.parametrize("alpha", [5, 1.5])
def test_colored_noise_replace_checks_the_exponent(alpha):
    with pytest.raises(ValueError, match=f"unsupported spectral exponent {alpha}"):
        gen_colored(ColorSpec(1)._replace(alpha=alpha), 64, 0)
    with pytest.raises(ValueError, match=f"unsupported spectral exponent {alpha}"):
        ColorSpec._make([alpha])
    assert ColorSpec(1)._replace(alpha=-2) == ColorSpec(-2)


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
    rate, tau_b, n = 5e6, 2e-7, 10
    total = n * tau_b
    count = int(round(rate * total))
    zeta = np.full(count, 1.2e6)  # rad/s
    chi = np.full(count, 0.4)
    dtheta, _, offsets = trace_to_segments(NoiseTrace(rate, total, zeta, chi), n, total)
    assert offsets.size == n + 1
    slot_angles = np.add.reduceat(dtheta[0], offsets[:-1])
    assert np.max(np.abs(slot_angles - 1.2e6 * tau_b)) < 1e-9


def test_schedule_one_sample_per_slot_regime():
    rate, tau_b, n = 5e6, 2e-7, 25
    total = n * tau_b
    count = int(round(rate * total))
    rng = np.random.default_rng(2)
    trace = NoiseTrace(rate, total, rng.normal(size=count), rng.normal(size=count))
    _, _, offsets = trace_to_segments(trace, n, total)
    assert np.array_equal(offsets, np.arange(n + 1))


def test_schedule_fast_sampling_regime():
    # 1e9 samples/s, 10 us over 40 slots: 250 samples per drive interval
    n = 40
    total = 1e-5
    rate = 1e9
    count = int(round(rate * total))
    trace = NoiseTrace(rate, total, np.zeros(count), np.zeros(count))
    _, _, offsets = trace_to_segments(trace, n, total)
    assert np.array_equal(offsets, np.arange(n + 1) * 250)


def test_schedule_preserves_segment_values():
    rate, tau_b, n = 1e7, 2e-7, 6
    total = n * tau_b
    count = int(round(rate * total))
    rng = np.random.default_rng(8)
    zeta = rng.normal(size=count)
    chi = rng.normal(size=count)
    dtheta, chis, offsets = trace_to_segments(NoiseTrace(rate, total, zeta, chi), n, total)
    assert offsets[-1] == n * 2
    assert np.allclose(dtheta, zeta[: n * 2] / rate)
    assert np.allclose(chis, chi[: n * 2])


def test_schedule_rejects_short_trace():
    with pytest.raises(ValueError):
        trace_to_segments(NoiseTrace(5e6, 1e-6, np.zeros(5), np.zeros(5)), 10, 2e-6)


def test_schedule_rejects_empty_interval():
    n, total = 4, 8e-7
    rate = 1e6  # one sample per 1 us: slots of 200 ns are skipped
    count = int(round(rate * total))
    with pytest.raises(ValueError):
        trace_to_segments(NoiseTrace(rate, total, np.zeros(count), np.zeros(count)), n, total)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["zeta", "chi"])
def test_trace_rejects_non_finite_samples(which, bad):
    series = {"zeta": np.zeros(5), "chi": np.zeros(5)}
    series[which][2] = bad
    with pytest.raises(ValueError, match="finite"):
        NoiseTrace(5e6, 1e-6, **series)
