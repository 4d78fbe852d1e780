"""Noise generation, trace slicing, and spectral estimation.

All generators are deterministic under a fixed seed: pass either an integer
seed or a numpy Generator.  The white, zero-sum, slot-telegraph and colored
generators also take a batch shape (rows, n) in place of a count n, with
time on the last axis, and fill the rows in order.  Amplitude series are in rad/s (the instantaneous
drive strength), phase series in radians.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ColorSpec",
    "NoiseTrace",
    "ProtocolTiming",
    "TelegraphSpec",
    "COLOR_ALPHA",
    "estimate_acf",
    "estimate_psd",
    "fit_psd_slope",
    "gen_colored",
    "gen_telegraph",
    "gen_telegraph_slots",
    "gen_white",
    "gen_white_top",
    "gen_zero_sum",
    "interval_sample_slices",
    "psd_to_csv",
    "trace_to_csv",
    "trace_to_segments",
]

#: PSD scaling exponents by color name: S(f) proportional to f**(-alpha).
COLOR_ALPHA = {"purple": -2, "blue": -1, "white": 0, "pink": 1, "brown": 2}


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


@dataclass(frozen=True)
class NoiseTrace:
    """Uniformly sampled amplitude and phase noise series.

    zeta is the amplitude noise in rad/s, chi the phase noise in radians;
    sample p covers the time slab [p, p+1) / sample_rate.  Every sample
    must be finite.
    """

    sample_rate: float
    duration: float
    zeta: np.ndarray
    chi: np.ndarray

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        n = int(round(self.sample_rate * self.duration))
        zeta = np.asarray(self.zeta, dtype=np.float64)
        chi = np.asarray(self.chi, dtype=np.float64)
        if zeta.shape != (n,) or chi.shape != (n,):
            raise ValueError(
                f"series length must equal round(sample_rate * duration) = {n}, "
                f"got zeta {zeta.shape}, chi {chi.shape}"
            )
        if not (np.all(np.isfinite(zeta)) and np.all(np.isfinite(chi))):
            raise ValueError("trace samples must be finite")
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "chi", chi)

    @property
    def n_samples(self) -> int:
        return self.zeta.size


@dataclass(frozen=True)
class ProtocolTiming:
    """Slot layout of one protocol run: n_slots drive intervals of tau_b,
    separated (and flanked) by beam-splitter windows of tau_bs."""

    n_slots: int
    tau_b: float
    tau_bs: float = 0.0

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if self.tau_b <= 0:
            raise ValueError("tau_b must be positive")
        if self.tau_bs < 0:
            raise ValueError("tau_bs must be >= 0")
        if self.tau_bs > self.tau_b / 5.0:
            warnings.warn(
                f"tau_bs = {self.tau_bs:g} is not small against tau_b = {self.tau_b:g}; "
                "the instantaneous beam-splitter approximation degrades",
                stacklevel=2,
            )

    @property
    def total_duration(self) -> float:
        """Full sequence duration (n_slots + 1) * (tau_b + tau_bs)."""
        return (self.n_slots + 1) * (self.tau_b + self.tau_bs)

    def slot_start(self, j: int) -> float:
        """Start time of drive interval j (1-based)."""
        return j * self.tau_bs + (j - 1) * self.tau_b


@dataclass(frozen=True)
class TelegraphSpec:
    """Two-level switching noise: value +-amplitude, Poisson switch rate kappa."""

    kappa: float
    amplitude: float
    sample_rate: float

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


@dataclass(frozen=True)
class ColorSpec:
    """Spectral exponent: PSD proportional to f**(-alpha), alpha in {-2..2}."""

    alpha: int

    def __post_init__(self) -> None:
        if self.alpha not in (-2, -1, 0, 1, 2):
            raise ValueError(f"unsupported spectral exponent {self.alpha}")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _shape(count) -> tuple[int, ...]:
    """A sample count n, or a batch shape (rows, n) with time on the last axis."""
    return (int(count),) if np.ndim(count) == 0 else tuple(int(c) for c in count)


def gen_white(range_lo: float, range_hi: float, count, seed) -> np.ndarray:
    """I.i.d. clipped-Gaussian samples over [range_lo, range_hi].

    The Gaussian is centered at the midpoint with sigma = span / 6, then
    clipped to the range, so about 0.3 percent of the mass piles up on the
    boundaries.  count is n or a batch shape (rows, n).
    """
    shape = _shape(count)
    if range_lo > range_hi:
        raise ValueError("range_lo must not exceed range_hi")
    if min(shape) <= 0:
        raise ValueError("count must be positive")
    if range_lo == range_hi:
        return np.full(shape, range_lo)
    mid = 0.5 * (range_lo + range_hi)
    sigma = (range_hi - range_lo) / 6.0
    x = _rng(seed).normal(mid, sigma, shape)
    return np.clip(x, range_lo, range_hi)


def gen_white_top(range_lo: float, range_hi: float, count, seed) -> np.ndarray:
    """Clipped Gaussian concentrated at the top of the range.

    Centered at range_hi with sigma = span / 6, clipped to the range: half
    the mass sits exactly at range_hi and the rest just below it.  This is
    the amplitude law the ensemble scenarios use, where the stated range is
    a maximum drive strength rather than a symmetric spread.  count is n or
    a batch shape (rows, n).
    """
    shape = _shape(count)
    if range_lo > range_hi:
        raise ValueError("range_lo must not exceed range_hi")
    if min(shape) <= 0:
        raise ValueError("count must be positive")
    if range_lo == range_hi:
        return np.full(shape, range_lo)
    sigma = (range_hi - range_lo) / 6.0
    x = _rng(seed).normal(range_hi, sigma, shape)
    return np.clip(x, range_lo, range_hi)


def gen_zero_sum(theta_max: float, count, seed) -> np.ndarray:
    """Per-slot angles with an exactly vanishing sum along the last axis.

    Magnitudes are drawn from the amplitude law on [0, theta_max], negated
    pairwise, and shuffled into random positions; for odd n one zero is
    inserted.  The sum cancels pairwise, so it is zero to within a few ulp
    regardless of summation order.  count is n or a batch shape (rows, n);
    magnitudes and shuffles come from two child streams of the seed, each
    filled row by row, so a batch with more rows extends one with fewer.
    """
    shape = _shape(count)
    n = shape[-1]
    if n < 2:
        raise ValueError("count must be >= 2")
    mag_rng, shuffle_rng = _rng(seed).spawn(2)
    mags = gen_white_top(0.0, theta_max, shape[:-1] + (n // 2,), mag_rng)
    values = np.concatenate([mags, -mags, np.zeros(shape[:-1] + (n % 2,))], axis=-1)
    return shuffle_rng.permuted(values, axis=-1)


def gen_telegraph(spec: TelegraphSpec, duration: float, seed) -> np.ndarray:
    """Sampled random telegraph series: +-amplitude, Poisson switching.

    Switch times are a rate-kappa Poisson process in continuous time; the
    value is sampled onto the uniform grid t_p = p / sample_rate.  The
    initial sign is equiprobable.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = _rng(seed)
    n = int(round(spec.sample_rate * duration))
    n_switches = rng.poisson(spec.kappa * duration)
    # given the count, Poisson event times are uniform order statistics
    times = np.sort(rng.uniform(0.0, duration, n_switches))
    tgrid = np.arange(n) / spec.sample_rate
    parity = np.searchsorted(times, tgrid, side="right") % 2
    s0 = 1.0 if rng.random() < 0.5 else -1.0
    return s0 * spec.amplitude * (1.0 - 2.0 * parity)


def gen_telegraph_slots(kappa: float, amplitude: float, n_slots,
                        slot_duration: float, seed) -> np.ndarray:
    """Telegraph values held constant within each slot (one sample per slot).

    Equivalent to sampling the continuous-time process at the slot starts:
    consecutive slots flip sign with probability (1 - exp(-2 kappa tau)) / 2,
    the chance of an odd number of switches within one slot duration.
    n_slots is n or a batch shape (rows, n).  One uniform block of that
    shape is drawn: column 0 sets the equiprobable initial sign and the
    other columns the flips, so a 1-D call equals row 0 of a (1, n) call.
    """
    if kappa <= 0 or slot_duration <= 0:
        raise ValueError("kappa and slot_duration must be positive")
    shape = _shape(n_slots)
    if min(shape) < 1:
        raise ValueError("n_slots must be >= 1")
    u = _rng(seed).random(shape)
    q = 0.5 * (1.0 - math.exp(-2.0 * kappa * slot_duration))
    steps = np.where(u < q, -1.0, 1.0)
    steps[..., 0] = np.where(u[..., 0] < 0.5, 1.0, -1.0)
    return amplitude * np.cumprod(steps, axis=-1)


def gen_colored(spec: ColorSpec | int, count, seed) -> np.ndarray:
    """Zero-mean, unit-variance noise with PSD proportional to f**(-alpha).

    White Gaussian samples are shaped in the frequency domain by
    |H(f)| = f**(-alpha/2), the DC bin is zeroed, and each series is scaled
    to unit sample variance.  count is n or a batch shape (rows, n), with n
    a power of two >= 64; the transform runs along the last axis.
    """
    if not isinstance(spec, ColorSpec):
        spec = ColorSpec(spec)
    shape = _shape(count)
    n = shape[-1]
    if n < 64 or n & (n - 1):
        raise ValueError(f"count must be a power of two >= 64, got {n}")
    white = _rng(seed).standard_normal(shape)
    spectrum = np.fft.rfft(white, axis=-1)
    k = np.arange(1, spectrum.shape[-1], dtype=np.float64)
    spectrum[..., 1:] *= k ** (-spec.alpha / 2.0)
    spectrum[..., 0] = 0.0
    x = np.fft.irfft(spectrum, n=n, axis=-1)
    return x / x.std(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def estimate_acf(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Time-average autocorrelation R[k] for lags k = 0 .. max_lag.

    R[k] = mean of x[t] * x[t+k] over the overlapping window (per-lag
    normalization, no mean subtraction), so R[0] is the series mean square
    and a constant series c gives R[k] = c*c at every lag.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        raise ValueError("series is empty")
    if not 0 <= max_lag < x.size:
        raise ValueError(f"max_lag must lie in [0, {x.size - 1}], got {max_lag}")
    out = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        out[k] = np.dot(x[: x.size - k], x[k:]) / (x.size - k)
    return out


def estimate_psd(series: np.ndarray, sample_rate: float, window: str = "rectangular",
                 segment_count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Averaged-periodogram power spectral density (two-sided).

    The series is split into segment_count equal non-overlapping segments;
    each is windowed, Fourier transformed, and scaled so that
    sum(psd) * df recovers the series mean square for the rectangular
    window.  Frequencies are returned in ascending order, negative to
    positive.
    """
    x = np.asarray(series, dtype=np.float64)
    if segment_count < 1 or x.size % segment_count:
        raise ValueError(
            f"series of length {x.size} cannot be split into {segment_count} equal segments"
        )
    n_seg = x.size // segment_count
    if window == "rectangular":
        w = np.ones(n_seg)
    elif window == "hann":
        w = np.hanning(n_seg)
    else:
        raise ValueError(f"unknown window {window!r}")
    scale = 1.0 / (sample_rate * np.sum(w**2))
    acc = np.zeros(n_seg)
    for i in range(segment_count):
        seg = x[i * n_seg:(i + 1) * n_seg] * w
        acc += np.abs(np.fft.fft(seg)) ** 2
    psd = np.fft.fftshift(acc * scale / segment_count)
    freqs = np.fft.fftshift(np.fft.fftfreq(n_seg, d=1.0 / sample_rate))
    return freqs, psd


def fit_psd_slope(freqs: np.ndarray, psd: np.ndarray) -> float:
    """Least-squares spectral slope in dB per decade over the central decade.

    Fits 10*log10(psd) against log10(f) on positive frequencies, excluding
    the DC and Nyquist bins, restricted to one decade centered (in log
    frequency) on the span midpoint.
    """
    pos = freqs > 0
    f = freqs[pos][:-1]  # drop Nyquist
    p = psd[pos][:-1]
    if f.size < 8:
        raise ValueError("not enough positive-frequency bins for a slope fit")
    logf = np.log10(f)
    mid = 0.5 * (logf[0] + logf[-1])
    sel = (logf >= mid - 0.5) & (logf <= mid + 0.5)
    if sel.sum() < 8:
        raise ValueError("central decade holds too few bins for a slope fit")
    slope, _ = np.polyfit(logf[sel], 10.0 * np.log10(p[sel]), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# trace slicing
# ---------------------------------------------------------------------------

def interval_sample_slices(timing: ProtocolTiming, sample_rate: float) -> list[tuple[int, int]]:
    """Index ranges [lo, hi) of the trace samples inside each drive interval.

    Sample p represents time p / sample_rate.  Samples falling inside
    beam-splitter windows are excluded; a small epsilon guards the float
    boundary arithmetic.
    """
    eps = 1e-9
    slices = []
    for j in range(1, timing.n_slots + 1):
        start = timing.slot_start(j)
        lo = int(math.ceil(start * sample_rate - eps))
        hi = int(math.ceil((start + timing.tau_b) * sample_rate - eps))
        slices.append((lo, hi))
    return slices


def trace_to_segments(trace: NoiseTrace, timing: ProtocolTiming
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slice a noise trace into a one-realization segment batch.

    Each trace sample p inside drive interval j becomes one segment with
    delta_theta = zeta[p] / sample_rate and axis chi[p]; samples inside
    beam-splitter windows are discarded.  Returns (dtheta, chi, offsets):
    dtheta and chi of shape (1, segments), and the slot boundaries, as
    protocols.batch_populations takes them.
    """
    if trace.duration < timing.total_duration - 1e-12:
        raise ValueError(
            f"trace of duration {trace.duration:g} is shorter than the "
            f"protocol duration {timing.total_duration:g}"
        )
    slices = interval_sample_slices(timing, trace.sample_rate)
    for j, (lo, hi) in enumerate(slices, start=1):
        if hi <= lo or hi > trace.n_samples:
            raise ValueError(f"drive interval {j} contains no trace samples")
    keep = np.concatenate([np.arange(lo, hi) for lo, hi in slices])
    offsets = np.zeros(len(slices) + 1, dtype=np.int64)
    np.cumsum([hi - lo for lo, hi in slices], out=offsets[1:])
    return (trace.zeta[keep][np.newaxis, :] / trace.sample_rate,
            trace.chi[keep][np.newaxis, :], offsets)


# ---------------------------------------------------------------------------
# csv export
# ---------------------------------------------------------------------------

def trace_to_csv(trace: NoiseTrace, path, which: str = "zeta") -> None:
    """Write one trace component as (time_s, value) rows."""
    series = trace.zeta if which == "zeta" else trace.chi
    t = np.arange(trace.n_samples) / trace.sample_rate
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time_s,value\n")
        for ti, vi in zip(t, series):
            fh.write(f"{ti:.17g},{vi:.17g}\n")


def psd_to_csv(freqs: np.ndarray, psd: np.ndarray, path) -> None:
    """Write a spectrum as (freq_hz, psd_db) rows, skipping empty bins."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("freq_hz,psd_db\n")
        for f, p in zip(freqs, psd):
            if p > 0:
                fh.write(f"{f:.17g},{10.0 * math.log10(p):.17g}\n")
