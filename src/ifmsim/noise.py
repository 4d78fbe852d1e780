"""Noise generation and spectral estimation.

All generators are deterministic under a fixed seed: pass either an integer
seed or a numpy Generator.  The white, zero-sum, telegraph and colored
generators also take a batch shape (rows, n) in place of a count n, with
time on the last axis, and fill the rows in order.  gen_white and
gen_white_top draw one clipped-Gaussian law, centered at the midpoint and
at the top of the range.  gen_telegraph_slots is the one telegraph
generator: the sweeps hold its value over a slot, and the noise command
reads it as a trace with one sample per slot.  Amplitude series are in
rad/s (the instantaneous drive strength), phase series in radians.
estimate_psd is an unwindowed averaged periodogram.  The module writes no
files: the noise command writes the traces and spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ColorSpec",
    "COLOR_ALPHA",
    "estimate_acf",
    "estimate_psd",
    "fit_psd_slope",
    "gen_colored",
    "gen_telegraph_slots",
    "gen_white",
    "gen_white_top",
    "gen_zero_sum",
]

#: PSD scaling exponents by color name: S(f) proportional to f**(-alpha).
COLOR_ALPHA = {"purple": -2, "blue": -1, "white": 0, "pink": 1, "brown": 2}


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


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


def _clipped_normal(range_lo: float, range_hi: float, center: float, count, seed
                    ) -> np.ndarray:
    """Normal(center, span / 6) samples clipped to [range_lo, range_hi]."""
    shape = _shape(count)
    if range_lo > range_hi:
        raise ValueError("range_lo must not exceed range_hi")
    if min(shape) <= 0:
        raise ValueError("count must be positive")
    if range_lo == range_hi:
        return np.full(shape, range_lo)
    x = _rng(seed).normal(center, (range_hi - range_lo) / 6.0, shape)
    return np.clip(x, range_lo, range_hi)


def gen_white(range_lo: float, range_hi: float, count, seed) -> np.ndarray:
    """I.i.d. clipped-Gaussian samples over [range_lo, range_hi].

    The Gaussian is centered at the midpoint with sigma = span / 6, then
    clipped to the range, so about 0.3 percent of the mass piles up on the
    boundaries.  count is n or a batch shape (rows, n).
    """
    return _clipped_normal(range_lo, range_hi, 0.5 * (range_lo + range_hi), count, seed)


def gen_white_top(range_lo: float, range_hi: float, count, seed) -> np.ndarray:
    """Clipped Gaussian concentrated at the top of the range.

    Centered at range_hi with sigma = span / 6, clipped to the range: half
    the mass sits exactly at range_hi and the rest just below it.  This is
    the amplitude law the ensemble scenarios use, where the stated range is
    a maximum drive strength rather than a symmetric spread.  count is n or
    a batch shape (rows, n).
    """
    return _clipped_normal(range_lo, range_hi, range_hi, count, seed)


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


def gen_telegraph_slots(kappa: float, amplitude: float, n_slots,
                        slot_duration: float, seed) -> np.ndarray:
    """Telegraph values held constant within each slot (one sample per slot).

    This is the continuous-time process of value +-amplitude and Poisson
    switch rate kappa, sampled every slot_duration, exactly: a Poisson
    process has independent increments, so consecutive samples flip sign
    independently with probability (1 - exp(-2 kappa tau)) / 2, the chance
    of an odd number of switches within one slot duration tau.
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
    # kappa * slot_duration first: -2 kappa alone overflows at kappa near 1e308
    q = 0.5 * (1.0 - math.exp(-2.0 * (kappa * slot_duration)))
    first = np.where(u[..., 0] < 0.5, 1.0, -1.0)
    # the steps overwrite u: -1 where u < q, and u - q is never -0.0
    steps = np.copysign(1.0, np.subtract(u, q, out=u), out=u)
    steps[..., 0] = first
    np.cumprod(steps, axis=-1, out=steps)  # products of +-1 are exact
    steps *= amplitude
    return steps


def gen_colored(spec: ColorSpec, count, seed) -> np.ndarray:
    """Zero-mean, unit-variance noise with PSD proportional to f**(-alpha).

    White Gaussian samples are shaped in the frequency domain by
    |H(f)| = f**(-alpha/2), the DC bin is zeroed, and each series is scaled
    to unit sample variance.  count is n or a batch shape (rows, n), with n
    a power of two >= 64; the transform runs along the last axis.
    """
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


def estimate_psd(series: np.ndarray, sample_rate: float,
                 segment_count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Averaged-periodogram power spectral density (two-sided).

    The series is split into segment_count equal non-overlapping segments;
    each is Fourier transformed with no window and scaled so that
    sum(psd) * df recovers the series mean square.  Frequencies are
    returned in ascending order, negative to positive.
    """
    x = np.asarray(series, dtype=np.float64)
    if segment_count < 1 or x.size % segment_count:
        raise ValueError(
            f"series of length {x.size} cannot be split into {segment_count} equal segments"
        )
    n_seg = x.size // segment_count
    scale = 1.0 / sample_rate / n_seg  # the product sample_rate * n_seg can overflow
    acc = np.zeros(n_seg)
    for i in range(segment_count):
        acc += np.abs(np.fft.fft(x[i * n_seg:(i + 1) * n_seg])) ** 2
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
