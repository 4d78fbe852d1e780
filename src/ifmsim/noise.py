"""Noise generation and spectral estimation.

All generators are deterministic under a fixed seed: pass either an integer
seed or a numpy Generator.  The white, zero-sum, telegraph and colored
generators also take a batch shape (rows, n) in place of a count n, with
time on the last axis, and fill the rows in order.  gen_white and
gen_white_top draw one clipped-Gaussian law, centered at the midpoint and
at the top of the range.  gen_telegraph_slots is the one telegraph
generator: the sweeps hold its value over a slot, and the noise command
reads it as a trace with one sample per slot.  It returns a TelegraphSlots
batch, which stores the signs as packed bits and one factor per slot;
np.asarray expands it to the float64 values, and the kernels' block tables
read its bits as they are.  Given a rate and a generator per point, it
draws the points' rows stacked in one batch, in row slices of a reused
uniform block, so its scratch does not grow with the batch.  The other
generators return arrays.
This module owns the bit layout: BLOCK slots to a byte.  Amplitude series
are in rad/s (the instantaneous drive strength), phase series in radians.
estimate_psd is an unwindowed averaged periodogram.  The module writes no
files: the noise command writes the traces and spectra.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "BLOCK",
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
    "TelegraphSlots",
]

#: PSD scaling exponents by color name: S(f) proportional to f**(-alpha).
COLOR_ALPHA = {"purple": -2, "blue": -1, "white": 0, "pink": 1, "brown": 2}


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


class _ColorFields(NamedTuple):
    alpha: int


class ColorSpec(_ColorFields):
    """Spectral exponent: PSD proportional to f**(-alpha), alpha in {-2..2},
    checked whenever a spec is made, by _replace and _make too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if spec.alpha not in (-2, -1, 0, 1, 2):
            raise ValueError(f"unsupported spectral exponent {spec.alpha}")
        return spec

    @classmethod
    def _make(cls, iterable):
        # the NamedTuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


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


#: Slots per packed byte of a TelegraphSlots batch: the sign bits of slots
#: 8k .. 8k + 7 fill byte k, little-endian.
BLOCK = 8


def _prefix_xor_table() -> np.ndarray:
    """Entry b has bit k set where bits 0..k of b hold an odd number of ones."""
    table = np.arange(256, dtype=np.uint8)
    for shift in (1, 2, 4):
        table ^= table << shift
    return table


#: A byte of sign flips, bit 0 first, to the sign bits it leaves from a
#: positive start; its bit 7 is the byte's parity.
_PREFIX_XOR = _prefix_xor_table()

#: Moves byte k of a word of 0/1 bytes to bit 56 + k: the byte-k term lands
#: there, and the lower terms sum below 2**56 without a carry.
_GATHER = 0x0102040810204080


class TelegraphSlots:
    """A batch of telegraph values held per slot, stored as sign bits.

    The value at slot j is s * factor[j], with s = -1.0 where the slot's
    sign bit is set and +1.0 elsewhere, so np.asarray gives the float64
    batch, signed zeros included.  shape is (n,) or (rows, n), time on the
    last axis; len, shape and size read it without expanding the batch.
    signs holds the sign bits packed little-endian into bytes of BLOCK
    slots and block-major, of shape (n_blocks, rows); the bits past slot n
    read 0.
    """

    __slots__ = ("shape", "factor", "signs")

    def __init__(self, shape: tuple[int, ...], factor: np.ndarray, signs: np.ndarray):
        self.shape = shape
        self.factor = factor
        self.signs = signs

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a TelegraphSlots batch expands only into a new array")
        bits = np.unpackbits(self.signs.T, axis=-1, count=self.shape[-1], bitorder="little")
        values = np.where(bits.view(bool), -1.0, 1.0)
        values *= self.factor  # (+-1.0) * factor, not +-|factor|: zeros keep their sign
        return values.reshape(self.shape).astype(dtype or np.float64, copy=False)


#: Rows of a telegraph draw held at once as uniforms and packed flips:
#: gen_telegraph_slots fills the batch slice by slice, so its scratch does
#: not grow with the batch.
_SLICE = 2048


def gen_telegraph_slots(kappa, amplitude, n_slots, slot_duration: float,
                        seed) -> TelegraphSlots:
    """Telegraph values held constant within each slot (one sample per slot).

    This is the continuous-time process of value +-amplitude and Poisson
    switch rate kappa, sampled every slot_duration, exactly: a Poisson
    process has independent increments, so consecutive samples flip sign
    independently with probability q = (1 - exp(-2 kappa tau)) / 2, the
    chance of an odd number of switches within one slot duration tau.
    amplitude is one number or one per slot.  n_slots is n or a batch shape
    (rows, n).  One uniform block u of that shape is drawn: column 0 makes
    the initial sign negative where u >= 1/2, and each later column flips
    the sign where u < q, so a 1-D call equals row 0 of a (1, n) call.

    kappa may also be a sequence of rates, and seed then a sequence of as
    many numpy Generators, one per rate (a list of ints stays one seed of
    one rate): the result stacks each generator's (rows, n) draw at its own
    rate in turn, a (len(kappa) * rows, n) batch whose rows are bit for bit
    those of one call per rate.

    The draw runs in slices of at most _SLICE rows, and of no more rows
    than one generator draws, so its scratch never exceeds one rate's draw:
    each generator fills its rows of a reused uniform block in turn, which
    continues its stream exactly as one draw would.  Each slice's flips are
    packed a byte at a time: one multiply packs each 8 flips into a byte,
    the prefix-XOR table turns a byte of flips into its sign bits, and the
    parity of the earlier bytes, when odd, inverts them.  np.asarray of the
    result is the float64 trace, (+-1.0) * amplitude.
    """
    rates = np.asarray(kappa, dtype=np.float64)
    if rates.ndim == 0:
        rngs = (_rng(seed),)
    elif (rates.ndim == 1 and isinstance(seed, (list, tuple)) and len(seed) == rates.size > 0
          and all(isinstance(g, np.random.Generator) for g in seed)):
        rngs = tuple(seed)
    else:
        raise ValueError("a sequence of rates takes a sequence of as many numpy Generators "
                         "as seed, one per rate")
    if not (np.all(rates > 0) and slot_duration > 0):  # NaN fails both comparisons
        raise ValueError("kappa and slot_duration must be positive")
    shape = _shape(n_slots)
    if min(shape) < 1:
        raise ValueError("n_slots must be >= 1")
    n = shape[-1]
    factor = np.asarray(amplitude, dtype=np.float64)
    if factor.shape not in ((), (n,)):
        raise ValueError(f"amplitude must be one number or one per slot ({n}), "
                         f"got shape {factor.shape}")
    rows = math.prod(shape[:-1])  # of each generator
    total = rows * len(rngs)
    # kappa * slot_duration first: -2 kappa alone overflows at kappa near 1e308
    q = [0.5 * (1.0 - math.exp(-2.0 * (k * slot_duration))) for k in rates.ravel().tolist()]
    blocks = -(-n // BLOCK)
    width = min(_SLICE, rows)
    signs = np.empty((blocks, total), dtype=np.uint8)  # block-major
    u = np.empty((width, n))
    flips = np.zeros((width, blocks * BLOCK), dtype=bool)  # zero-padded to whole bytes
    words = flips.view("<u8")  # each 8 flips, read as one little-endian word
    for start in range(0, total, width):
        stop = min(start + width, total)
        for g in range(start // rows, -(-stop // rows)):  # the generators of these rows
            lo, hi = max(start, g * rows) - start, min(stop, (g + 1) * rows) - start
            rngs[g].random(out=u[lo:hi])
            np.less(u[lo:hi], q[g], out=flips[lo:hi, :n])
        m = stop - start
        np.greater_equal(u[:m, 0], 0.5, out=flips[:m, 0])
        # a word times _GATHER has flip k at bit k of its top byte; shifted
        # down, the word is its packed byte, so the padding bytes read 0 again
        words[:m] *= _GATHER
        words[:m] >>= 56
        block = signs[:, start:stop]
        block[...] = _PREFIX_XOR.take(words[:m].view("<i8")).T  # each block starts at +
        # bit 7 is a block's parity, spread over its byte by an int8 >> 7; the
        # XOR of the earlier blocks' masks, by doubling strides, inverts a
        # block whose start is negative
        carry = block[:-1].view(np.int8) >> 7
        stride = 1
        while stride < len(carry):
            carry[stride:] ^= carry[:-stride]  # numpy reads the overlap before writing
            stride *= 2
        block[1:] ^= carry.view(np.uint8)
    if n % BLOCK:  # the flips' zero padding leaves the last sign repeated there
        signs[-1] &= (1 << n % BLOCK) - 1
    shape = shape if rates.ndim == 0 else (total, n)
    return TelegraphSlots(shape, np.broadcast_to(factor, (n,)), signs)


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
