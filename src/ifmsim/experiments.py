"""Monte Carlo ensemble sweeps and counting-statistics extraction.

Every grid point draws its whole ensemble from one generator keyed by
(master_seed, point_index) through numpy's SeedSequence (PCG64), in the
spirit of counter-based parallel streams (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11).  Each scenario's sample() makes one
batched draw of shape (realizations, segments) per random quantity, filled
row by row, and a scenario with two random quantities takes them from two
child streams; so results are bit-reproducible, and growing the realization
count extends the ensemble rather than redrawing it.  Everything runs in
one thread: results and speed do not depend on any thread count.

run_sweep, sweep_kappa_N and clustering_sweep are each one call of the grid
loop _grid, and all three return a GridResult.  A driver gives its slot
counts, its parameter grid (the correlation times, or (0.0,) for a scenario
sweep) and the scenario of each parameter; point k of the n-major grid is
keyed by k.  The points of one slot count are drawn point by point and
stacked into one batch, so each protocol the sweep asks for makes one
kernel call per slot count, and the kernels receive the sampled segments as
they are.  A realization's populations do not depend on the batch around
it, so a point's statistics are those of its own batch, bit for bit.

A scenario's sample() returns (dtheta, chi), chi None on the amplitude
axis.  dtheta is a float64 array, except in the two telegraph scenarios,
BinarySlotNoise and BinarySampledNoise: there it is the noise.TelegraphSlots
batch of gen_telegraph_slots, packed signs and one factor per slot (theta,
or delta_theta times the slot's trace samples), which the kernels' block
tables read as it is and np.asarray expands to the angles.

Every record type here is a typing.NamedTuple: immutable and cheap to
create at import.  Records compare as tuples, so two records of different
types but equal values compare equal.  The _fields of the five scenario
classes that the CLI names (ZeroSumAmplitude to ColoredPhase) are exactly
their config keys; what no config sets, such as the [-pi, pi] range of the
white phases, is a constant of the class.
slot_samples is the one rule for the trace samples a kappa-sweep slot
holds, for sampling and for transparency_anomalies alike.  The drivers
and slot_samples check their arguments before any noise is drawn, and a
refused value raises an ArgumentError naming the arguments at fault.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .noise import (
    ColorSpec,
    TelegraphSlots,
    gen_colored,
    gen_telegraph_slots,
    gen_white,
    gen_white_top,
    gen_zero_sum,
)
from .protocols import PROTOCOLS, basis_state, batch_populations

__all__ = [
    "ArgumentError",
    "BinarySampledNoise",
    "BinarySlotNoise",
    "ColoredPhase",
    "EnsembleStats",
    "GFEstimate",
    "GridResult",
    "POISSON_MEAN_MAX",
    "RNG_SCHEME",
    "SweepConfig",
    "TABLE_CONFIGS",
    "TABLE_EXPECTED",
    "WhiteAmplitude",
    "WhiteAmplitudePhase",
    "WhitePhase",
    "ZeroSumAmplitude",
    "clustering_sweep",
    "ensemble_markers",
    "fcs_estimate",
    "marker_table",
    "moments_from_gf",
    "poisson_generating_function",
    "run_sweep",
    "slot_samples",
    "sweep_kappa_N",
    "transparency_anomalies",
]

#: How ensembles are seeded; the CLI records it in every manifest.
RNG_SCHEME = ("keyed-batch: PCG64(SeedSequence([master_seed, point_index])), "
              "one row-major (realizations, segments) draw per quantity and grid point")


def _stream(master_seed: int, point_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, point_index]))


class ArgumentError(ValueError):
    """An argument value a function refuses.  names holds the arguments at
    fault, in the order the message first names them."""

    def __init__(self, message: str, *names: str):
        super().__init__(message)
        self.names = names


def _whole(value, name: str, what: str = "") -> int:
    """value as an int, or an ArgumentError naming name unless it is a whole
    number >= 1: a Python or numpy integer, not a float such as 2.0.  what
    follows the name in the message."""
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ArgumentError(f"{name}{what} must be a whole number >= 1, got {value!r}", name)
    return int(value)


def _counts(n_values, realizations) -> tuple[tuple[int, ...], int]:
    """(n_values, realizations) as ints, checked as every sweep driver needs
    them: an ArgumentError names n_values when it is empty, and the first
    argument holding a count that is not a whole number >= 1."""
    n_values = tuple(n_values)
    if not n_values:
        raise ArgumentError("n_values must be nonempty", "n_values")
    return (tuple(_whole(n, "n_values", " entries") for n in n_values),
            _whole(realizations, "realizations"))


# ---------------------------------------------------------------------------
# noise scenarios: each draws a (realizations, segments) batch of
# (dtheta, chi) segments in one call, the same number in every slot; the
# amplitude-noise scenarios return chi = None, the amplitude axis, and the
# telegraph scenarios a TelegraphSlots dtheta
# ---------------------------------------------------------------------------

class ZeroSumAmplitude(NamedTuple):
    """Amplitude noise whose per-slot angles sum exactly to zero."""

    theta_max: float = math.pi

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[np.ndarray, None]:
        if n_slots == 1:
            dtheta = np.zeros((realizations, 1))  # a single-slot zero-sum sequence is empty
        else:
            dtheta = gen_zero_sum(self.theta_max, (realizations, n_slots), rng)
        return dtheta, None


class WhiteAmplitude(NamedTuple):
    """One white amplitude sample per slot, fixed axis."""

    theta_lo: float = 0.0
    theta_hi: float = math.pi

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[np.ndarray, None]:
        dtheta = gen_white_top(self.theta_lo, self.theta_hi, (realizations, n_slots), rng)
        return dtheta, None


class WhiteAmplitudePhase(NamedTuple):
    """White amplitude and white phase on [-pi, pi], several samples per slot."""

    theta_max: float = math.pi
    samples_per_slot: int = 2

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[np.ndarray, np.ndarray]:
        shape = (realizations, n_slots * self.samples_per_slot)
        amplitude_rng, phase_rng = rng.spawn(2)
        dtheta = gen_white_top(0.0, self.theta_max / self.samples_per_slot, shape, amplitude_rng)
        chi = gen_white(-math.pi, math.pi, shape, phase_rng)
        return dtheta, chi


class WhitePhase(NamedTuple):
    """Constant drive strength, white phase on [-pi, pi] per sample."""

    theta_slot: float = math.pi
    samples_per_slot: int = 2

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[np.ndarray, np.ndarray]:
        chi = gen_white(-math.pi, math.pi, (realizations, n_slots * self.samples_per_slot), rng)
        return np.full(chi.shape, self.theta_slot / self.samples_per_slot), chi


class ColoredPhase(NamedTuple):
    """Constant drive strength, one spectrally colored phase sample per slot.

    The phase is a free-running quantity, so the unit-variance colored
    series is scaled to an excursion of 2 pi and wrapped onto [-pi, pi);
    clipping a wandering phase at the circle boundary would distort the
    strongly colored processes.
    """

    alpha: int = 0
    theta_slot: float = math.pi / 2.0

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[np.ndarray, np.ndarray]:
        count = max(64, 1 << (n_slots - 1).bit_length())
        series = gen_colored(ColorSpec(self.alpha), (realizations, count), rng)[:, :n_slots]
        chi = np.mod(series * math.tau + math.pi, math.tau) - math.pi
        return np.full(chi.shape, self.theta_slot), chi


class BinarySlotNoise(NamedTuple):
    """Telegraph noise held constant within each slot (one sample per slot)."""

    kappa_inv: float
    total_duration: float
    theta: float = math.pi

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[TelegraphSlots, None]:
        tau_b = self.total_duration / n_slots
        dtheta = gen_telegraph_slots(1.0 / self.kappa_inv, self.theta, (realizations, n_slots),
                                     tau_b, rng)
        return dtheta, None


def _decimal(x: float) -> tuple[int, int]:
    """(digits, exponent) of the shortest decimal that prints as x, digits * 10**exponent."""
    mantissa, _, exponent = repr(float(x)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    return int(whole + fraction), int(exponent or 0) - len(fraction)


def slot_samples(n_slots: int, total_duration: float, sample_rate: float) -> np.ndarray:
    """Trace samples inside each of n_slots equal slots filling total_duration.

    Sample p represents time p / sample_rate, and slot j holds the samples
    in [j tau, (j + 1) tau) with tau = total_duration / n_slots.  The
    boundaries are counted in integers, from the decimal values that
    total_duration and sample_rate print as: with N = total_duration *
    sample_rate, slot j starts at sample ceil(j N / n_slots), so a boundary
    that lands on a sample puts it in the later slot at any trace length.
    n_slots must be a whole number >= 1, total_duration and sample_rate
    finite and positive, and their product at most 2**53, the largest count
    a float holds; an ArgumentError names the first argument that is not.
    """
    n_slots = _whole(n_slots, "n_slots")
    for name, value in (("total_duration", total_duration), ("sample_rate", sample_rate)):
        if not 0 < value < math.inf:  # NaN fails too
            raise ArgumentError(f"{name} must be finite and > 0, got {value!r}", name)
    if not total_duration * sample_rate <= 2.0 ** 53:  # inf fails too
        raise ArgumentError(f"total_duration * sample_rate = {total_duration * sample_rate:g} "
                            f"trace samples, above 2**53, the largest count a float holds",
                            "total_duration", "sample_rate")
    (a, i), (b, k) = _decimal(total_duration), _decimal(sample_rate)
    num, den = a * b * 10 ** max(i + k, 0), n_slots * 10 ** max(-(i + k), 0)
    edges = np.array([-(-j * num // den) for j in range(n_slots + 1)], dtype=np.int64)
    return edges[1:] - edges[:-1]


class BinarySampledNoise(NamedTuple):
    """Telegraph sign held per slot over the trace samples inside the slot.

    Mirrors the fast-sampling regime: the trace carries per-sample steps of
    +-delta_theta, with the sign constant across a drive interval.  A slot
    holds the samples that slot_samples counts, so a slot here and a trace
    sliced sample by sample (NoiseTrace and trace_to_segments in
    tests/oracles.py, the tests' reference) count the same steps.  Steps on
    one axis compose to one rotation by their summed angle, so each slot is
    emitted as a single segment of angle sign * delta_theta * (samples in
    the slot).
    """

    kappa_inv: float
    total_duration: float
    delta_theta: float
    sample_rate: float

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[TelegraphSlots, None]:
        tau_b = self.total_duration / n_slots
        angles = self.delta_theta * slot_samples(n_slots, self.total_duration, self.sample_rate)
        dtheta = gen_telegraph_slots(1.0 / self.kappa_inv, angles, (realizations, n_slots),
                                     tau_b, rng)
        return dtheta, None


# ---------------------------------------------------------------------------
# ensemble engine
# ---------------------------------------------------------------------------

class EnsembleStats(NamedTuple):
    """Per-grid-point marker statistics over the realization ensemble."""

    mean: np.ndarray
    variance: np.ndarray  # ddof-1
    std: np.ndarray
    count: int


class SweepConfig(NamedTuple):
    """One scenario sweep over slot counts; run_sweep checks it."""

    protocol: str
    scenario: object
    n_values: tuple[int, ...]
    realizations: int = 500
    master_seed: int = 0


class GridResult(NamedTuple):
    """Marker statistics of a sweep over (n_slots, param) points.

    stats maps each protocol to its EnsembleStats, whose arrays have shape
    (len(n_values), len(params)).  params holds the correlation times, or
    (0.0,) for a scenario sweep; anomalies holds the transparent slot
    counts of a kappa sweep.  counters says how much work the sweep did:
    its grid points, the realizations drawn over all of them, and its
    kernel calls, counted as they are made (one per slot count and
    protocol).
    """

    n_values: tuple[int, ...]
    params: tuple[float, ...]
    stats: dict[str, EnsembleStats]
    anomalies: tuple[int, ...]
    counters: dict[str, int]


def _sample_batch(scenario, n_slots, realizations, master_seed, point_index):
    """(dtheta, chi, offsets) of the ensemble, drawn in one call from the
    generator keyed by (master_seed, point_index).  Every scenario gives each
    slot the same number of segments, so the batch width sets the offsets."""
    dtheta, chi = scenario.sample(n_slots, realizations, _stream(master_seed, point_index))
    return dtheta, chi, np.arange(n_slots + 1) * (dtheta.shape[1] // n_slots)


def _stack(batches):
    """One batch holding the rows of every batch in turn; the batches share
    their width and offsets, and TelegraphSlots batches their factor.  A
    lone batch is returned as it is, not copied."""
    if len(batches) == 1:
        return batches[0]
    dthetas, chis, offsets = zip(*batches)
    concatenate = (TelegraphSlots.concatenate if isinstance(dthetas[0], TelegraphSlots)
                   else np.concatenate)
    return concatenate(dthetas), None if chis[0] is None else np.concatenate(chis), offsets[0]


def _markers(protocol, batch) -> np.ndarray:
    levels, marker = PROTOCOLS[protocol]
    return batch_populations(protocol, *batch, basis_state(levels, 0))[:, marker]


def ensemble_markers(protocol, scenario, n_slots, realizations, master_seed,
                     point_index=0) -> np.ndarray:
    """Marker populations of `realizations` independent protocol runs."""
    batch = _sample_batch(scenario, n_slots, realizations, master_seed, point_index)
    return _markers(protocol, batch)


def _grid(n_values, params, scenario_of, protocols, realizations, master_seed,
          anomalies=()) -> GridResult:
    """Marker statistics of every protocol at every (n_slots, param) point.

    Point k of the n-major grid draws one batch of scenario_of(param) from
    the generator keyed by (master_seed, k).  The points of one slot count
    are stacked into one batch, point after point, and each protocol makes
    one kernel call on it: a realization's populations do not depend on the
    batch around it, so each point gets the markers of its own batch, bit
    for bit.  Each protocol's stats hold one mean and one ddof-1 variance
    per point, taken over that point's contiguous row of markers.
    """
    params = tuple(float(p) for p in params)
    mean = np.empty((len(protocols), len(n_values), len(params)))
    var = np.zeros_like(mean)
    kernel_calls = 0
    for i, n in enumerate(n_values):
        batch = _stack([_sample_batch(scenario_of(param), n, realizations, master_seed,
                                      i * len(params) + j)
                        for j, param in enumerate(params)])
        for p, protocol in enumerate(protocols):
            markers = _markers(protocol, batch).reshape(len(params), realizations)
            kernel_calls += 1
            mean[p, i] = markers.mean(axis=1)
            if realizations > 1:
                var[p, i] = markers.var(axis=1, ddof=1)
    stats = {protocol: EnsembleStats(mean=mean[p], variance=var[p], std=np.sqrt(var[p]),
                                     count=realizations)
             for p, protocol in enumerate(protocols)}
    points = len(n_values) * len(params)
    counters = {"points": points, "realizations": points * realizations,
                "kernel_calls": kernel_calls}
    return GridResult(n_values, params, stats, tuple(anomalies), counters)


def run_sweep(config: SweepConfig) -> GridResult:
    """Mean and variance of the marker population over the n_values grid; an
    ArgumentError names an unknown protocol or a count that is not whole."""
    if config.protocol not in PROTOCOLS:
        raise ArgumentError(f"protocol {config.protocol!r} is unknown", "protocol")
    n_values, realizations = _counts(config.n_values, config.realizations)
    return _grid(n_values, (0.0,), lambda _: config.scenario, (config.protocol,),
                 realizations, config.master_seed)


# ---------------------------------------------------------------------------
# binary-noise grids
# ---------------------------------------------------------------------------

def transparency_anomalies(n_values, delta_theta, total_duration, sample_rate) -> list[int]:
    """Slot counts at which every slot's drive angle is a nonzero multiple of 4 pi.

    A slot whose samples all share one sign accumulates delta_theta times
    the samples it holds (slot_samples); when that is 4 pi k, k >= 1, the
    pulse acts as the identity, and when every slot is such a pulse the
    detectors are blind to the noise.  Slots of a nominal 2.5 samples hold
    2 or 3, so 4 pi / 2.5 per sample makes no slot a whole turn.
    """
    out = []
    for n in n_values:
        samples = slot_samples(n, total_duration, sample_rate)
        turns = (abs(delta_theta) * samples / (4.0 * math.pi)).tolist()
        if all(t >= 0.5 and abs(t - round(t)) < 1e-9 for t in turns):
            out.append(int(n))
    return out


def _binary_grid(n_values, kappa_inv_values, realizations, total_duration, kappa_inv_max):
    """(n_values, kappa_inv_values, realizations), checked as both
    binary-noise drivers need them: an ArgumentError names the first
    argument out of range."""
    n_values, realizations = _counts(n_values, realizations)
    kappa_inv_values = tuple(kappa_inv_values)
    if not kappa_inv_values:
        raise ArgumentError("kappa_inv_values must be nonempty", "kappa_inv_values")
    if not 0 < total_duration < math.inf:
        raise ArgumentError(f"total_duration must be finite and > 0, got {total_duration!r}",
                            "total_duration")
    for k in kappa_inv_values:
        if not 0 < k <= kappa_inv_max:  # NaN fails too
            raise ArgumentError(f"kappa_inv_values gives the correlation time {k:g}, "
                                f"outside (0, {kappa_inv_max:g}]", "kappa_inv_values")
    return n_values, kappa_inv_values, realizations


def sweep_kappa_N(n_values, kappa_inv_values, delta_theta, realizations=500,
                  master_seed=0, total_duration=1e-5, sample_rate=1e9,
                  protocol="cifm") -> GridResult:
    """Marker statistics over the (n_slots, correlation time) grid.

    Binary noise with per-sample steps of +-delta_theta whose sign is held
    across each drive interval, switching between intervals at the
    discretized Poisson rate.  Correlation times must not exceed the
    sequence duration, every slot must hold a trace sample, and delta_theta
    times a slot's samples must be finite; each n is counted once for both.
    """
    n_values, kappa_inv_values, realizations = _binary_grid(
        n_values, kappa_inv_values, realizations, total_duration, total_duration)
    samples = [slot_samples(n, total_duration, sample_rate) for n in n_values]
    if min(s.min() for s in samples) < 1:  # an empty slot: the detector sees no noise
        raise ArgumentError(f"sample_rate = {sample_rate:g} leaves drive slots without trace "
                            f"samples: total_duration * sample_rate must be >= every "
                            f"n_values entry (largest {max(n_values)})", "sample_rate")
    most = int(max(s.max() for s in samples))  # a Python int: inf without a numpy warning
    if not math.isfinite(abs(float(delta_theta)) * most):
        raise ArgumentError(f"delta_theta = {delta_theta:g} times the {most} trace samples of "
                            f"a slot is not a finite angle", "delta_theta")
    return _grid(n_values, kappa_inv_values,
                 lambda kinv: BinarySampledNoise(kappa_inv=kinv, total_duration=total_duration,
                                                 delta_theta=delta_theta, sample_rate=sample_rate),
                 (protocol,), realizations, master_seed,
                 transparency_anomalies(n_values, delta_theta, total_duration, sample_rate))


def clustering_sweep(n_values, kappa_inv_values, realizations=2000, master_seed=0,
                     theta=math.pi, total_duration=1e-5) -> GridResult:
    """Coherent-detector sensitivity to noise clustering, with projective control.

    One +-theta sample per drive interval; slower switching (larger
    correlation time) clusters equal signs together and raises the coherent
    marker, while the projective detector sees only |theta| and stays flat.
    """
    n_values, kappa_inv_values, realizations = _binary_grid(
        n_values, kappa_inv_values, realizations, total_duration, sys.float_info.max)
    return _grid(n_values, kappa_inv_values,
                 lambda kinv: BinarySlotNoise(kappa_inv=kinv, total_duration=total_duration,
                                              theta=theta),
                 ("cifm", "pifm"), realizations, master_seed)


# ---------------------------------------------------------------------------
# deterministic four-slot configuration table
# ---------------------------------------------------------------------------

_P = math.pi
#: The twelve standard four-slot configurations: six with two pi pulses and
#: two empty slots, six with alternating-sign pi pulses.
TABLE_CONFIGS: tuple[tuple[float, float, float, float], ...] = (
    (_P, _P, 0.0, 0.0),
    (_P, 0.0, _P, 0.0),
    (_P, 0.0, 0.0, _P),
    (0.0, _P, _P, 0.0),
    (0.0, _P, 0.0, _P),
    (0.0, 0.0, _P, _P),
    (_P, _P, -_P, -_P),
    (_P, -_P, _P, -_P),
    (_P, -_P, -_P, _P),
    (-_P, _P, _P, -_P),
    (-_P, _P, -_P, _P),
    (-_P, -_P, _P, _P),
)

#: Reference marker values (3 decimals) for the configurations above.
TABLE_EXPECTED: tuple[tuple[float, float], ...] = (
    (0.611, 0.283),
    (0.646, 0.387),
    (0.393, 0.283),
    (0.937, 0.387),
    (0.646, 0.387),
    (0.611, 0.283),
    (0.599, 0.605),
    (0.183, 0.605),
    (0.361, 0.605),
    (0.361, 0.605),
    (0.183, 0.605),
    (0.599, 0.605),
)


def marker_table() -> list[tuple[tuple[float, ...], float, float]]:
    """Deterministic (configuration, cifm_p0, pifm_p0) rows for n_slots = 4.

    Every configuration drives the slots along the fixed amplitude axis;
    the twelve rows expose how the coherent marker depends on pulse
    ordering and signs, while the projective marker ignores the signs.
    """
    batch = (np.array(TABLE_CONFIGS), None, np.arange(5))
    cifm, pifm = (_markers(protocol, batch) for protocol in ("cifm", "pifm"))
    return [(config, float(c), float(p)) for config, c, p in zip(TABLE_CONFIGS, cifm, pifm)]


# ---------------------------------------------------------------------------
# full counting statistics with the qubit detector
# ---------------------------------------------------------------------------

#: The largest mean Generator.poisson accepts: numpy refuses a mean above
#: int64 max - 10 sqrt(int64 max), so that its int64 draws cannot overflow.
POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


class GFEstimate(NamedTuple):
    """Sampled generating function <exp(i lambda theta_T)> of the event count.

    re/im are reconstructed from the qubit marker with ground-state and
    equal-superposition initial states; statistical_error is the larger
    standard error of the two reconstructions per grid point.
    """

    lambda_values: np.ndarray
    re: np.ndarray
    im: np.ndarray
    statistical_error: np.ndarray

    def values(self) -> np.ndarray:
        return self.re + 1j * self.im


def fcs_estimate(kappa, theta, total_duration, lambda_values, realizations,
                 master_seed=0) -> GFEstimate:
    """Reconstruct the counting-field generating function from qubit runs.

    Each realization draws a Poisson number of theta pulses over the
    sequence.  The pulses all drive one axis, so they compose to a single
    rotation by their total angle and their positions in time do not
    matter: only the per-row totals are drawn, from the first of two child
    streams of the generator keyed by (master_seed, 0).  The same totals
    are reused across the whole lambda grid (the attenuator is
    swept, the noise is not redrawn), which makes finite differences across
    lambda nearly noise-free.  From the ground state the marker gives
    Re GF = 1 - 2 E[p_e]; from (|g> + |e>)/sqrt(2) it gives
    Im GF = 2 E[p_e] - 1.

    A realization's populations depend only on its own total, so the kernel
    evolves only the distinct totals (a handful of Poisson counts, however
    many realizations), at every lambda point at once: one batch whose rows
    are every (lambda, distinct count) pair, and one call per initial state,
    two calls per estimate.

    The statistics take one pass per initial state and lambda point.  The
    point's row of marker populations is taken back into realization order
    (pe[i].take(row)); the mean is np.add.reduce(x) / R, and then, in place,
    x -= mean and x *= x give the ddof-1 variance np.add.reduce(x) / (R - 1),
    the reductions that ndarray.mean and ndarray.std(ddof=1) run, in the same
    order.  sqrt is correctly rounded and monotone, so the error,
    2 sqrt(max(var_g, var_p)) / sqrt(R), is the larger of the two standard
    errors, and the estimate is bit-identical to evolving every realization.
    A count-weighted mean over the distinct totals would be cheaper, but it
    sums in another order and moves the results in the last bits.
    total_duration must be finite and > 0, kappa finite and >= 0, and the
    Poisson mean kappa * total_duration at most POISSON_MEAN_MAX; an
    ArgumentError names the first argument that is not.
    """
    lambda_values = np.asarray(lambda_values, dtype=np.float64)
    realizations = _whole(realizations, "realizations")
    if not 0 < total_duration < math.inf:  # NaN fails too
        raise ArgumentError(f"total_duration must be finite and > 0, got {total_duration!r}",
                            "total_duration")
    if not 0 <= kappa < math.inf:
        raise ArgumentError(f"kappa must be finite and >= 0 for the Poisson mean "
                            f"kappa * total_duration, got {kappa!r}", "kappa")
    mean = kappa * total_duration  # not NaN: both factors are finite
    if mean > POISSON_MEAN_MAX:
        raise ArgumentError(f"kappa sets the mean event count kappa * total_duration to "
                            f"{mean:g}, outside [0, {POISSON_MEAN_MAX:g}], the Poisson means "
                            f"numpy draws", "kappa")
    count_rng, _ = _stream(master_seed, 0).spawn(2)
    events = count_rng.poisson(mean, realizations)
    counts, row = np.unique(events, return_inverse=True)
    dtheta = (lambda_values[:, np.newaxis] * (counts * theta)).reshape(-1, 1)
    ground = basis_state(2, 0)
    plus = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
    # (lambda, distinct count): column i of a lambda's row is counts[i]
    pe_g, pe_p = (np.ascontiguousarray(batch_populations("qubit", dtheta, None, None, psi0)[:, 1])
                  .reshape(lambda_values.size, counts.size) for psi0 in (ground, plus))
    re = np.empty(lambda_values.size)
    im = np.empty(lambda_values.size)
    err = np.zeros(lambda_values.size)
    sqrt_r = math.sqrt(realizations)
    for i in range(lambda_values.size):
        g, p = pe_g[i].take(row), pe_p[i].take(row)
        mean_g, mean_p = np.add.reduce(g) / realizations, np.add.reduce(p) / realizations
        re[i] = 1.0 - 2.0 * mean_g
        im[i] = 2.0 * mean_p - 1.0
        if realizations > 1:
            g -= mean_g
            g *= g
            p -= mean_p
            p *= p
            var = max(np.add.reduce(g), np.add.reduce(p)) / (realizations - 1)
            err[i] = 2.0 * math.sqrt(var) / sqrt_r
    return GFEstimate(lambda_values=lambda_values, re=re, im=im, statistical_error=err)


def poisson_generating_function(kappa, total_duration, theta, lambda_values) -> np.ndarray:
    """Analytic generating function exp[kappa T (exp(i lambda theta) - 1)]."""
    lam = np.asarray(lambda_values, dtype=np.float64)
    return np.exp(kappa * total_duration * (np.exp(1j * lam * theta) - 1.0))


def moments_from_gf(gf: GFEstimate, order: int) -> float:
    """Moment <theta_T**order> by central finite differences at lambda = 0.

    Requires the lambda grid to contain 0 with at least one symmetric
    neighbor pair at spacing h; uses (-i d/dlambda)**order of the sampled
    generating function.
    """
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 are supported")
    lam = gf.lambda_values
    i0 = int(np.argmin(np.abs(lam)))
    if abs(lam[i0]) > 1e-12:
        raise ValueError("lambda grid does not contain 0")
    if i0 == 0 or i0 == lam.size - 1:
        raise ValueError("lambda grid has no symmetric neighborhood around 0")
    h = lam[i0 + 1] - lam[i0]
    if abs(lam[i0 + 1] + lam[i0 - 1]) > 1e-9 * abs(h):
        raise ValueError("lambda grid is not symmetric around 0")
    values = gf.values()
    if order == 1:
        deriv = (values[i0 + 1] - values[i0 - 1]) / (2.0 * h)
        return float(deriv.imag)  # real part of -i * gf'
    second = (values[i0 + 1] - 2.0 * values[i0] + values[i0 - 1]) / (h * h)
    return float(-second.real)
