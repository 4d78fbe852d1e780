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
keyed by k.  Every protocol the driver asks for runs on the same batch, and
the kernels receive the sampled segments as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import (
    ColorSpec,
    ProtocolTiming,
    gen_colored,
    gen_telegraph_slots,
    gen_white,
    gen_white_top,
    gen_zero_sum,
    interval_sample_slices,
)
from .protocols import PROTOCOLS, basis_state, batch_populations

__all__ = [
    "BinarySampledNoise",
    "BinarySlotNoise",
    "ColoredPhase",
    "EnsembleStats",
    "GFEstimate",
    "GridResult",
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
    "sweep_kappa_N",
    "transparency_anomalies",
]

#: How ensembles are seeded; the CLI records it in every manifest.
RNG_SCHEME = ("keyed-batch: PCG64(SeedSequence([master_seed, point_index])), "
              "one row-major (realizations, segments) draw per quantity and grid point")


def _stream(master_seed: int, point_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, point_index]))


# ---------------------------------------------------------------------------
# noise scenarios: each draws a (realizations, segments) batch of
# (dtheta, chi) segments in one call, the same number in every slot; the
# amplitude-noise scenarios return chi = None, the amplitude axis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroSumAmplitude:
    """Amplitude noise whose per-slot angles sum exactly to zero."""

    theta_max: float = math.pi

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[np.ndarray, None]:
        if n_slots == 1:
            dtheta = np.zeros((realizations, 1))  # a single-slot zero-sum sequence is empty
        else:
            dtheta = gen_zero_sum(self.theta_max, (realizations, n_slots), rng)
        return dtheta, None


@dataclass(frozen=True)
class WhiteAmplitude:
    """One white amplitude sample per slot, fixed axis."""

    theta_lo: float = 0.0
    theta_hi: float = math.pi

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[np.ndarray, None]:
        dtheta = gen_white_top(self.theta_lo, self.theta_hi, (realizations, n_slots), rng)
        return dtheta, None


@dataclass(frozen=True)
class WhiteAmplitudePhase:
    """White amplitude and white phase, several samples per slot."""

    theta_max: float = math.pi
    samples_per_slot: int = 2
    phase_lo: float = -math.pi
    phase_hi: float = math.pi

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[np.ndarray, np.ndarray]:
        shape = (realizations, n_slots * self.samples_per_slot)
        amplitude_rng, phase_rng = rng.spawn(2)
        dtheta = gen_white_top(0.0, self.theta_max / self.samples_per_slot, shape, amplitude_rng)
        chi = gen_white(self.phase_lo, self.phase_hi, shape, phase_rng)
        return dtheta, chi


@dataclass(frozen=True)
class WhitePhase:
    """Constant drive strength, white phase per sample."""

    theta_slot: float = math.pi
    samples_per_slot: int = 2
    phase_lo: float = -math.pi
    phase_hi: float = math.pi

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[np.ndarray, np.ndarray]:
        chi = gen_white(self.phase_lo, self.phase_hi,
                        (realizations, n_slots * self.samples_per_slot), rng)
        return np.full(chi.shape, self.theta_slot / self.samples_per_slot), chi


@dataclass(frozen=True)
class ColoredPhase:
    """Constant drive strength, one spectrally colored phase sample per slot.

    The phase is a free-running quantity, so the unit-variance colored
    series is scaled to an excursion of 2 pi and wrapped onto [-pi, pi);
    clipping a wandering phase at the circle boundary would distort the
    strongly colored processes.
    """

    alpha: int = 0
    theta_slot: float = math.pi / 2.0
    phase_scale: float = 2.0 * math.pi

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[np.ndarray, np.ndarray]:
        count = max(64, 1 << (n_slots - 1).bit_length())
        series = gen_colored(ColorSpec(self.alpha), (realizations, count), rng)[:, :n_slots]
        chi = np.mod(series * self.phase_scale + math.pi, 2.0 * math.pi) - math.pi
        return np.full(chi.shape, self.theta_slot), chi


@dataclass(frozen=True)
class BinarySlotNoise:
    """Telegraph noise held constant within each slot (one sample per slot)."""

    kappa_inv: float
    total_duration: float
    theta: float = math.pi

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[np.ndarray, None]:
        tau_b = self.total_duration / n_slots
        dtheta = gen_telegraph_slots(1.0 / self.kappa_inv, self.theta, (realizations, n_slots),
                                     tau_b, rng)
        return dtheta, None


@dataclass(frozen=True)
class BinarySampledNoise:
    """Telegraph sign held per slot over the trace samples inside the slot.

    Mirrors the fast-sampling regime: the trace carries per-sample steps of
    +-delta_theta, with the sign constant across a drive interval.  A slot
    holds the samples that noise.interval_sample_slices gives it, so a slot
    here and a sliced NoiseTrace count the same steps.  Steps on one axis
    compose to one rotation by their summed angle, so each slot is emitted
    as a single segment of angle sign * delta_theta * (samples in the slot).
    """

    kappa_inv: float
    total_duration: float
    delta_theta: float
    sample_rate: float

    def slot_samples(self, n_slots: int) -> np.ndarray:
        """Trace samples inside each drive interval, with no beam-splitter windows."""
        timing = ProtocolTiming(n_slots, self.total_duration / n_slots)
        return np.array([hi - lo for lo, hi in interval_sample_slices(timing, self.sample_rate)])

    def sample(self, n_slots: int, realizations: int, rng) -> tuple[np.ndarray, None]:
        tau_b = self.total_duration / n_slots
        signs = gen_telegraph_slots(1.0 / self.kappa_inv, 1.0, (realizations, n_slots), tau_b, rng)
        dtheta = signs * (self.delta_theta * self.slot_samples(n_slots))
        return dtheta, None


# ---------------------------------------------------------------------------
# ensemble engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleStats:
    """Per-grid-point marker statistics over the realization ensemble."""

    mean: np.ndarray
    variance: np.ndarray  # ddof-1
    std: np.ndarray
    count: int


@dataclass(frozen=True)
class SweepConfig:
    """One scenario sweep over slot counts."""

    protocol: str
    scenario: object
    n_values: tuple[int, ...]
    realizations: int = 500
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))


@dataclass(frozen=True)
class GridResult:
    """Marker statistics of a sweep over (n_slots, param) points.

    stats maps each protocol to its EnsembleStats, whose arrays have shape
    (len(n_values), len(params)).  params holds the correlation times, or
    (0.0,) for a scenario sweep; anomalies holds the transparent slot
    counts of a kappa sweep.
    """

    n_values: tuple[int, ...]
    params: tuple[float, ...]
    stats: dict[str, EnsembleStats]
    anomalies: tuple[int, ...] = ()


def _sample_batch(scenario, n_slots, realizations, master_seed, point_index):
    """(dtheta, chi, offsets) of the ensemble, drawn in one call from the
    generator keyed by (master_seed, point_index).  Every scenario gives each
    slot the same number of segments, so the batch width sets the offsets."""
    dtheta, chi = scenario.sample(n_slots, realizations, _stream(master_seed, point_index))
    return dtheta, chi, np.arange(n_slots + 1) * (dtheta.shape[1] // n_slots)


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
    the generator keyed by (master_seed, k), and that batch feeds every
    protocol.  Each protocol's stats hold one mean and one ddof-1 variance
    per point.
    """
    n_values = tuple(int(n) for n in n_values)
    params = tuple(float(p) for p in params)
    mean = np.empty((len(protocols), len(n_values), len(params)))
    var = np.zeros_like(mean)
    for k, (i, j) in enumerate(np.ndindex(mean.shape[1:])):
        batch = _sample_batch(scenario_of(params[j]), n_values[i], realizations, master_seed, k)
        for p, protocol in enumerate(protocols):
            markers = _markers(protocol, batch)
            mean[p, i, j] = markers.mean()
            if realizations > 1:
                var[p, i, j] = markers.var(ddof=1)
    stats = {protocol: EnsembleStats(mean=mean[p], variance=var[p], std=np.sqrt(var[p]),
                                     count=realizations)
             for p, protocol in enumerate(protocols)}
    return GridResult(n_values, params, stats, tuple(anomalies))


def run_sweep(config: SweepConfig) -> GridResult:
    """Mean and variance of the marker population over the n_values grid."""
    return _grid(config.n_values, (0.0,), lambda _: config.scenario, (config.protocol,),
                 config.realizations, config.master_seed)


# ---------------------------------------------------------------------------
# binary-noise grids
# ---------------------------------------------------------------------------

def transparency_anomalies(n_values, delta_theta, total_duration, sample_rate) -> list[int]:
    """Slot counts whose full-slot drive angle is an integer multiple of 4 pi.

    A slot whose samples all share one sign accumulates
    delta_theta * tau_b * sample_rate; when that is 4 pi k the pulse acts as
    the identity and the detectors are blind to it.
    """
    out = []
    for n in n_values:
        ratio = abs(delta_theta) * (total_duration / n) * sample_rate / (4.0 * math.pi)
        if ratio >= 0.5 and abs(ratio - round(ratio)) < 1e-9:
            out.append(int(n))
    return out


def sweep_kappa_N(n_values, kappa_inv_values, delta_theta, realizations=500,
                  master_seed=0, total_duration=1e-5, sample_rate=1e9,
                  protocol="cifm") -> GridResult:
    """Marker statistics over the (n_slots, correlation time) grid.

    Binary noise with per-sample steps of +-delta_theta whose sign is held
    across each drive interval, switching between intervals at the
    discretized Poisson rate.  Correlation times must not exceed the
    sequence duration.
    """
    n_values, kappa_inv_values = tuple(n_values), tuple(kappa_inv_values)  # each read twice
    for k in kappa_inv_values:
        if not 0 < k <= total_duration:
            raise ValueError(f"kappa_inv {k:g} outside (0, {total_duration:g}]")
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
    rows = []
    for config in TABLE_CONFIGS:
        dtheta = np.array(config)[np.newaxis, :]
        offsets = np.arange(5, dtype=np.int64)
        cifm, pifm = (batch_populations(protocol, dtheta, None, offsets, basis_state(3, 0))[0, 0]
                      for protocol in ("cifm", "pifm"))
        rows.append((config, float(cifm), float(pifm)))
    return rows


# ---------------------------------------------------------------------------
# full counting statistics with the qubit detector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GFEstimate:
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
    """
    lambda_values = np.asarray(lambda_values, dtype=np.float64)
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    count_rng, _ = _stream(master_seed, 0).spawn(2)
    events = count_rng.poisson(kappa * total_duration, realizations)
    unit = (events * theta)[:, np.newaxis]
    ground = basis_state(2, 0)
    plus = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
    re = np.empty(lambda_values.size)
    im = np.empty(lambda_values.size)
    err = np.empty(lambda_values.size)
    sqrt_r = math.sqrt(realizations)
    for i, lam in enumerate(lambda_values):
        dtheta = unit * lam
        pe_g = batch_populations("qubit", dtheta, None, None, ground)[:, 1]
        pe_p = batch_populations("qubit", dtheta, None, None, plus)[:, 1]
        re[i] = 1.0 - 2.0 * pe_g.mean()
        im[i] = 2.0 * pe_p.mean() - 1.0
        if realizations > 1:
            err[i] = 2.0 * max(pe_g.std(ddof=1), pe_p.std(ddof=1)) / sqrt_r
        else:
            err[i] = 0.0
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
