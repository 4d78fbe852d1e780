"""Monte Carlo ensemble sweeps and counting-statistics extraction.

The ensemble engine draws every realization from its own seeded generator,
derived as default_rng([master_seed, point_index, realization_index]), so
results are bit-reproducible and independent of how many worker threads
execute the protocol kernels.  Noise generation is single-threaded; the
parallel section is the pure protocol evaluation, whose per-realization
outputs land in a preallocated array and are reduced in index order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import basis_state
from .noise import (
    ColorSpec,
    estimate_psd,
    gen_colored,
    gen_telegraph_slots,
    gen_white,
    gen_white_top,
    gen_zero_sum,
)
from .protocols import PROTOCOLS, batch_populations

__all__ = [
    "AMPLITUDE_AXIS",
    "BinarySampledNoise",
    "BinarySlotNoise",
    "ClusteringResult",
    "ColoredPhase",
    "EnsembleStats",
    "GFEstimate",
    "KappaSweepResult",
    "SweepConfig",
    "SweepResult",
    "TABLE_CONFIGS",
    "TABLE_EXPECTED",
    "WhiteAmplitude",
    "WhiteAmplitudePhase",
    "WhitePhase",
    "ZeroSumAmplitude",
    "ZeroFreqReport",
    "clustering_sweep",
    "fcs_estimate",
    "marker_table",
    "moments_from_gf",
    "run_sweep",
    "sweep_kappa_N",
    "transparency_anomalies",
    "zero_freq_psd_check",
]

#: Axis angle of pure amplitude noise: rotation axis (cos chi, -sin chi) = (0, 1).
AMPLITUDE_AXIS = -math.pi / 2.0


# ---------------------------------------------------------------------------
# noise scenarios: each yields one realization row of (dtheta, chi) segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroSumAmplitude:
    """Amplitude noise whose per-slot angles sum exactly to zero."""

    theta_max: float = math.pi

    def offsets(self, n_slots: int) -> np.ndarray:
        return np.arange(n_slots + 1, dtype=np.int64)

    def sample(self, n_slots: int, rng) -> tuple[np.ndarray, np.ndarray]:
        if n_slots == 1:
            dtheta = np.zeros(1)  # a single-slot zero-sum sequence is empty
        else:
            dtheta = gen_zero_sum(self.theta_max, n_slots, rng)
        return dtheta, np.full(n_slots, AMPLITUDE_AXIS)


@dataclass(frozen=True)
class WhiteAmplitude:
    """One white amplitude sample per slot, fixed axis."""

    theta_lo: float = 0.0
    theta_hi: float = math.pi

    def offsets(self, n_slots: int) -> np.ndarray:
        return np.arange(n_slots + 1, dtype=np.int64)

    def sample(self, n_slots: int, rng) -> tuple[np.ndarray, np.ndarray]:
        dtheta = gen_white_top(self.theta_lo, self.theta_hi, n_slots, rng)
        return dtheta, np.full(n_slots, AMPLITUDE_AXIS)


@dataclass(frozen=True)
class WhiteAmplitudePhase:
    """White amplitude and white phase, several samples per slot."""

    theta_max: float = math.pi
    samples_per_slot: int = 2
    phase_lo: float = -math.pi
    phase_hi: float = math.pi

    def offsets(self, n_slots: int) -> np.ndarray:
        return np.arange(n_slots + 1, dtype=np.int64) * self.samples_per_slot

    def sample(self, n_slots: int, rng) -> tuple[np.ndarray, np.ndarray]:
        n = n_slots * self.samples_per_slot
        dtheta = gen_white_top(0.0, self.theta_max / self.samples_per_slot, n, rng)
        chi = gen_white(self.phase_lo, self.phase_hi, n, rng)
        return dtheta, chi


@dataclass(frozen=True)
class WhitePhase:
    """Constant drive strength, white phase per sample."""

    theta_slot: float = math.pi
    samples_per_slot: int = 2
    phase_lo: float = -math.pi
    phase_hi: float = math.pi

    def offsets(self, n_slots: int) -> np.ndarray:
        return np.arange(n_slots + 1, dtype=np.int64) * self.samples_per_slot

    def sample(self, n_slots: int, rng) -> tuple[np.ndarray, np.ndarray]:
        n = n_slots * self.samples_per_slot
        dtheta = np.full(n, self.theta_slot / self.samples_per_slot)
        chi = gen_white(self.phase_lo, self.phase_hi, n, rng)
        return dtheta, chi


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

    def offsets(self, n_slots: int) -> np.ndarray:
        return np.arange(n_slots + 1, dtype=np.int64)

    def sample(self, n_slots: int, rng) -> tuple[np.ndarray, np.ndarray]:
        count = max(64, 1 << (n_slots - 1).bit_length())
        series = gen_colored(ColorSpec(self.alpha), count, rng)[:n_slots]
        chi = np.mod(series * self.phase_scale + math.pi, 2.0 * math.pi) - math.pi
        return np.full(n_slots, self.theta_slot), chi


@dataclass(frozen=True)
class BinarySlotNoise:
    """Telegraph noise held constant within each slot (one sample per slot)."""

    kappa_inv: float
    total_duration: float
    theta: float = math.pi

    def offsets(self, n_slots: int) -> np.ndarray:
        return np.arange(n_slots + 1, dtype=np.int64)

    def sample(self, n_slots: int, rng) -> tuple[np.ndarray, np.ndarray]:
        tau_b = self.total_duration / n_slots
        dtheta = gen_telegraph_slots(1.0 / self.kappa_inv, self.theta, n_slots, tau_b, rng)
        return dtheta, np.full(n_slots, AMPLITUDE_AXIS)


@dataclass(frozen=True)
class BinarySampledNoise:
    """Telegraph sign held per slot, expanded to per-sample steps delta_theta.

    Mirrors the fast-sampling regime: the trace carries
    round(tau_b * sample_rate) samples per slot, each contributing a step
    of +-delta_theta, with the sign constant across a drive interval.
    """

    kappa_inv: float
    total_duration: float
    delta_theta: float
    sample_rate: float

    def offsets(self, n_slots: int) -> np.ndarray:
        tau_b = self.total_duration / n_slots
        return np.round(np.arange(n_slots + 1) * tau_b * self.sample_rate).astype(np.int64)

    def sample(self, n_slots: int, rng) -> tuple[np.ndarray, np.ndarray]:
        tau_b = self.total_duration / n_slots
        signs = gen_telegraph_slots(1.0 / self.kappa_inv, 1.0, n_slots, tau_b, rng)
        edges = self.offsets(n_slots)
        dtheta = np.empty(edges[-1])
        for j in range(n_slots):
            dtheta[edges[j]:edges[j + 1]] = signs[j] * self.delta_theta
        return dtheta, np.full(edges[-1], AMPLITUDE_AXIS)


# ---------------------------------------------------------------------------
# ensemble engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleStats:
    """Per-grid-point marker statistics over the realization ensemble."""

    mean: np.ndarray
    variance: np.ndarray
    std: np.ndarray
    count: int

    def stderr(self) -> np.ndarray:
        return self.std / math.sqrt(self.count)


@dataclass(frozen=True)
class SweepConfig:
    protocol: str
    scenario: object
    n_values: tuple[int, ...]
    realizations: int = 500
    master_seed: int = 0
    threads: int = 0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    stats: EnsembleStats

    @property
    def n_values(self) -> tuple[int, ...]:
        return self.config.n_values


def _resolve_threads(threads: int) -> int:
    if threads and threads > 0:
        return threads
    return max(1, os.cpu_count() or 1)


def _populations_parallel(protocol, dtheta, chi, offsets, threads, initial=None):
    if initial is None:
        initial = basis_state(PROTOCOLS[protocol].levels, 0)
    # merged once over the full batch, before the row split, so the merged
    # layout (and every result) is the same for any thread count; the qubit
    # has no slot structure, so its whole chain is one slot
    dtheta, chi, offsets = kernels.merge_coaxial(
        dtheta, chi, None if protocol == "qubit" else offsets)
    workers = _resolve_threads(threads)
    r = dtheta.shape[0]
    if workers == 1 or r < 4 * workers:
        return batch_populations(protocol, dtheta, chi, offsets, initial)
    out = np.empty((r, PROTOCOLS[protocol].levels))
    bounds = np.linspace(0, r, workers + 1, dtype=int)

    def work(k):
        lo, hi = bounds[k], bounds[k + 1]
        if hi > lo:
            out[lo:hi] = batch_populations(protocol, dtheta[lo:hi], chi[lo:hi], offsets, initial)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, range(workers)))
    return out


def _sample_batch(scenario, n_slots, realizations, master_seed, point_index):
    """(dtheta, chi, offsets) of the ensemble; row r comes from its own
    default_rng([master_seed, point_index, r])."""
    offsets = scenario.offsets(n_slots)
    n_seg = int(offsets[-1])
    dtheta = np.empty((realizations, n_seg))
    chi = np.empty((realizations, n_seg))
    for r in range(realizations):
        rng = np.random.default_rng([master_seed, point_index, r])
        dtheta[r], chi[r] = scenario.sample(n_slots, rng)
    return dtheta, chi, offsets


def _markers(protocol, batch, threads) -> np.ndarray:
    pops = _populations_parallel(protocol, *batch, threads)
    return pops[:, PROTOCOLS[protocol].marker]


def ensemble_markers(protocol, scenario, n_slots, realizations, master_seed,
                     point_index=0, threads=0) -> np.ndarray:
    """Marker populations of `realizations` independent protocol runs."""
    batch = _sample_batch(scenario, n_slots, realizations, master_seed, point_index)
    return _markers(protocol, batch, threads)


def _stats(markers_by_point: list[np.ndarray]) -> EnsembleStats:
    count = len(markers_by_point[0])
    mean = np.array([m.mean() for m in markers_by_point])
    if count > 1:
        var = np.array([m.var(ddof=1) for m in markers_by_point])
    else:
        var = np.zeros(len(markers_by_point))
    return EnsembleStats(mean=mean, variance=var, std=np.sqrt(var), count=count)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Mean and variance of the marker population over the n_values grid."""
    markers = [
        ensemble_markers(
            config.protocol, config.scenario, n, config.realizations,
            config.master_seed, point_index=i, threads=config.threads,
        )
        for i, n in enumerate(config.n_values)
    ]
    return SweepResult(config=config, stats=_stats(markers))


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


@dataclass(frozen=True)
class KappaSweepResult:
    n_values: tuple[int, ...]
    kappa_inv_values: tuple[float, ...]
    mean: np.ndarray      # shape (len(n_values), len(kappa_inv_values))
    variance: np.ndarray
    std: np.ndarray
    count: int
    anomalies: tuple[int, ...]
    protocol: str = "cifm"


def sweep_kappa_N(n_values, kappa_inv_values, delta_theta, realizations=500,
                  master_seed=0, total_duration=1e-5, sample_rate=1e9,
                  protocol="cifm", threads=0) -> KappaSweepResult:
    """Marker statistics over the (n_slots, correlation time) grid.

    Binary noise with per-sample steps of +-delta_theta whose sign is held
    across each drive interval, switching between intervals at the
    discretized Poisson rate.  Correlation times must not exceed the
    sequence duration.
    """
    n_values = tuple(int(n) for n in n_values)
    kappa_inv_values = tuple(float(k) for k in kappa_inv_values)
    for k in kappa_inv_values:
        if not 0 < k <= total_duration:
            raise ValueError(f"kappa_inv {k:g} outside (0, {total_duration:g}]")
    mean = np.empty((len(n_values), len(kappa_inv_values)))
    var = np.empty_like(mean)
    point = 0
    for i, n in enumerate(n_values):
        for j, kinv in enumerate(kappa_inv_values):
            scenario = BinarySampledNoise(
                kappa_inv=kinv, total_duration=total_duration,
                delta_theta=delta_theta, sample_rate=sample_rate,
            )
            markers = ensemble_markers(
                protocol, scenario, n, realizations, master_seed,
                point_index=point, threads=threads,
            )
            mean[i, j] = markers.mean()
            var[i, j] = markers.var(ddof=1) if realizations > 1 else 0.0
            point += 1
    anomalies = transparency_anomalies(n_values, delta_theta, total_duration, sample_rate)
    return KappaSweepResult(
        n_values=n_values, kappa_inv_values=kappa_inv_values, mean=mean,
        variance=var, std=np.sqrt(var), count=realizations,
        anomalies=tuple(anomalies), protocol=protocol,
    )


@dataclass(frozen=True)
class ClusteringResult:
    n_values: tuple[int, ...]
    kappa_inv_values: tuple[float, ...]
    cifm_mean: np.ndarray   # (len(n_values), len(kappa_inv_values))
    cifm_std: np.ndarray
    pifm_mean: np.ndarray
    count: int


def clustering_sweep(n_values, kappa_inv_values, realizations=2000, master_seed=0,
                     theta=math.pi, total_duration=1e-5, threads=0) -> ClusteringResult:
    """Coherent-detector sensitivity to noise clustering, with projective control.

    One +-theta sample per drive interval; slower switching (larger
    correlation time) clusters equal signs together and raises the coherent
    marker, while the projective detector sees only |theta| and stays flat.
    """
    n_values = tuple(int(n) for n in n_values)
    kappa_inv_values = tuple(float(k) for k in kappa_inv_values)
    shape = (len(n_values), len(kappa_inv_values))
    cifm_mean = np.empty(shape)
    cifm_std = np.empty(shape)
    pifm_mean = np.empty(shape)
    point = 0
    for i, n in enumerate(n_values):
        for j, kinv in enumerate(kappa_inv_values):
            scenario = BinarySlotNoise(kappa_inv=kinv, total_duration=total_duration, theta=theta)
            # one noise batch per point feeds both detectors
            batch = _sample_batch(scenario, n, realizations, master_seed, point)
            cifm = _markers("cifm", batch, threads)
            pifm = _markers("pifm", batch, threads)
            cifm_mean[i, j] = cifm.mean()
            cifm_std[i, j] = cifm.std(ddof=1) if realizations > 1 else 0.0
            pifm_mean[i, j] = pifm.mean()
            point += 1
    return ClusteringResult(
        n_values=n_values, kappa_inv_values=kappa_inv_values,
        cifm_mean=cifm_mean, cifm_std=cifm_std, pifm_mean=pifm_mean,
        count=realizations,
    )


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
    ordering while the projective marker sees only the multiset of angles.
    """
    rows = []
    for config in TABLE_CONFIGS:
        dtheta = np.array(config)[np.newaxis, :]
        chi = np.full_like(dtheta, AMPLITUDE_AXIS)
        offsets = np.arange(5, dtype=np.int64)
        cifm, pifm = (batch_populations(protocol, dtheta, chi, offsets, basis_state(3, 0))[0, 0]
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
                 master_seed=0, n_slots=40, threads=0) -> GFEstimate:
    """Reconstruct the counting-field generating function from qubit runs.

    Each realization draws a Poisson number of theta pulses over the
    sequence and scatters them uniformly over the drive slots; the same
    event trains are reused across the whole lambda grid (the attenuator is
    swept, the noise is not redrawn), which makes finite differences across
    lambda nearly noise-free.  From the ground state the marker gives
    Re GF = 1 - 2 E[p_e]; from (|g> + |e>)/sqrt(2) it gives
    Im GF = 2 E[p_e] - 1.
    """
    lambda_values = np.asarray(lambda_values, dtype=np.float64)
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    counts = np.zeros((realizations, n_slots))
    for r in range(realizations):
        rng = np.random.default_rng([master_seed, 0, r])
        m = rng.poisson(kappa * total_duration)
        slots = rng.integers(0, n_slots, m)
        np.add.at(counts[r], slots, 1.0)
    ground = basis_state(2, 0)
    plus = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
    chi = np.full_like(counts, AMPLITUDE_AXIS)
    re = np.empty(lambda_values.size)
    im = np.empty(lambda_values.size)
    err = np.empty(lambda_values.size)
    sqrt_r = math.sqrt(realizations)
    for i, lam in enumerate(lambda_values):
        dtheta = counts * (lam * theta)
        pe_g = _populations_parallel("qubit", dtheta, chi, None, threads, initial=ground)[:, 1]
        pe_p = _populations_parallel("qubit", dtheta, chi, None, threads, initial=plus)[:, 1]
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


@dataclass(frozen=True)
class ZeroFreqReport:
    """Cross-check of the second moment against the zero-frequency PSD."""

    theta_t2_fcs: float
    theta_t2_psd: float
    tolerance: float = 0.15

    @property
    def ratio(self) -> float:
        if self.theta_t2_psd == 0.0:
            return 1.0 if self.theta_t2_fcs == 0.0 else math.inf
        return self.theta_t2_fcs / self.theta_t2_psd

    @property
    def agrees(self) -> bool:
        return abs(self.ratio - 1.0) <= self.tolerance


def zero_freq_psd_check(kappa, theta, total_duration, realizations,
                        master_seed=0, n_slots=40, moment_step=0.01,
                        threads=0) -> ZeroFreqReport:
    """Compare <theta_T^2> from the generating function with T * S(f=0).

    The two sides use independently seeded ensembles: the left from
    finite-difference moments of the reconstructed generating function, the
    right from the lowest periodogram bin of the simulated drive-strength
    train, scaled by the sequence duration.
    """
    gf = fcs_estimate(kappa, theta, total_duration,
                      np.array([-moment_step, 0.0, moment_step]),
                      realizations, master_seed=master_seed, n_slots=n_slots,
                      threads=threads)
    fcs_value = moments_from_gf(gf, 2)
    tau_slot = total_duration / n_slots
    dc = 0.0
    for r in range(realizations):
        rng = np.random.default_rng([master_seed, 1, r])
        m = rng.poisson(kappa * total_duration)
        slots = rng.integers(0, n_slots, m)
        series = np.zeros(n_slots)
        np.add.at(series, slots, theta / tau_slot)
        freqs, psd = estimate_psd(series, 1.0 / tau_slot)
        dc += psd[np.argmin(np.abs(freqs))]
    psd_value = total_duration * dc / realizations
    return ZeroFreqReport(theta_t2_fcs=fcs_value, theta_t2_psd=psd_value)
