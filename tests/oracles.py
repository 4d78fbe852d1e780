"""Dense reference implementations that the tests compare the kernels against.

Conventions (qutrit basis |0>, |1>, |2>):

* A beam splitter rotates the 0-1 subspace about y by an angle phi and
  leaves |2> untouched.  Its 0-1 block is [[cos(phi/2), -sin(phi/2)],
  [sin(phi/2), cos(phi/2)]], so it maps |0> -> cos(phi/2)|0> + sin(phi/2)|1>.
* A drive pulse of angle theta about the in-plane axis (cos(chi), -sin(chi))
  acts on the sensing transition: g-e for the qubit, 1-2 for the qutrit.
  Its active block is [[cos(theta/2), -i e^{i chi} sin(theta/2)],
  [-i e^{-i chi} sin(theta/2), cos(theta/2)]].  With chi = -pi/2 every
  matrix here is real.

theta + 4*pi gives the same pulse as theta (spinor period), which is what
makes the detectors transparent to drive angles at integer multiples of 4*pi.
Every function here is a literal matrix product or a closed form; none of
them shares code with the kernels.  brute_force_mean and exact_mean give
the exact ensemble mean of telegraph slot noise, one by enumerating the
2^n sign sequences through the kernels, the other by the stochastic
Liouville equation in dense matrices.

NoiseTrace and trace_to_segments slice a uniformly sampled noise trace into
one segment per sample: the per-sample reference for the slot-level
segments that experiments.BinarySampledNoise emits.  slot_slices is the
scalar per-slot loop that experiments.slot_samples counts in one
expression.

telegraph_periodogram is the exact expected periodogram of the sampled
telegraph chain, and family_wise_k the standard-error multiple that holds
a family of such checks to one stated false-alarm rate.

The last section holds the counting-statistics cross-checks: slot-resolved
Poisson pulse trains from the keyed generator that fcs_estimate draws its
totals from, the generating function with every realization evolved, and
the comparison of the generating function's second moment with the
zero-frequency power spectral density of those trains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from ifmsim.experiments import GFEstimate, fcs_estimate, moments_from_gf
from ifmsim.noise import estimate_psd
from ifmsim.protocols import PROTOCOLS, basis_state, batch_populations

ATOL = 1e-12

#: Axis angle of pure amplitude noise.
AXIS = -math.pi / 2


def pure_density(psi: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| as a dense density matrix."""
    psi = np.asarray(psi, dtype=np.complex128)
    return np.outer(psi, psi.conj())


def is_unitary(u: np.ndarray, atol: float = ATOL) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    eye = np.eye(u.shape[0])
    return bool(np.all(np.abs(u.conj().T @ u - eye) <= atol))


def beam_splitter(n_slots: int) -> np.ndarray:
    """3x3 beam splitter of strength phi = pi / (n_slots + 1)."""
    phi = math.pi / (n_slots + 1)
    c = math.cos(phi / 2.0)
    s = math.sin(phi / 2.0)
    u = np.zeros((3, 3), dtype=np.complex128)
    u[0, 0] = c
    u[0, 1] = -s
    u[1, 0] = s
    u[1, 1] = c
    u[2, 2] = 1.0
    return u


def qubit_b_pulse(theta: float, phi: float) -> np.ndarray:
    """2x2 drive pulse of angle theta about axis (cos(phi), -sin(phi))."""
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    e = complex(math.cos(phi), math.sin(phi))
    return np.array(
        [[c, -1j * e * s], [-1j * e.conjugate() * s, c]], dtype=np.complex128
    )


def qutrit_b_pulse(theta: float, phi: float) -> np.ndarray:
    """3x3 drive pulse: identity on |0>, rotation by theta on the 1-2 block."""
    u = np.zeros((3, 3), dtype=np.complex128)
    u[0, 0] = 1.0
    u[1:, 1:] = qubit_b_pulse(theta, phi)
    return u


def composed_pulse(dtheta, chi, dim: int) -> np.ndarray:
    """Time-ordered product of segment unitaries (earliest segment rightmost).

    dtheta and chi are the 1-d angle and axis arrays of one slot's segments.
    This is a literal matrix product, not an averaged-rotation approximation;
    segments sharing one axis therefore compose exactly to the single pulse
    with the summed angle (up to double-precision roundoff).
    """
    make = {2: qubit_b_pulse, 3: qutrit_b_pulse}[dim]
    u = np.eye(dim, dtype=np.complex128)
    for theta, phi in zip(np.asarray(dtheta, dtype=float), np.asarray(chi, dtype=float)):
        u = make(float(theta), float(phi)) @ u
    return u


def pifm_measure_channel(rho: np.ndarray) -> np.ndarray:
    """Nonselective projective measurement distinguishing |2> from {|0>, |1>}.

    Returns P2 rho P2 + P01 rho P01: the diagonal blocks survive and every
    coherence between |2> and the 0-1 subspace is set to exactly zero.
    Trace is preserved and the channel is idempotent.
    """
    out = np.array(rho, dtype=np.complex128)
    out[0, 2] = 0.0
    out[1, 2] = 0.0
    out[2, 0] = 0.0
    out[2, 1] = 0.0
    return out


def lumped_pulse_amplitudes(n_slots: int, slot: int, theta: float) -> tuple[float, float, float]:
    """Final-state amplitudes when all drive power lands in a single slot.

    For a protocol with n_slots intervals where slot `slot` (1-based,
    0 < slot < n_slots) carries one pulse of angle n_slots * theta and every
    other interval is empty, the final state after the full beam-splitter
    train is c0|0> + c1|1> + c2|2> with

        c0 = sin(slot * phi) * sin^2(n_slots * theta / 4)
        c1 = cos^2(n_slots * theta / 4) + cos(slot * phi) * sin^2(n_slots * theta / 4)
        c2 = sin(n_slots * theta / 2) * sin(slot * phi / 2)

    and phi = pi / (n_slots + 1).  The amplitudes are exactly real for the
    chi = -pi/2 axis.
    """
    if not 0 < slot < n_slots:
        raise ValueError(f"slot must satisfy 0 < slot < n_slots, got {slot} of {n_slots}")
    phi = math.pi / (n_slots + 1)
    big = n_slots * theta
    s4 = math.sin(big / 4.0) ** 2
    c0 = math.sin(slot * phi) * s4
    c1 = math.cos(big / 4.0) ** 2 + math.cos(slot * phi) * s4
    c2 = math.sin(big / 2.0) * math.sin(slot * phi / 2.0)
    return c0, c1, c2


def n2_alternating_state(theta: float) -> np.ndarray:
    """Closed-form final state of the two-slot sequence with angles (+theta, -theta).

    Evaluates S B(-theta) S B(+theta) S |0> for the n_slots = 2 beam splitter
    (phi = pi/3) and axis chi = -pi/2, where the first pulse +theta acts
    first.  All three amplitudes are real in this convention; the |0>
    amplitude is second order in theta but nonzero, which is what lets the
    coherent detector see sign-alternating noise that a bare qubit misses.
    """
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    r3 = math.sqrt(3.0)
    a0 = 3.0 * r3 / 8.0 - (2.0 * r3 / 8.0) * c - (r3 / 8.0) * c * c - 0.25 * s * s
    a1 = 3.0 / 8.0 + (2.0 / 8.0) * c + (3.0 / 8.0) * c * c + (r3 / 4.0) * s * s
    a2 = ((2.0 - r3) / 4.0) * s * c - (r3 / 4.0) * s
    return np.array([a0, a1, a2], dtype=np.complex128)


def pifm_pi_train_p0(n_slots: int) -> float:
    """Projective-detector marker for a train of pi pulses in every slot.

    p0 = cos^(2(n_slots+1))(pi / (2(n_slots+1))); monotonically increasing in
    n_slots and approaching 1, independent of the pulse axis angles.
    """
    m = n_slots + 1
    return math.cos(math.pi / (2.0 * m)) ** (2 * m)


def brute_force_mean(protocol: str, n: int, theta: float, flip_prob: float) -> float:
    """Exact ensemble mean marker of binary slot noise, by enumeration.

    Each of the 2^n sequences of slot angles +-theta on the amplitude axis
    gets its Markov weight: 1/2 for the first sign, then flip_prob for each
    sign change and 1 - flip_prob for each repeat.  One batch_populations
    call runs the whole (2^n, n) block.
    """
    signs = 2.0 * (np.arange(1 << n)[:, np.newaxis] >> np.arange(n) & 1) - 1.0
    steps = np.where(signs[:, 1:] != signs[:, :-1], flip_prob, 1.0 - flip_prob)
    weights = 0.5 * np.prod(steps, axis=1)
    levels, marker = PROTOCOLS[protocol]
    pops = batch_populations(protocol, signs * theta, np.full(signs.shape, AXIS),
                             np.arange(n + 1), basis_state(levels, 0))
    return float(weights @ pops[:, marker])


def exact_mean(protocol: str, n: int, theta: float, flip_prob: float) -> float:
    """brute_force_mean's value in O(n), by the stochastic Liouville equation.

    The slot signs are a two-state Markov chain, so the mean over all 2^n
    sequences needs only two sign-conditioned density matrices: rho_+ and
    rho_- sum the states of the sequences whose current slot drives +theta
    or -theta, each weighted by its probability (Kubo, "Stochastic
    Liouville equations", J. Math. Phys. 4, 174 (1963)).  Each starts as
    half the initial state; at every slot boundary the pair mixes by the
    flip matrix [[1 - q, q], [q, 1 - q]], and each is then driven by
    U(+-theta) on the amplitude axis.  A qutrit adds its beam splitters,
    and pifm its |2> measurement after each slot, whose click branch leaves
    the sum.  The qubit runs the flat chain, as the kernels do.
    """
    levels, marker = PROTOCOLS[protocol]
    s = beam_splitter(n) if levels == 3 else np.eye(2)
    no_click = np.diag([1.0, 1.0, 0.0])
    rho = 0.5 * (s @ pure_density(basis_state(levels, 0)) @ s.conj().T)
    pair = [rho, rho]
    pulses = [composed_pulse([sign * theta], [AXIS], levels) for sign in (1.0, -1.0)]
    q = flip_prob
    for j in range(n):
        if j:
            pair = [(1.0 - q) * pair[0] + q * pair[1], q * pair[0] + (1.0 - q) * pair[1]]
        pair = [u @ r @ u.conj().T for u, r in zip(pulses, pair)]
        if protocol == "pifm":
            pair = [no_click @ r @ no_click for r in pair]
        pair = [s @ r @ s.conj().T for r in pair]
    return float((pair[0] + pair[1])[marker, marker].real)


# ---------------------------------------------------------------------------
# sampled noise traces: one segment per trace sample
# ---------------------------------------------------------------------------

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


def slot_slices(n_slots: int, total_duration: float, sample_rate: float
                ) -> list[tuple[int, int]]:
    """Index ranges [lo, hi) of the trace samples inside each of n_slots
    equal slots filling total_duration, one slot at a time.

    Sample p represents time p / sample_rate; a small epsilon guards the
    float boundary arithmetic.
    """
    eps = 1e-9
    tau = total_duration / n_slots
    slices = []
    for j in range(n_slots):
        start = j * tau
        slices.append((math.ceil(start * sample_rate - eps),
                       math.ceil((start + tau) * sample_rate - eps)))
    return slices


def trace_to_segments(trace: NoiseTrace, n_slots: int, total_duration: float
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slice a noise trace into a one-realization segment batch, sample by sample.

    Each trace sample p inside slot j of n_slots equal slots filling
    total_duration becomes one segment with delta_theta = zeta[p] /
    sample_rate and axis chi[p].  Returns (dtheta, chi, offsets): dtheta
    and chi of shape (1, segments), and the slot boundaries, as
    protocols.batch_populations takes them.
    """
    if trace.duration < total_duration - 1e-12:
        raise ValueError(
            f"trace of duration {trace.duration:g} is shorter than the "
            f"protocol duration {total_duration:g}"
        )
    slices = slot_slices(n_slots, total_duration, trace.sample_rate)
    for j, (lo, hi) in enumerate(slices, start=1):
        if hi <= lo or hi > trace.n_samples:
            raise ValueError(f"slot {j} contains no trace samples")
    keep = np.concatenate([np.arange(lo, hi) for lo, hi in slices])
    offsets = np.zeros(len(slices) + 1, dtype=np.int64)
    np.cumsum([hi - lo for lo, hi in slices], out=offsets[1:])
    return (trace.zeta[keep][np.newaxis, :] / trace.sample_rate,
            trace.chi[keep][np.newaxis, :], offsets)


# ---------------------------------------------------------------------------
# telegraph laws and statistical bounds
# ---------------------------------------------------------------------------

def telegraph_periodogram(kappa: float, sample_rate: float, n: int) -> np.ndarray:
    """Exact expected periodogram of n samples of unit telegraph noise.

    The sampled chain is stationary with correlation rho^|k| between
    samples k apart, rho = exp(-2 kappa / sample_rate), so bin j of
    estimate_psd (one segment) has the mean

        (n + 2 sum_{k=1}^{n-1} (n - k) rho^k cos(2 pi j k / n)) / (sample_rate n).

    Returned in estimate_psd's order, negative to positive frequencies.
    """
    k = np.arange(1, n)
    weights = np.concatenate(([0.0], (n - k) * np.exp(-2.0 * kappa / sample_rate * k)))
    cosine_sums = np.fft.fft(weights).real
    return np.fft.fftshift((n + 2.0 * cosine_sums) / (sample_rate * n))


def family_wise_k(alpha: float, m: int) -> float:
    """Standard-error multiple k that holds m two-sided checks |z| <= k to a
    family-wise false-alarm rate of at most alpha (Bonferroni)."""
    return float(stats.norm.isf(alpha / (2 * m)))


# ---------------------------------------------------------------------------
# counting statistics
# ---------------------------------------------------------------------------

def event_counts(master_seed, point_index, mean_events, realizations, n_slots) -> np.ndarray:
    """(realizations, n_slots) event counts of Poisson pulse trains.

    Each row holds a Poisson(mean_events) number of events, each in a
    uniform slot.  The per-row event counts and the slots of all events come
    from two child streams of the generator keyed by (master_seed,
    point_index), both drawn row by row; fcs_estimate draws its per-row
    totals from the first of them at point_index 0.
    """
    keyed = np.random.default_rng(np.random.SeedSequence([master_seed, point_index]))
    count_rng, slot_rng = keyed.spawn(2)
    events = count_rng.poisson(mean_events, realizations)
    slots = slot_rng.integers(0, n_slots, events.sum())
    rows = np.repeat(np.arange(realizations), events)
    flat = np.bincount(rows * n_slots + slots, minlength=realizations * n_slots)
    return flat.reshape(realizations, n_slots)


def fcs_every_row(kappa, theta, total_duration, lambda_values, realizations,
                  master_seed=0) -> GFEstimate:
    """fcs_estimate as it reads with every realization evolved.

    The same keyed Poisson totals, one kernel row per realization and one
    kernel call per initial state at every lambda point, with no
    distinct-count reduction: fcs_estimate must equal it bit for bit.
    """
    lambda_values = np.asarray(lambda_values, dtype=np.float64)
    keyed = np.random.default_rng(np.random.SeedSequence([master_seed, 0]))
    count_rng, _ = keyed.spawn(2)
    events = count_rng.poisson(kappa * total_duration, realizations)
    unit = (events * theta)[:, np.newaxis]
    plus = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
    re, im, err = (np.empty(lambda_values.size) for _ in range(3))
    for i, lam in enumerate(lambda_values):
        pe_g, pe_p = (batch_populations("qubit", unit * lam, None, None, psi0)[:, 1]
                      for psi0 in (basis_state(2, 0), plus))
        re[i] = 1.0 - 2.0 * pe_g.mean()
        im[i] = 2.0 * pe_p.mean() - 1.0
        err[i] = (2.0 * max(pe_g.std(ddof=1), pe_p.std(ddof=1)) / math.sqrt(realizations)
                  if realizations > 1 else 0.0)
    return GFEstimate(lambda_values=lambda_values, re=re, im=im, statistical_error=err)


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
                        master_seed=0, n_slots=40, moment_step=0.01) -> ZeroFreqReport:
    """Compare <theta_T^2> from the generating function with T * S(f=0).

    The two sides use independently seeded ensembles: the left from
    finite-difference moments of the reconstructed generating function, the
    right from the lowest periodogram bin of the simulated drive-strength
    train, scaled by the sequence duration.
    """
    gf = fcs_estimate(kappa, theta, total_duration,
                      np.array([-moment_step, 0.0, moment_step]),
                      realizations, master_seed=master_seed)
    fcs_value = moments_from_gf(gf, 2)
    tau_slot = total_duration / n_slots
    trains = event_counts(master_seed, 1, kappa * total_duration, realizations, n_slots)
    dc = 0.0
    for series in trains * (theta / tau_slot):
        freqs, psd = estimate_psd(series, 1.0 / tau_slot)
        dc += psd[np.argmin(np.abs(freqs))]
    psd_value = total_duration * dc / realizations
    return ZeroFreqReport(theta_t2_fcs=fcs_value, theta_t2_psd=psd_value)
