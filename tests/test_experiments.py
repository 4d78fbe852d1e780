import configparser
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ifmsim import experiments, kernels
from ifmsim.experiments import (
    BinarySlotNoise,
    ColoredPhase,
    SweepConfig,
    WhiteAmplitude,
    ZeroSumAmplitude,
    clustering_sweep,
    ensemble_markers,
    marker_table,
    run_sweep,
    slot_samples,
    sweep_kappa_N,
    transparency_anomalies,
)
from ifmsim.cli import parse_int_list
from ifmsim.protocols import basis_state, batch_populations
from oracles import (
    AXIS,
    NoiseTrace,
    brute_force_mean,
    exact_mean,
    family_wise_k,
    float_telegraph_slots,
    packed_signs,
    pifm_pi_train_p0,
    slot_slices,
    trace_to_segments,
)


def test_zero_amplitude_noise_gives_zero_marker():
    config = SweepConfig(
        protocol="cifm", scenario=WhiteAmplitude(0.0, 0.0),
        n_values=(1, 5, 20), realizations=10, master_seed=1,
    )
    result = run_sweep(config)
    assert np.max(result.stats["cifm"].mean) < 1e-12


def test_zero_sum_scenario_handles_single_slot():
    # the only zero-sum sequence with one slot is the empty pulse
    markers = ensemble_markers("cifm", ZeroSumAmplitude(np.pi), 1, 8, 3, point_index=0)
    assert np.max(markers) < 1e-12


def test_markers_independent_of_realization_count_prefix():
    # seeds are per-realization, so growing R extends the ensemble
    small = ensemble_markers("qubit", WhiteAmplitude(0, np.pi), 5, 20, 7, point_index=3)
    large = ensemble_markers("qubit", WhiteAmplitude(0, np.pi), 5, 50, 7, point_index=3)
    assert np.array_equal(small, large[:20])


SCENARIOS = {
    "zero_sum": ZeroSumAmplitude(np.pi),
    "amplitude": WhiteAmplitude(0, np.pi),
    "amplitude_phase": experiments.WhiteAmplitudePhase(np.pi, samples_per_slot=3),
    "phase": experiments.WhitePhase(np.pi, samples_per_slot=2),
    "colored_phase": ColoredPhase(alpha=1),
    "binary_slot": BinarySlotNoise(kappa_inv=3e-6, total_duration=1e-5),
    "binary_sampled": experiments.BinarySampledNoise(
        kappa_inv=3e-6, total_duration=1e-5, delta_theta=np.pi / 250, sample_rate=1e9),
}


#: The scenarios whose every segment lies on the amplitude axis (chi = None).
AMPLITUDE_AXIS_SCENARIOS = {"zero_sum", "amplitude", "binary_slot", "binary_sampled"}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_batch_extends_with_realizations(name):
    # each random quantity is one row-major draw from its own stream, and
    # every slot gets the same number of segments: _sample_batch derives
    # the slot offsets from the batch width
    scenario = SCENARIOS[name]
    small = scenario.sample(7, 20, np.random.default_rng([5, 3]))
    large = scenario.sample(7, 50, np.random.default_rng([5, 3]))
    if name in AMPLITUDE_AXIS_SCENARIOS:
        assert small[1] is None and large[1] is None
        small, large = small[:1], large[:1]
    for a, b in zip(small, large):
        a, b = np.asarray(a), np.asarray(b)  # a telegraph batch expands to its angles
        assert a.shape[0] == 20 and a.shape[1] >= 7 and a.shape[1] % 7 == 0
        assert a.shape == small[0].shape
        assert np.array_equal(a, b[:20])


def test_transparency_anomaly_detection():
    anomalies = transparency_anomalies(range(1, 41), np.pi / 250, 1e-5, 1e9)
    assert anomalies == [1, 2, 5, 10]
    none = transparency_anomalies(range(1, 41), np.pi / 1000, 1e-5, 1e9)
    assert none == []


def test_kappa_sweep_anomalous_rows_vanish():
    grid = sweep_kappa_N(
        n_values=(2, 16), kappa_inv_values=(2e-6, 1e-5), delta_theta=np.pi / 250,
        realizations=40, master_seed=5, total_duration=1e-5, sample_rate=1e9,
    )
    assert grid.anomalies == (2,)
    assert np.max(grid.stats["cifm"].mean[0]) < 1e-10       # transparent everywhere
    assert np.min(grid.stats["cifm"].mean[1]) > 0.85        # detected everywhere
    assert grid.stats["cifm"].mean.shape == (2, 2)


def test_anomalies_count_the_samples_each_slot_holds():
    # at n = 4000 the nominal slot holds 2.5 samples of 4 pi / 2.5, a whole
    # turn; the slots really hold 2 or 3 samples (0.8 and 1.2 turns), so the
    # detector sees the noise.  At n = 5000 every slot holds 2 samples of
    # 2 pi: 4 pi, transparent.
    total, rate = 1e-5, 1e9
    assert transparency_anomalies((4000,), 4 * np.pi / 2.5, total, rate) == []
    assert transparency_anomalies((5000,), 2 * np.pi, total, rate) == [5000]
    seen = sweep_kappa_N((4000,), (2e-6,), 4 * np.pi / 2.5, realizations=40, master_seed=3,
                         total_duration=total, sample_rate=rate)
    blind = sweep_kappa_N((5000,), (2e-6,), 2 * np.pi, realizations=40, master_seed=3,
                          total_duration=total, sample_rate=rate)
    assert seen.anomalies == () and seen.stats["cifm"].mean[0, 0] > 0.1
    assert blind.anomalies == (5000,) and blind.stats["cifm"].mean[0, 0] < 1e-10


def test_kappa_sweep_rejects_out_of_range_correlation_time():
    with pytest.raises(ValueError):
        sweep_kappa_N((4,), (2e-5,), np.pi / 250, realizations=2, total_duration=1e-5)


def test_clustering_cifm_grows_and_pifm_flat():
    t = 1e-5
    kinvs = np.linspace(t / 10, t, 6)
    result = clustering_sweep((4, 10), kinvs, realizations=400, master_seed=11, total_duration=t)
    for i, n in enumerate((4, 10)):
        closed = pifm_pi_train_p0(n)
        assert np.max(np.abs(result.stats["pifm"].mean[i] - closed)) < 1e-10
        se = result.stats["cifm"].std[i] / math.sqrt(result.stats["cifm"].count)
        diffs = np.diff(result.stats["cifm"].mean[i])
        slack = 2.0 * np.sqrt(se[1:] ** 2 + se[:-1] ** 2)
        assert np.all(diffs >= -slack)
    # clustering raises the coherent marker overall
    assert result.stats["cifm"].mean[0, -1] > result.stats["cifm"].mean[0, 0] + 0.05


def test_marker_table_values_and_symmetries():
    rows = marker_table()
    for (cfg, cifm, pifm), (exp_c, exp_p) in zip(rows, experiments.TABLE_EXPECTED):
        assert abs(cifm - exp_c) < 1e-3
        assert abs(pifm - exp_p) < 1e-3
    # reversal pairs share the coherent marker exactly
    by_config = {cfg: c for cfg, c, _ in rows}
    for cfg in experiments.TABLE_CONFIGS:
        assert abs(by_config[cfg] - by_config[cfg[::-1]]) < 1e-12
    # alternating-sign rows share one projective marker
    pifm_vals = [p for cfg, _, p in rows if all(t != 0 for t in cfg)]
    assert np.ptp(pifm_vals) < 1e-12


def test_binary_slot_counts_are_binomial():
    # fast switching makes the per-slot signs fair coin flips
    n, draws = 12, 10_000
    t = 1e-5
    scenario = BinarySlotNoise(kappa_inv=t / 1000, total_duration=t, theta=0.3)
    batch, _ = scenario.sample(n, draws, np.random.default_rng([21, 0]))
    dtheta = np.asarray(batch)
    assert batch.shape == dtheta.shape == (draws, n)
    ks = np.sum(dtheta > 0, axis=1)
    observed = np.bincount(ks, minlength=n + 1)
    expected = stats.binom.pmf(np.arange(n + 1), n, 0.5) * draws
    keep = expected > 5
    chi2 = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
    assert stats.chi2.sf(chi2, keep.sum() - 1) > 0.001


def test_binomial_gaussian_limit():
    # normalized large-n limit of C(n,k)/2^n: sqrt(2/(pi n)) exp(-2(k-n/2)^2/n)
    n, draws = 100, 20_000
    rng = np.random.default_rng(33)
    ks = rng.binomial(n, 0.5, draws)
    centers = np.arange(35, 66)
    hist = np.array([(ks == k).mean() for k in centers])
    gauss = math.sqrt(2.0 / (math.pi * n)) * np.exp(-2.0 * (centers - n / 2) ** 2 / n)
    assert np.max(np.abs(hist - gauss)) < 0.01


@pytest.mark.parametrize("protocol", ["qubit", "cifm", "pifm"])
def test_monte_carlo_matches_brute_force(protocol):
    n, theta = 8, 2.0
    t = 1e-5
    kappa_inv = t / 3
    tau = t / n
    q = 0.5 * (1.0 - math.exp(-2.0 * tau / kappa_inv))
    exact = brute_force_mean(protocol, n, theta, q)
    markers = ensemble_markers(
        protocol, BinarySlotNoise(kappa_inv=kappa_inv, total_duration=t, theta=theta),
        n, 10_000, master_seed=77, point_index=0,
    )
    se = markers.std(ddof=1) / math.sqrt(markers.size)
    assert abs(markers.mean() - exact) < 4 * max(se, 1e-12)


@pytest.mark.parametrize("protocol", ["qubit", "cifm", "pifm"])
def test_exact_mean_matches_brute_force(protocol):
    for n in range(1, 10):
        for theta, q in ((2.0, 0.1), (math.pi, 0.45), (0.3, 0.0), (7.0, 0.5)):
            assert abs(exact_mean(protocol, n, theta, q)
                       - brute_force_mean(protocol, n, theta, q)) <= 1e-12


def shipped_config(name):
    config = configparser.ConfigParser(inline_comment_prefixes=(";",))
    config.read(Path(__file__).resolve().parent.parent / "configs" / name)
    return config


def test_clustering_config_points_match_their_exact_means():
    # every cifm point of the shipped clustering sweep lies within k standard
    # errors of its exact mean, k from a two-sided family-wise false-alarm
    # rate of 1e-3 over the 32 points (Bonferroni): k = 4.17.  The pifm
    # control sees only |theta|, so each of its points is the exact mean
    config = shipped_config("clustering.cfg")
    n_values = [int(n) for n in config["grid"]["n_values"].split(",")]
    fractions = [float(f) for f in config["grid"]["kappa_inv_fractions"].split(",")]
    total, theta = float(config["timing"]["total_duration"]), float(config["noise"]["theta"])
    result = clustering_sweep(n_values, [f * total for f in fractions],
                              realizations=int(config["run"]["realizations"]),
                              master_seed=int(config["run"]["seed"]), theta=theta,
                              total_duration=total)
    k = family_wise_k(1e-3, len(n_values) * len(fractions))
    cifm, pifm = result.stats["cifm"], result.stats["pifm"]
    for i, n in enumerate(n_values):
        for j, kappa_inv in enumerate(result.params):
            q = 0.5 * (1.0 - math.exp(-2.0 * (total / n) / kappa_inv))
            se = cifm.std[i, j] / math.sqrt(cifm.count)
            assert abs(cifm.mean[i, j] - exact_mean("cifm", n, theta, q)) <= k * se, (n, kappa_inv)
            assert abs(pifm.mean[i, j] - exact_mean("pifm", n, theta, q)) <= 1e-12, (n, kappa_inv)


def test_anomaly_grid_config_points_match_their_exact_means():
    # every cifm point of the shipped kappa-mode sweep lies within k standard
    # errors of its exact mean, k from a family-wise false-alarm rate of 1e-3
    # over the 90 points; slot j drives +-delta_theta times its trace samples.
    # The transparent counts (n = 1, 2, 5, 10) and n = 20, whose every slot
    # is 2 pi and whose sign pattern never moves the marker, have only
    # rounding-level spread, so no point is held tighter than 1e-12
    config = shipped_config("anomaly_grid.cfg")
    n_values = parse_int_list(config["grid"]["n_values"])
    fractions = [float(f) for f in config["grid"]["kappa_inv_fractions"].split(",")]
    total = float(config["timing"]["total_duration"])
    rate = float(config["timing"]["sample_rate"])
    delta = float(config["noise"]["delta_theta"])
    result = sweep_kappa_N(n_values, [f * total for f in fractions], delta,
                           realizations=int(config["run"]["realizations"]),
                           master_seed=int(config["run"]["seed"]), total_duration=total,
                           sample_rate=rate)
    k = family_wise_k(1e-3, len(n_values) * len(fractions))
    cifm = result.stats["cifm"]
    for i, n in enumerate(n_values):
        angles = delta * slot_samples(n, total, rate)
        for j, kappa_inv in enumerate(result.params):
            q = 0.5 * (1.0 - math.exp(-2.0 * (total / n) / kappa_inv))
            se = cifm.std[i, j] / math.sqrt(cifm.count)
            bound = max(k * se, 1e-12)
            assert abs(cifm.mean[i, j] - exact_mean("cifm", n, angles, q)) <= bound, (n, kappa_inv)


def test_binary_sampled_batch_is_the_float_rule_with_empty_slots():
    # 12 trace samples over 17 slots leave some slots empty: their angles
    # are +-0.0 as the float product makes them, and their sign bits are
    # the unit batch's
    n, total, rate, delta = 17, 1e-5, 1.2e6, np.pi / 5
    samples = slot_samples(n, total, rate)
    assert np.any(samples == 0)
    scenario = experiments.BinarySampledNoise(kappa_inv=total / 4, total_duration=total,
                                              delta_theta=delta, sample_rate=rate)
    batch, chi = scenario.sample(n, 50, np.random.default_rng([12, 0]))
    unit = float_telegraph_slots(1.0 / (total / 4), 1.0, (50, n), total / n,
                                 np.random.default_rng([12, 0]))
    ref = unit * (delta * samples)
    assert chi is None and np.asarray(batch).tobytes() == ref.tobytes()
    assert np.array_equal(batch.signs, packed_signs(unit))


def test_colored_phase_curves_cluster_and_projective_identical():
    n_values = (1, 4, 10, 20, 40)
    realizations = 1500
    cifm_curves = {}
    pifm_curves = {}
    for alpha in (-2, -1, 0, 1, 2):
        scenario = ColoredPhase(alpha=alpha, theta_slot=np.pi / 2)
        cifm_curves[alpha] = np.array([
            ensemble_markers("cifm", scenario, n, realizations, 41, point_index=i).mean()
            for i, n in enumerate(n_values)
        ])
        pifm_curves[alpha] = np.array([
            ensemble_markers("pifm", scenario, n, realizations, 41, point_index=i).mean()
            for i, n in enumerate(n_values)
        ])
    stacked = np.vstack(list(cifm_curves.values()))
    assert np.max(stacked.max(axis=0) - stacked.min(axis=0)) < 0.1
    pstack = np.vstack(list(pifm_curves.values()))
    assert np.max(pstack.max(axis=0) - pstack.min(axis=0)) < 1e-10


def test_engine_rows_match_trace_slicing_pipeline():
    # a realization row fed to the kernels must equal the same noise routed
    # through NoiseTrace -> trace_to_segments, each segment one trace sample
    n, total, rate = 8, 1e-5, 1e8
    scenario = experiments.BinarySampledNoise(
        kappa_inv=total / 4, total_duration=total, delta_theta=np.pi / 250, sample_rate=rate,
    )
    rng = np.random.default_rng([55, 0])
    dtheta, chi = scenario.sample(n, 1, rng)
    offsets = np.arange(n + 1)  # one segment per slot

    count = int(round(rate * total))
    # expand each slot-level segment to its per-sample steps of +-delta_theta;
    # the trace's own slicing fixes how many steps each slot gets
    zeta = np.zeros(count)
    for angle, (lo, hi) in zip(np.asarray(dtheta)[0], slot_slices(n, total, rate)):
        zeta[lo:hi] = np.sign(angle) * scenario.delta_theta * rate  # step = zeta / rate
    chi_full = np.full(count, AXIS)
    segments = trace_to_segments(NoiseTrace(rate, total, zeta, chi_full), n, total)

    direct = batch_populations("cifm", dtheta, chi, offsets, basis_state(3, 0))[0, 0]
    via_trace = batch_populations("cifm", *segments, basis_state(3, 0))[0, 0]
    assert abs(direct - via_trace) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 8])
def test_slot_level_binary_noise_matches_per_sample_expansion(n):
    # n = 5 puts 2000 samples of pi/250 in a slot, 8 pi in total: transparent;
    # at n = 3 the slot edges fall between samples
    total, rate, delta = 1e-5, 1e9, np.pi / 250
    scenario = experiments.BinarySampledNoise(
        kappa_inv=total / 3, total_duration=total, delta_theta=delta, sample_rate=rate,
    )
    dtheta, chi = scenario.sample(n, 6, np.random.default_rng([8, 1]))
    # per-sample steps counted by the trace slicing, not by slot_samples
    samples = np.array([hi - lo for lo, hi in slot_slices(n, total, rate)])
    steps = np.repeat(np.sign(dtheta) * delta, samples, axis=1)
    edges = np.concatenate(([0], np.cumsum(samples)))
    for protocol in ("cifm", "pifm"):
        psi0 = basis_state(3, 0)
        slot_level = batch_populations(protocol, dtheta, chi, np.arange(n + 1), psi0)
        per_sample = batch_populations(protocol, steps, np.full_like(steps, AXIS), edges, psi0)
        assert np.max(np.abs(slot_level - per_sample)) <= 1e-12
        if n == 5:
            assert np.max(slot_level[:, 0]) < 1e-12  # the detector is blind to the noise


@pytest.mark.parametrize("total", [1e-5, 3e-6, 7.3e-7, 1.0, 2.5e-3])
@pytest.mark.parametrize("rate", [1e9, 1e6, 3.3e7, 5e6, 1.7e8, 1e3])
def test_slot_samples_equal_the_per_slot_loop(total, rate):
    # the integer count against the loop in exact fractions, slot by slot,
    # for every slot count up to 400; 1e-5 s at 1e9/s is the kappa sweep's default
    for n in range(1, 401):
        loop = [hi - lo for lo, hi in slot_slices(n, total, rate)]
        counted = experiments.slot_samples(n, total, rate)
        assert counted.dtype == np.int64
        assert counted.tolist() == loop, n


@pytest.mark.parametrize("n, total, rate, samples", [
    (10, 0.3, 1e10, 3_000_000_000),
    (7, 1.0, 1e15, 10**15),
    (40, 7e-3, 3e12, 21_000_000_000),
])
def test_slot_samples_count_each_trace_sample_once(n, total, rate, samples):
    # long traces whose slot boundaries land on samples: each sample is
    # counted in exactly one slot
    counted = slot_samples(n, total, rate)
    assert int(counted.sum()) == samples
    assert counted.tolist() == [hi - lo for lo, hi in slot_slices(n, total, rate)]
    assert counted.max() - counted.min() <= 1


def _per_point_stats(n_values, params, scenario_of, protocols, realizations, seed):
    """Each point's mean and ddof-1 variance from its own ensemble_markers call."""
    mean = np.empty((len(protocols), len(n_values), len(params)))
    var = np.zeros_like(mean)
    for k, (i, j) in enumerate(np.ndindex(mean.shape[1:])):
        for p, protocol in enumerate(protocols):
            markers = ensemble_markers(protocol, scenario_of(params[j]), n_values[i],
                                       realizations, seed, point_index=k)
            mean[p, i, j] = markers.mean()
            if realizations > 1:
                var[p, i, j] = markers.var(ddof=1)
    return mean, var


STACKED_N = (1, 3, 8, 9, 16, 40)  # partial and whole sign bytes
STACKED_KINV = (4e-8, 2e-6, 1e-5)


@pytest.mark.parametrize("realizations", [1, 7])
def test_stacked_sweeps_equal_per_point_ensembles(realizations):
    # one kernel call per slot count over every point's rows gives each point
    # exactly the statistics of its own batch
    total, delta = 1e-5, 0.0125
    clustering = clustering_sweep(STACKED_N, STACKED_KINV, realizations, 21, 2.5, total)
    mean, var = _per_point_stats(STACKED_N, STACKED_KINV,
                                 lambda kinv: BinarySlotNoise(kinv, total, 2.5),
                                 ("cifm", "pifm"), realizations, 21)
    kappa = sweep_kappa_N(STACKED_N, STACKED_KINV, delta, realizations, 21, protocol="pifm")
    kappa_mean, kappa_var = _per_point_stats(
        STACKED_N, STACKED_KINV,
        lambda kinv: experiments.BinarySampledNoise(kinv, total, delta, 1e9),
        ("pifm",), realizations, 21)
    for p, protocol in enumerate(("cifm", "pifm")):
        assert np.array_equal(clustering.stats[protocol].mean, mean[p])
        assert np.array_equal(clustering.stats[protocol].variance, var[p])
    assert np.array_equal(kappa.stats["pifm"].mean, kappa_mean[0])
    assert np.array_equal(kappa.stats["pifm"].variance, kappa_var[0])


def test_telegraph_sweeps_draw_each_slot_count_in_one_call(monkeypatch):
    # one stacked gen_telegraph_slots call per slot count, with a rate and a
    # keyed generator per correlation time
    calls = []
    draw = experiments.gen_telegraph_slots

    def recording(kappa, amplitude, shape, tau, seed):
        calls.append((len(kappa), len(seed), shape))
        return draw(kappa, amplitude, shape, tau, seed)

    monkeypatch.setattr(experiments, "gen_telegraph_slots", recording)
    clustering_sweep((4, 9), (2e-6, 5e-6, 1e-5), realizations=5)
    sweep_kappa_N((5, 20), (4e-8, 1e-5), 0.0125, realizations=3)
    assert calls == [(3, 3, (5, 4)), (3, 3, (5, 9)), (2, 2, (3, 5)), (2, 2, (3, 20))]


def test_sweeps_make_one_kernel_call_per_slot_count_and_protocol(monkeypatch):
    calls = []
    for name in ("cifm_populations", "pifm_populations"):
        def recording(dtheta, *rest, _kernel=getattr(kernels, name), _name=name):
            calls.append((_name, dtheta.shape))
            return _kernel(dtheta, *rest)
        monkeypatch.setattr(kernels, name, recording)
    config = shipped_config("clustering.cfg")
    n_values = [int(n) for n in config["grid"]["n_values"].split(",")]
    fractions = [float(f) for f in config["grid"]["kappa_inv_fractions"].split(",")]
    result = clustering_sweep(n_values, [f * 1e-5 for f in fractions], realizations=3)
    assert calls == [(f"{p}_populations", (len(fractions) * 3, n))
                     for n in n_values for p in ("cifm", "pifm")]
    assert result.counters == {"points": 32, "realizations": 96, "kernel_calls": 8}
    calls.clear()
    result = sweep_kappa_N((5, 20, 40), (4e-8, 2e-6, 1e-5), 0.0125, realizations=4)
    assert calls == [("cifm_populations", (12, n)) for n in (5, 20, 40)]
    assert result.counters == {"points": 9, "realizations": 36, "kernel_calls": 3}


@pytest.mark.parametrize("sweep", [
    lambda: run_sweep(SweepConfig("cifm", WhiteAmplitude(), (1, 4, 9), realizations=3)),
    lambda: run_sweep(SweepConfig("pifm", ZeroSumAmplitude(), (2, 5), realizations=2)),
    lambda: sweep_kappa_N((5, 20), (4e-8, 1e-5), 0.0125, realizations=3),
    lambda: clustering_sweep((2, 3, 7), (1e-7, 1e-6), realizations=2),
], ids=["run_sweep_cifm", "run_sweep_pifm", "sweep_kappa_N", "clustering_sweep"])
def test_kernel_calls_counter_counts_the_calls_made(sweep, monkeypatch):
    calls = []
    for name in ("cifm_populations", "pifm_populations"):
        def counting(*args, _kernel=getattr(kernels, name)):
            calls.append(None)
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, counting)
    assert sweep().counters["kernel_calls"] == len(calls) > 0


@pytest.mark.parametrize("scenario", [WhiteAmplitude(), experiments.WhitePhase()],
                         ids=["amplitude", "phase"])
def test_scenario_sweep_hands_the_kernel_the_sampled_batch(scenario, monkeypatch):
    # one point per slot count: the kernel reads the arrays sample() returned
    sampled, seen = [], []

    class Recorded:
        def sample(self, *args):
            sampled.append(scenario.sample(*args))
            return sampled[-1]

    kernel = kernels.cifm_populations
    monkeypatch.setattr(kernels, "cifm_populations",
                        lambda dtheta, chi, *rest: seen.append((dtheta, chi))
                        or kernel(dtheta, chi, *rest))
    run_sweep(SweepConfig(protocol="cifm", scenario=Recorded(), n_values=(1, 4, 9),
                          realizations=5))
    assert len(seen) == len(sampled) == 3
    for (dtheta, chi), (drawn, drawn_chi) in zip(seen, sampled):
        assert np.shares_memory(dtheta, drawn)
        assert chi is drawn_chi is None or np.shares_memory(chi, drawn_chi)


def _kappa(**changes):
    return sweep_kappa_N(**{"n_values": (3,), "kappa_inv_values": (1e-6,), "delta_theta": 0.01,
                            "realizations": 4, **changes})


def _clustering(**changes):
    return clustering_sweep(**{"n_values": (3,), "kappa_inv_values": (1e-6,),
                               "realizations": 4, **changes})


@pytest.mark.parametrize("driver", [_kappa, _clustering], ids=["kappa", "clustering"])
@pytest.mark.parametrize("argument, value", [
    ("n_values", ()), ("n_values", (0,)), ("n_values", (4, -1)), ("kappa_inv_values", ()),
    ("kappa_inv_values", (-1e-6,)), ("kappa_inv_values", (math.nan,)), ("realizations", 0),
    ("total_duration", -1e-5), ("total_duration", math.inf), ("n_values", (2.5,)),
    ("realizations", 2.5)])
def test_binary_sweeps_name_a_bad_argument(driver, argument, value):
    # a float slot count used to run as int(n), or fail with a TypeError
    with pytest.raises(ValueError, match=argument) as exc:
        driver(**{argument: value})
    assert exc.value.names[0] == argument


@pytest.mark.parametrize("argument, value", [
    ("n_values", (0,)), ("n_values", (-1,)), ("n_values", (2.5,)), ("n_values", (3, 2.0)),
    ("realizations", 2.5), ("realizations", 0)])
def test_scenario_sweep_names_a_slot_or_realization_count_that_is_not_whole(argument, value):
    # n = 0 divided by zero, n = -1 failed on the segment offsets, and
    # n = 2.5 ran as n = 2; a config changed by _replace is checked as well
    arguments = {"n_values": (3,), "realizations": 3, argument: value}
    with pytest.raises(ValueError, match=argument):
        run_sweep(SweepConfig("cifm", ColoredPhase(), **arguments))
    config = SweepConfig("cifm", ColoredPhase(), (3,), realizations=3)
    with pytest.raises(ValueError, match=argument):
        run_sweep(config._replace(**{argument: value}))


def test_kappa_sweep_names_a_slot_angle_that_is_not_finite_before_numpy_can_warn():
    # 1e305 rad times the 3334 samples of a slot overflows; the suite turns
    # numpy's overflow warning into an error
    with pytest.raises(ValueError, match="delta_theta") as exc:
        _kappa(delta_theta=1e305)
    assert exc.value.names == ("delta_theta",)


def test_a_trace_beyond_2_to_the_53_samples_names_total_duration():
    # 1e300 s at 1e9 samples/s used to raise OverflowError from the slot edges
    with pytest.raises(ValueError, match="total_duration") as exc:
        _kappa(total_duration=1e300)
    assert exc.value.names[0] == "total_duration"
    with pytest.raises(ValueError, match="total_duration") as exc:
        slot_samples(3, 1e300, 1e9)
    assert exc.value.names == ("total_duration", "sample_rate")
    assert slot_samples(2, 2.0**53, 1.0).tolist() == [2**52, 2**52]  # the largest trace


def test_sweeps_take_numpy_integer_counts():
    config = SweepConfig("cifm", ColoredPhase(), np.arange(2, 4), realizations=np.int64(3))
    result = run_sweep(config)
    assert result.n_values == (2, 3) and all(type(n) is int for n in result.n_values)
    assert result.counters["realizations"] == 6
    got = clustering_sweep(np.array([2, 3]), (1e-6,), realizations=np.int32(3))
    want = clustering_sweep((2, 3), (1e-6,), realizations=3)
    assert got.n_values == want.n_values
    assert np.array_equal(got.stats["cifm"].mean, want.stats["cifm"].mean)


@pytest.mark.parametrize("n", [0, -2, 2.5])
def test_slot_counts_of_the_trace_samples_must_be_whole(n):
    # n = 0 divided by zero, and transparency_anomalies reported n = -2
    with pytest.raises(ValueError, match="n_slots"):
        slot_samples(n, 1e-5, 1e9)
    with pytest.raises(ValueError, match="n_slots"):
        transparency_anomalies((n,), 0.01, 1e-5, 1e9)


@pytest.mark.parametrize("rate", [1.0, -1e9, math.inf, math.nan])
def test_kappa_sweep_names_a_sample_rate_that_leaves_slots_empty_or_is_not_positive(rate):
    # 1e-5 s at 1 Hz leaves all three slots without a trace sample
    with pytest.raises(ValueError, match="sample_rate"):
        _kappa(sample_rate=rate)
    if rate != 1.0:
        with pytest.raises(ValueError, match="sample_rate"):
            slot_samples(3, 1e-5, rate)


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="protocol"):
        run_sweep(SweepConfig(protocol="laser", scenario=WhiteAmplitude(), n_values=(1,)))
    with pytest.raises(ValueError, match="n_values"):
        run_sweep(SweepConfig(protocol="cifm", scenario=WhiteAmplitude(), n_values=()))
    with pytest.raises(ValueError, match="realizations"):
        run_sweep(SweepConfig(protocol="cifm", scenario=WhiteAmplitude(), n_values=(1,),
                              realizations=0))
