import configparser
import json
import math
import os
import platform
import re
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import ifmsim
from ifmsim import experiments
from ifmsim.cli import (
    _COMMANDS,
    _FCS_SCHEMA,
    _MODE_KEYS,
    _SCENARIOS,
    _SWEEP_SCHEMA,
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    ConfigError,
    _read,
    _write_json,
    config_hash,
    load_config,
    main,
    parse_int_list,
)
from ifmsim.experiments import (
    POISSON_MEAN_MAX,
    RNG_SCHEME,
    BinarySlotNoise,
    ensemble_markers,
    sweep_kappa_N,
)
from ifmsim.noise import gen_telegraph_slots

SMALL_SWEEP = """
[run]
mode = scenario
protocol = cifm
scenario = zero_sum
realizations = 30
seed = 4242

[grid]
n_values = 2,5,10
"""

SMALL_FCS = """
[fcs]
kappa_t = 4.0
theta = 0.785398163
total_duration = 1e-5
slots = 20
lambda_max = 1.0
lambda_count = 5
realizations = 400
seed = 7
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_int_list():
    assert parse_int_list("1-4") == (1, 2, 3, 4)
    assert parse_int_list("1,2,5,10,15-17") == (1, 2, 5, 10, 15, 16, 17)
    with pytest.raises(ConfigError):
        parse_int_list("5-1")
    with pytest.raises(ConfigError):
        parse_int_list("abc")


def test_config_hash_ignores_key_order(tmp_path):
    a = load_config(write(tmp_path, "a.cfg", "[run]\nx = 1\ny = 2\n"))
    b = load_config(write(tmp_path, "b.cfg", "[run]\ny = 2\nx = 1\n"))
    assert config_hash(a) == config_hash(b)
    c = load_config(write(tmp_path, "c.cfg", "[run]\nx = 1\ny = 3\n"))
    assert config_hash(a) != config_hash(c)


def test_sweep_writes_stats_and_manifest(tmp_path):
    cfg = write(tmp_path, "small.cfg", SMALL_SWEEP)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    stats = out / "small_stats.csv"
    manifest = json.loads((out / "small_manifest.json").read_text())
    lines = stats.read_text().splitlines()
    assert lines[0] == "n,param,mean,variance,std,realizations,seed"
    assert len(lines) == 4
    assert manifest["master_seed"] == 4242
    assert manifest["seed_source"] == "config"
    assert manifest["config_hash"] == config_hash(load_config(cfg))
    assert manifest["rng_scheme"] == RNG_SCHEME
    assert str(stats) in manifest["outputs"]


@pytest.mark.parametrize("command, text, name, digest", [
    ("sweep", SMALL_SWEEP, "small",
     "be704a0dcaeb7582f12999e88b930ebe8530af29c42a34beed74472b1fd1e939"),
    ("fcs", SMALL_FCS, "fcs", "279523ab2773307eee72b315c62dfa148d62eb5c0a01bae79b785dfdb8db8523"),
])
def test_manifest_records_library_versions_outside_the_hash(tmp_path, command, text, name,
                                                            digest):
    cfg = write(tmp_path, f"{name}.cfg", text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / f"{name}_manifest.json").read_text())
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    # the versions stay out of the hash (the digest is that of the config
    # alone, as before the versions were recorded) and out of the CSVs
    assert manifest["config_hash"] == config_hash(load_config(cfg)) == digest
    for csv in out.glob("*.csv"):
        assert np.__version__ not in csv.read_text()


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg = write(tmp_path, "small.cfg", SMALL_SWEEP)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--threads", "8"]) == EXIT_OK
    a = (out1 / "small_stats.csv").read_bytes()
    b = (out2 / "small_stats.csv").read_bytes()
    assert a == b


def test_kappa_sweep_is_byte_identical_across_threads(tmp_path):
    # 200 and 125 trace samples per slot; --threads is accepted and must
    # leave the stats CSV unchanged
    cfg = write(tmp_path, "kappa.cfg", """
[run]
mode = kappa
realizations = 40
seed = 99

[grid]
n_values = 5,8
kappa_inv_fractions = 0.1,1.0

[noise]
delta_theta = 0.0125663706

[timing]
sample_rate = 1e8
""")
    blobs = []
    for threads in (1, 3, 4):
        out = tmp_path / f"t{threads}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--threads", str(threads)]) == EXIT_OK
        blobs.append((out / "kappa_stats.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_missing_required_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "[run]\nmode = scenario\nscenario = zero_sum\n"
                                     "[grid]\nn_values = 1,2\n")
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "protocol" in err


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "broken.cfg", "not an ini file at all\n")
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("line, replacement, key", [
    ("realizations = 30", "realizations = abc", "realizations"),
    ("seed = 4242", "seed = 4242\nthreads = 1.5", "threads"),
    ("n_values = 2,5,10", "n_values = 0-2", "n_values"),
], ids=["realizations", "threads", "n_values"])
def test_bad_sweep_value_exits_2_naming_key(tmp_path, capsys, line, replacement, key):
    cfg = write(tmp_path, "bad.cfg", SMALL_SWEEP.replace(line, replacement))
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_bad_fcs_value_exits_2_naming_key(tmp_path, capsys):
    cfg = write(tmp_path, "fcs.cfg", SMALL_FCS.replace("slots = 20", "slots = twenty"))
    code = main(["fcs", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "slots" in capsys.readouterr().err


CLUSTERING = """
[run]
mode = clustering
realizations = 4
seed = 3

[grid]
n_values = 2
kappa_inv_fractions = 0.5

[noise]
theta = 3.0

[timing]
total_duration = 1e-5
"""

KAPPA = """
[run]
mode = kappa
realizations = 4

[grid]
n_values = 2
kappa_inv_fractions = 0.5

[noise]
delta_theta = 0.5

[timing]
sample_rate = 1e6
"""


@pytest.mark.parametrize("text, counters", [
    (SMALL_SWEEP, {"points": 3, "realizations": 90, "kernel_calls": 3}),
    (CLUSTERING.replace("n_values = 2", "n_values = 2,9").replace(
        "kappa_inv_fractions = 0.5", "kappa_inv_fractions = 0.2,0.5,1.0"),
     {"points": 6, "realizations": 24, "kernel_calls": 4}),
], ids=["scenario", "clustering"])
def test_sweep_manifest_counts_its_work_outside_the_hash_and_csvs(tmp_path, text, counters):
    # clustering: 2 slot counts x 3 correlation times, cifm and pifm each
    # making one kernel call per slot count
    cfg = write(tmp_path, "run.cfg", text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["counters"] == counters
    assert manifest["config_hash"] == config_hash(load_config(cfg))
    assert "counters" not in manifest["config"]
    for csv in out.glob("*.csv"):
        lines = csv.read_text().splitlines()
        assert lines[0] == "n,param,mean,variance,std,realizations,seed"
        assert len(lines) == 1 + counters["points"]


@pytest.mark.parametrize("text, line, replacement, key", [
    (CLUSTERING, "theta = 3.0", "theta = abc", "[noise] theta"),
    (CLUSTERING, "total_duration = 1e-5", "total_duration = 1e-5s", "[timing] total_duration"),
    (KAPPA, "delta_theta = 0.5", "delta_theta = nan", "[noise] delta_theta"),
    (KAPPA, "sample_rate = 1e6", "sample_rate = fast", "[timing] sample_rate"),
    (SMALL_SWEEP, "seed = 4242", "seed = 4242\n[noise]\ntheta_max = pi", "[noise] theta_max"),
], ids=["theta", "total_duration", "delta_theta", "sample_rate", "theta_max"])
def test_bad_sweep_float_exits_2_naming_key(tmp_path, capsys, text, line, replacement, key):
    cfg = write(tmp_path, "bad.cfg", text.replace(line, replacement))
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err


COLORED = SMALL_SWEEP.replace("zero_sum", "colored_phase") + "\n[noise]\nalpha = 1\n"
#: KAPPA at n = 1, 2 on the default timing: 1e-5 s at 1e9 samples/s
KAPPA_DEFAULT_TIMING = KAPPA.replace("n_values = 2", "n_values = 1,2").split("[timing]")[0]
AMPLITUDE = SMALL_SWEEP.replace("zero_sum", "amplitude") + "\n[noise]\ntheta_lo = 0\n"
AMPLITUDE_PHASE = SMALL_SWEEP.replace("zero_sum", "amplitude_phase")


@pytest.mark.parametrize("command, text, line, replacement, key", [
    ("sweep", KAPPA, "sample_rate = 1e6", "sample_rate = 0", "[timing] sample_rate"),
    ("sweep", KAPPA, "sample_rate = 1e6", "sample_rate = 1e3", "[timing] sample_rate"),
    ("sweep", KAPPA, "n_values = 2", "n_values = 2,20", "[timing] sample_rate"),
    ("sweep", KAPPA, "sample_rate = 1e6", "sample_rate = 1e6\ntotal_duration = 0",
     "[timing] total_duration"),
    ("sweep", CLUSTERING, "total_duration = 1e-5", "total_duration = -1e-5",
     "[timing] total_duration"),
    # 1e305 * 10,000 samples overflows the slot angle; 1e300 s * 1e9 / s the sample count
    ("sweep", KAPPA_DEFAULT_TIMING, "delta_theta = 0.5", "delta_theta = 1e305",
     "[noise] delta_theta"),
    ("sweep", KAPPA_DEFAULT_TIMING, "delta_theta = 0.5",
     "delta_theta = 0.01\n[timing]\ntotal_duration = 1e300", "[timing] total_duration"),
    ("sweep", COLORED, "alpha = 1", "alpha = 5", "[noise] alpha"),
    ("sweep", COLORED, "alpha = 1", "alpha = -3", "[noise] alpha"),
    ("sweep", SMALL_SWEEP, "n_values = 2,5,10", "n_values = 2,x", "[grid] n_values"),
    ("sweep", CLUSTERING, "kappa_inv_fractions = 0.5", "kappa_inv_fractions = 0.5,abc",
     "[grid] kappa_inv_fractions"),
    ("sweep", KAPPA, "kappa_inv_fractions = 0.5", "kappa_inv_fractions = ,",
     "[grid] kappa_inv_fractions"),
    ("sweep", CLUSTERING, "kappa_inv_fractions = 0.5", "kappa_inv_fractions = 0",
     "[grid] kappa_inv_fractions"),
    ("sweep", CLUSTERING, "kappa_inv_fractions = 0.5", "kappa_inv_fractions = 0.5,-0.1",
     "[grid] kappa_inv_fractions"),
    ("sweep", KAPPA, "kappa_inv_fractions = 0.5", "kappa_inv_fractions = 2.0",
     "[grid] kappa_inv_fractions"),
    ("sweep", SMALL_SWEEP, "protocol = cifm", "protocol = cifmm", "[run] protocol"),
    ("sweep", SMALL_SWEEP, "mode = scenario", "mode = scenarios", "[run] mode"),
    ("sweep", SMALL_SWEEP, "scenario = zero_sum", "scenario = zero", "[run] scenario"),
    ("sweep", AMPLITUDE, "theta_lo = 0", "theta_lo = 2\ntheta_hi = 1", "[noise] theta_lo"),
    ("sweep", AMPLITUDE, "theta_lo = 0", "theta_lo = 4", "[noise] theta_lo"),
    ("sweep", SMALL_SWEEP, "seed = 4242", "seed = 4242\n[noise]\ntheta_max = -1",
     "[noise] theta_max"),
    ("sweep", AMPLITUDE_PHASE, "seed = 4242", "seed = 4242\n[noise]\ntheta_max = -1",
     "[noise] theta_max"),
    ("fcs", SMALL_FCS, "total_duration = 1e-5", "total_duration = 0", "[fcs] total_duration"),
    ("fcs", SMALL_FCS, "seed = 7", "seed = 7\nmoment_step = 0", "[fcs] moment_step"),
    ("fcs", SMALL_FCS, "theta = 0.785398163", "theta = 0", "[fcs] theta"),
    ("fcs", SMALL_FCS, "kappa_t = 4.0", "kappa_t = -4", "[fcs] kappa_t"),
    # ints beyond the float range, which math.isfinite cannot take
    ("sweep", SMALL_SWEEP, "seed = 4242", "seed = 1" + "0" * 400, "[run] seed"),
    ("sweep", SMALL_SWEEP, "n_values = 2,5,10", "n_values = 2,1" + "0" * 400,
     "[grid] n_values"),
], ids=["sample_rate_zero", "sample_rate_below_one_per_slot", "largest_n_has_empty_slots",
        "kappa_total_duration_zero", "clustering_total_duration_negative",
        "kappa_slot_angle_overflows", "kappa_sample_count_overflows",
        "alpha_above_2", "alpha_below_minus_2", "n_values_list", "kappa_inv_fractions_list",
        "empty_float_list", "clustering_fraction_zero", "clustering_fraction_negative",
        "kappa_fraction_above_1", "unknown_protocol", "unknown_mode", "unknown_scenario",
        "amplitude_range_reversed", "amplitude_lo_above_default_hi",
        "zero_sum_theta_max_negative", "amplitude_phase_theta_max_negative",
        "fcs_total_duration_zero", "fcs_moment_step_zero", "fcs_theta_zero",
        "fcs_kappa_t_negative", "seed_beyond_float_range",
        "n_values_beyond_float_range"])
def test_out_of_range_value_exits_2_naming_key(tmp_path, capsys, command, text, line,
                                               replacement, key):
    assert line in text
    cfg = write(tmp_path, "bad.cfg", text.replace(line, replacement))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a bad value exits before numpy can warn
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, fraction, total", [
    (CLUSTERING, "1e-320", "1e-5"),  # 1e-325 underflows to 0
    (KAPPA, "1e-320", "1e-5"),
    (CLUSTERING, "1e300", "1e10"),  # 1e310 overflows to inf
], ids=["clustering_underflow", "kappa_underflow", "clustering_overflow"])
def test_correlation_time_outside_the_float_range_exits_2_naming_the_fractions(
        tmp_path, capsys, text, fraction, total):
    # each fraction and the duration are in range; their product is not
    text = (text.replace("kappa_inv_fractions = 0.5", f"kappa_inv_fractions = {fraction}")
            .replace("total_duration = 1e-5\n", "")  # only CLUSTERING sets it
            .replace("[timing]", f"[timing]\ntotal_duration = {total}"))
    cfg = write(tmp_path, "bad.cfg", text)
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "[grid] kappa_inv_fractions" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_seed_flag_beyond_the_float_range_exits_2_naming_it(tmp_path, capsys):
    cfg = write(tmp_path, "small.cfg", SMALL_SWEEP)
    code = main(["sweep", "--config", str(cfg), "--seed", "1" + "0" * 400,
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "--seed must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_writes_a_seed_above_2_to_the_53_exactly(tmp_path):
    # a float would round 2^53 + 1 to 2^53: the writer prints ints as they are
    cfg = write(tmp_path, "small.cfg", SMALL_SWEEP)
    seed = 2**53 + 1
    assert main(["sweep", "--config", str(cfg), "--seed", str(seed),
                 "--out", str(tmp_path / "o")]) == EXIT_OK
    lines = (tmp_path / "o" / "small_stats.csv").read_text().splitlines()
    assert lines[0].endswith(",seed") and len(lines) == 4
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["9007199254740993"] * 3


@pytest.mark.parametrize("text, line, replacement, key, where", [
    (CLUSTERING, "mode = clustering", "mode = clustering\nprotocol = cifm", "[run] protocol",
     "clustering mode"),
    (CLUSTERING, "mode = clustering", "mode = clustering\nscenario = zero_sum",
     "[run] scenario", "clustering mode"),
    (CLUSTERING, "theta = 3.0", "theta = 3.0\ndelta_theta = 0.5", "[noise] delta_theta",
     "clustering mode"),
    (CLUSTERING, "theta = 3.0", "theta = 3.0\ntheta_max = 3.0", "[noise] theta_max",
     "clustering mode"),
    (CLUSTERING, "total_duration = 1e-5", "total_duration = 1e-5\nsample_rate = 1e9",
     "[timing] sample_rate", "clustering mode"),
    (SMALL_SWEEP, "seed = 4242", "seed = 4242\n[noise]\ntheta_lo = 0", "[noise] theta_lo",
     "zero_sum"),
    (SMALL_SWEEP, "seed = 4242", "seed = 4242\n[noise]\ndelta_theta = 0.5",
     "[noise] delta_theta", "zero_sum"),
    (SMALL_SWEEP, "seed = 4242", "seed = 4242\n[timing]\nsample_rate = 1e9",
     "[timing] sample_rate", "zero_sum"),
], ids=["clustering_protocol", "clustering_scenario", "clustering_delta_theta",
        "clustering_theta_max", "clustering_sample_rate", "zero_sum_theta_lo",
        "zero_sum_delta_theta", "zero_sum_sample_rate"])
def test_key_the_mode_never_reads_exits_2_naming_it(tmp_path, capsys, text, line, replacement,
                                                     key, where):
    assert line in text
    cfg = write(tmp_path, "bad.cfg", text.replace(line, replacement))
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and where in err
    assert not (tmp_path / "o").exists()


def read_stats(path):
    """The rows of a stats CSV as (n, param, mean, variance, std, count, seed) floats."""
    lines = path.read_text().splitlines()
    assert lines[0] == "n,param,mean,variance,std,realizations,seed"
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


KAPPA_PIFM = KAPPA.replace("realizations = 4", "protocol = pifm\nrealizations = 30\nseed = 5")


def test_kappa_mode_reads_the_protocol(tmp_path):
    cfg = write(tmp_path, "kappa.cfg", KAPPA_PIFM)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    written = read_stats(tmp_path / "o" / "kappa_stats.csv")[:, 2]
    grid = {protocol: sweep_kappa_N((2,), (5e-6,), 0.5, realizations=30, master_seed=5,
                                    total_duration=1e-5, sample_rate=1e6, protocol=protocol)
            for protocol in ("pifm", "cifm")}
    assert np.array_equal(written, grid["pifm"].stats["pifm"].mean.ravel())
    assert not np.array_equal(written, grid["cifm"].stats["cifm"].mean.ravel())


def test_clustering_files_hold_the_ensemble_statistics(tmp_path):
    # the coherent marker in the stats file, the projective control in the
    # control file; pifm sees only |theta|, so its variance is rounding-level
    # and is compared relatively
    text = CLUSTERING.replace("realizations = 4", "realizations = 50")
    text = text.replace("n_values = 2", "n_values = 3,4").replace("= 0.5", "= 0.3,1.0")
    cfg = write(tmp_path, "clu.cfg", text)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    points = [(n, kinv) for n in (3, 4) for kinv in (3e-6, 1e-5)]
    for name, protocol in (("clu_stats.csv", "cifm"), ("clu_pifm_control.csv", "pifm")):
        rows = read_stats(tmp_path / "o" / name)
        markers = [ensemble_markers(protocol, BinarySlotNoise(kinv, 1e-5, 3.0), n, 50, 3, k)
                   for k, (n, kinv) in enumerate(points)]
        np.testing.assert_allclose(rows[:, 0:2], points, rtol=1e-15)
        np.testing.assert_allclose(rows[:, 3], [m.var(ddof=1) for m in markers],
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(rows[:, 4], [m.std(ddof=1) for m in markers],
                                   rtol=1e-15, atol=0)
    assert np.any(rows[:, 3] > 0)


def test_every_sweep_mode_writes_one_json_layout(tmp_path):
    # one manifest key set in every mode; anomalous_n is empty outside kappa
    # mode, and at n = 2 a kappa slot holds 5 samples of 0.5 rad, no 4 pi turn
    manifests = {}
    for text, name in ((SMALL_SWEEP, "scenario"), (KAPPA_PIFM, "kappa"), (CLUSTERING, "clu")):
        out = tmp_path / name
        cfg = write(tmp_path, f"{name}.cfg", text)
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifests[name] = json.loads((out / f"{name}_manifest.json").read_text())
        assert manifests[name]["anomalous_n"] == []
    assert {name: set(manifest) for name, manifest in manifests.items()} == {
        name: {"tool", "version", "config", "config_hash", "master_seed", "seed_source",
               "rng_scheme", "python", "numpy", "started_utc", "finished_utc", "outputs",
               "anomalous_n", "counters"} for name in manifests}
    assert [Path(p).name for p in manifests["clu"]["outputs"]] == [
        "clu_stats.csv", "clu_pifm_control.csv"]


def test_kappa_manifest_lists_the_transparent_slot_counts_outside_the_hash(tmp_path):
    # 4 pi / 5 per sample: n = 2 puts 5 samples, one 4 pi turn, in each slot,
    # and n = 3 puts 3 or 4 samples in a slot, no whole turn
    text = KAPPA_PIFM.replace("n_values = 2", "n_values = 2,3")
    cfg = write(tmp_path, "kappa.cfg", text.replace("delta_theta = 0.5",
                                                    f"delta_theta = {4 * math.pi / 5!r}"))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "kappa_manifest.json").read_text())
    assert manifest["anomalous_n"] == [2]
    assert manifest["config_hash"] == config_hash(load_config(cfg))
    assert "anomalous_n" not in (out / "kappa_stats.csv").read_text()


def test_kappa_mode_counts_each_slot_count_once_for_its_checks(tmp_path, monkeypatch):
    # n = 2, 3 at two correlation times: the kappa sweep's argument checks count each n
    # once, and the anomaly test reuses those counts; each slot count's
    # stacked draw over both points counts it once more
    calls = []
    count = experiments.slot_samples
    monkeypatch.setattr(experiments, "slot_samples",
                        lambda n, *rest: calls.append(n) or count(n, *rest))
    text = KAPPA.replace("n_values = 2", "n_values = 2,3").replace(
        "kappa_inv_fractions = 0.5", "kappa_inv_fractions = 0.5,1.0")
    cfg = write(tmp_path, "kappa.cfg", text)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert calls == [2, 3] + [2, 3]


def test_colored_config_runs_with_alpha_in_range(tmp_path):
    cfg = write(tmp_path, "colored.cfg", COLORED.replace("alpha = 1", "alpha = -2"))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK


def test_kappa_config_runs_with_one_sample_per_slot(tmp_path):
    # 1e-5 s at 1e6 samples/s: 10 samples, one per slot at n = 10
    cfg = write(tmp_path, "kappa.cfg", KAPPA.replace("n_values = 2", "n_values = 2,10"))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK


@pytest.mark.parametrize("line, replacement, key", [
    ("kappa_t = 4.0", "kappa_t = four", "kappa_t"),
    ("theta = 0.785398163", "theta = 1/4", "theta"),
    ("total_duration = 1e-5", "total_duration = x", "total_duration"),
    ("lambda_max = 1.0", "lambda_max = ", "lambda_max"),
    ("seed = 7", "seed = 7\nmoment_step = small", "moment_step"),
], ids=["kappa_t", "theta", "total_duration", "lambda_max", "moment_step"])
def test_bad_fcs_float_exits_2_naming_key(tmp_path, capsys, line, replacement, key):
    cfg = write(tmp_path, "fcs.cfg", SMALL_FCS.replace(line, replacement))
    code = main(["fcs", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert f"[fcs] {key} " in capsys.readouterr().err


def test_misspelled_key_exits_2_naming_it(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", SMALL_SWEEP.replace("realizations = 30", "realisations = 3"))
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "realisations" in err and "[run]" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, text", [("sweep", SMALL_SWEEP), ("fcs", SMALL_FCS)])
def test_unknown_section_exits_2_naming_it(tmp_path, capsys, command, text):
    cfg = write(tmp_path, "bad.cfg", text + "\n[timeing]\nsample_rate = 1e9\n")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "[timeing]" in capsys.readouterr().err


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", [*sorted(ROOT.glob("configs/*.cfg")),
                                  *sorted(ROOT.glob("perfbench/configs/*.cfg"))],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_shipped_configs_pass_the_key_check(path):
    config = load_config(path)
    values = _read(config, _FCS_SCHEMA if "fcs" in config else _SWEEP_SCHEMA)
    assert set(values) >= {key for keys in config.values() for key in keys}


def test_readme_config_format_names_exactly_the_schema_keys():
    # the ini blocks of README's "Config format" section against both tables
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Config format", 1)[1].split("\n## ", 1)[0]
    blocks = [b.split("```", 1)[0] for b in section.split("```ini\n")[1:]]
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string("\n".join(blocks))
    documented = {s: set(parser[s]) for s in parser.sections()}
    schema = {s: set(keys) for s, keys in {**_SWEEP_SCHEMA, **_FCS_SCHEMA}.items()}
    assert documented == schema


def test_scenario_fields_are_noise_schema_keys():
    # the fields of a scenario class are the [noise] keys a config may set
    # for it, so each needs a schema entry of its kind; together with the
    # modes' own keys they are every [noise] key of the schema
    noise_keys = _SWEEP_SCHEMA["noise"]
    read = {key for keys in _MODE_KEYS.values() for key in keys if key in noise_keys}
    for name, scenario_class in _SCENARIOS.items():
        kinds = typing.get_type_hints(scenario_class)  # read from __annotations__
        for field in scenario_class._fields:
            assert field in noise_keys, (name, field)
            assert noise_keys[field][0] == kinds[field].__name__, (name, field)
            read.add(field)
    assert read == set(noise_keys)


def test_readme_usage_block_names_exactly_the_parser_flags():
    # the "ifmsim sweep ... ifmsim version" block of README's "Command line"
    # section against every subcommand of the flag table, in both directions
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```\n", 2)[1]
    documented = {}
    for line in block.splitlines():
        _, command, *rest = line.split()
        documented[command] = set(re.findall(r"--[a-z]+", " ".join(rest)))
    flags = {command: set(command_flags) for command, (_, _, command_flags) in _COMMANDS.items()}
    assert documented == flags


def test_readme_python_blocks_run(capsys):
    # every python block of README, in order, in one namespace
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in text.split("```python\n")[1:]]
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    printed = [round(float(x), 3) for x in capsys.readouterr().out.split()]
    assert printed[:2] == [0.611, 0.283]


def test_table1_command(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["table1", "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr().out
    assert captured.count("PASS (") == 12
    assert "FAIL" not in captured
    lines = out.read_text().splitlines()
    assert lines[0] == "configuration,cifm_p0,pifm_p0,cifm_p0_3dp,pifm_p0_3dp"
    assert len(lines) == 13
    # full precision column round-trips as float
    float(lines[1].split(",")[1])


def test_fcs_command(tmp_path, capsys):
    cfg = write(tmp_path, "fcs.cfg", SMALL_FCS)
    out = tmp_path / "fout"
    assert main(["fcs", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    gf_lines = (out / "fcs_gf.csv").read_text().splitlines()
    assert gf_lines[0] == "lambda,re,im,stderr"
    assert len(gf_lines) == 6
    mid = gf_lines[3].split(",")  # lambda = 0 row
    assert float(mid[0]) == 0.0
    assert abs(float(mid[1]) - 1.0) < 1e-12
    report = json.loads((out / "fcs_moments.json").read_text())
    assert "variance_mean_ratio" in report
    assert report["realizations"] == 400


def test_fcs_report_floors_the_stderr_at_zero_attenuation(tmp_path):
    # the lambda = 0 stderr is rounding-level; dividing by it unfloored made
    # this config report 19.97 stderr
    text = SMALL_FCS.replace("theta = 0.785398163", "theta = 0.5")
    cfg = write(tmp_path, "fcs.cfg", text.replace("seed = 7", "seed = 20240905"))
    out = tmp_path / "fout"
    assert main(["fcs", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "fcs_moments.json").read_text())
    assert report["max_deviation_from_poisson_in_stderr"] < 3.0


@pytest.mark.parametrize("line, replacement, message", [
    ("kappa_t = 4.0", "kappa_t = 4.0\nkappa = 1e9", "unknown key 'kappa' in section [fcs]"),
    ("kappa_t = 4.0", "kappa = 4e5", "unknown key 'kappa' in section [fcs]"),
    ("kappa_t = 4.0\n", "", "missing required key 'kappa_t' in section [fcs]"),
], ids=["beside_kappa_t", "instead_of_kappa_t", "neither"])
def test_fcs_kappa_is_an_unknown_key_and_kappa_t_is_required(tmp_path, capsys, line,
                                                              replacement, message):
    cfg = write(tmp_path, "fcs.cfg", SMALL_FCS.replace(line, replacement))
    code = main(["fcs", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value, code", [
    (POISSON_MEAN_MAX, EXIT_OK),
    (float(np.nextafter(POISSON_MEAN_MAX, math.inf)), EXIT_CONFIG),
    (1e19, EXIT_CONFIG),
], ids=["kappa_t_at_the_limit", "kappa_t_just_above_the_limit", "kappa_t_above_the_limit"])
def test_fcs_poisson_mean_above_numpys_limit_exits_2_naming_its_key(tmp_path, capsys, value,
                                                                     code):
    # with total_duration = 1 the mean is kappa_t itself, bit for bit
    text = (SMALL_FCS.replace("kappa_t = 4.0", f"kappa_t = {value!r}")
            .replace("total_duration = 1e-5", "total_duration = 1"))
    cfg = write(tmp_path, "fcs.cfg", text)
    assert main(["fcs", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    if code == EXIT_CONFIG:
        assert "[fcs] kappa_t sets the mean" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_fcs_with_no_events_writes_strict_json(tmp_path, capsys):
    # kappa_t = 0 leaves the variance/mean ratio undefined; Infinity is not JSON
    cfg = write(tmp_path, "fcs.cfg", SMALL_FCS.replace("kappa_t = 4.0", "kappa_t = 0"))
    out = tmp_path / "fout"
    assert main(["fcs", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    json.loads((out / "fcs_manifest.json").read_text(), parse_constant=reject_constant)
    report = json.loads((out / "fcs_moments.json").read_text(), parse_constant=reject_constant)
    assert report["event_mean"] == 0.0
    assert report["variance_mean_ratio"] is None
    assert report["variance_mean_ratio_deviation"] is None
    assert "variance/mean ratio undefined" in capsys.readouterr().out


def test_json_writer_refuses_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "x.json", {"ratio": math.inf})
    with pytest.raises(ValueError):
        _write_json(tmp_path / "x.json", {"ratio": math.nan})


def test_noise_command_color(tmp_path, capsys):
    out = tmp_path / "noise_out"
    code = main(["noise", "--color", "pink", "--samples", "16384",
                 "--rate", "1e6", "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "dB/decade" in text
    slope = float(text.split("slope")[1].split("dB")[0])
    assert abs(slope + 10.0) < 1.5
    assert (out / "pink_trace.csv").exists()
    assert (out / "pink_psd.csv").exists()


def test_noise_command_telegraph(tmp_path, capsys):
    out = tmp_path / "tele_out"
    code = main(["noise", "--telegraph", "--kappa", "1e5", "--samples", "32768",
                 "--rate", "1e7", "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    extracted = float(text.split("extracted kappa = ")[1].split()[0])
    assert abs(extracted / 1e5 - 1.0) < 0.10
    assert (out / "telegraph_trace.csv").exists()


def test_noise_command_telegraph_odd_sample_count(tmp_path, capsys):
    # sample counts that do not divide into whole PSD segments must still work
    out = tmp_path / "tele_odd"
    code = main(["noise", "--telegraph", "--kappa", "1e5", "--samples", "50000",
                 "--rate", "1e7", "--seed", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "telegraph_psd.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["--telegraph", "--rate", "0"], "--rate"),
    (["--color", "pink", "--rate", "0"], "--rate"),
    (["--telegraph", "--kappa", "0"], "--kappa"),
    (["--color", "pink", "--seed", "-1"], "--seed"),
    (["--telegraph", "--amplitude", "nan"], "--amplitude"),
    (["--telegraph", "--samples", "3"], "--samples"),
    (["--color", "pink", "--samples", "10"], "--samples"),
    # a zero amplitude leaves no positive ACF value to fit
    (["--telegraph", "--amplitude", "0"], "--amplitude"),
    # at the default rate of 1e6/s, the fit window 3 / (2 kappa) holds lag 0 only
    (["--telegraph", "--kappa", "1.6e6"], "--kappa"),
    # an int beyond the float range, which math.isfinite cannot take
    (["--telegraph", "--samples", "1" + "0" * 400], "--samples"),
], ids=["rate_telegraph", "rate_color", "kappa", "seed", "amplitude", "samples_telegraph",
        "samples_color", "amplitude_zero", "kappa_beyond_fit_window",
        "samples_beyond_float_range"])
def test_noise_flag_out_of_range_exits_2_naming_it(tmp_path, capsys, argv, flag):
    code = main(["noise", *argv, "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert f"{flag} must be" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_noise_command_runs_at_the_smallest_sample_count(tmp_path):
    for argv in (["--telegraph"], ["--color", "white"]):
        assert main(["noise", *argv, "--samples", "64", "--out", str(tmp_path)]) == EXIT_OK


def test_noise_command_rejects_unknown_color(tmp_path, capsys):
    # and a call naming neither mode or both; the mode is checked before the
    # output directory is made
    for argv, named in ((["--color", "octarine"], ("--color", "octarine")),
                        ([], ("--color", "--telegraph")),
                        (["--color", "pink", "--telegraph"], ("--color", "--telegraph"))):
        code = main(["noise", *argv, "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(word in err for word in named)
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag, value", [("--kappa", "5"), ("--amplitude", "3")])
def test_noise_color_mode_rejects_telegraph_flags(tmp_path, capsys, flag, value):
    # a flag that the chosen mode never reads exits 2, as a config key does
    code = main(["noise", "--color", "pink", flag, value, "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert flag in err and "--color pink" in err
    assert not (tmp_path / "x").exists()


def test_noise_telegraph_defaults_kappa_and_amplitude(tmp_path, capsys):
    out = tmp_path / "tele"
    assert main(["noise", "--telegraph", "--samples", "64", "--out", str(out)]) == EXIT_OK
    assert "telegraph: kappa = 100000," in capsys.readouterr().out
    trace = np.loadtxt(out / "telegraph_trace.csv", delimiter=",", skiprows=1)
    assert set(np.abs(trace[:, 1])) == {1.0}


def test_noise_telegraph_runs_at_an_extreme_rate_without_a_numpy_warning(tmp_path):
    # 3 / (2 kappa) * rate overflows to inf, and lags k / rate would underflow;
    # the trace never switches, so the run ends undetermined (exit 1), not in error
    out = tmp_path / "tele"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["noise", "--telegraph", "--rate", "1e308", "--kappa", "1e-10",
                     "--samples", "64", "--out", str(out)])
    assert code == EXIT_MISMATCH
    assert (out / "telegraph_trace.csv").exists()
    assert (out / "telegraph_psd.csv").exists()


@pytest.mark.parametrize("kappa", ["1e-10"], ids=["no_switch"])
def test_noise_telegraph_reports_no_estimate_where_the_fit_sees_no_decay(
        tmp_path, capsys, kappa):
    # a flat ACF would read "extracted kappa = -0", which is no estimate
    out = tmp_path / "tele"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["noise", "--telegraph", "--rate", "1e308", "--kappa", kappa,
                     "--samples", "64", "--out", str(out)])
    assert code == EXIT_MISMATCH
    text = capsys.readouterr().out
    assert "extracted kappa undetermined" in text
    assert "% off" not in text and "done in" not in text
    assert (out / "telegraph_trace.csv").exists()
    assert (out / "telegraph_psd.csv").exists()


def test_noise_telegraph_estimates_kappa_at_the_largest_rate(tmp_path, capsys):
    # kappa / rate = 1 sets a lag-1 ACF of e^-2 > 0, so the fit holds two
    # lags; its slope times 1e308 overflows unless halved first
    out = tmp_path / "tele"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["noise", "--telegraph", "--rate", "1e308", "--kappa", "1e308",
                     "--samples", "64", "--out", str(out)])
    assert code == EXIT_OK
    extracted = float(capsys.readouterr().out.split("extracted kappa = ")[1].split()[0])
    assert abs(extracted / 1e308 - 1.0) < 0.10


def test_noise_telegraph_trace_is_the_slot_generator_at_its_seed(tmp_path):
    # one sample per slot of 1 / rate, bit for bit, after the CSV round trip
    out = tmp_path / "tele"
    assert main(["noise", "--telegraph", "--kappa", "3e5", "--amplitude", "0.7",
                 "--samples", "500", "--rate", "1e7", "--seed", "11", "--out", str(out)]) == EXIT_OK
    trace = np.loadtxt(out / "telegraph_trace.csv", delimiter=",", skiprows=1)
    expected = np.asarray(gen_telegraph_slots(3e5, 0.7, 500, 1.0 / 1e7, 11))
    assert trace[:, 1].tobytes() == expected.tobytes()


@pytest.mark.parametrize("argv, name", [(["--color", "white"], "white"),
                                        (["--telegraph", "--kappa", "1e-10"], "telegraph")],
                         ids=["white", "telegraph"])
def test_noise_psd_keeps_its_bins_at_an_extreme_rate(tmp_path, capsys, argv, name):
    # a PSD scale of 1 / (rate * n) overflows to zero at 1e308/s and empties
    # the spectrum; scaled as 1 / rate / n, every bin with power stays
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        main(["noise", *argv, "--rate", "1e308", "--samples", "64", "--out", str(out)])
    psd = np.loadtxt(out / f"{name}_psd.csv", delimiter=",", skiprows=1, ndmin=2)
    if name == "white":
        assert psd.shape[0] == 63  # every bin but the zeroed DC bin
        slope = float(capsys.readouterr().out.split("slope")[1].split("dB")[0])
        assert math.isfinite(slope)
    else:
        assert psd[:, 0].tolist() == [0.0]  # a trace that never switches: DC alone


def test_importing_the_cli_loads_every_module_of_the_package():
    # the package holds only what the CLI runs: a module it leaves unloaded
    # would be code that only the tests use
    package = Path(ifmsim.__file__).parent
    code = "import sys, ifmsim.cli; print(*(m for m in sys.modules if m.startswith('ifmsim')))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(package.parent)}, check=True)
    files = {"ifmsim" if p.stem == "__init__" else f"ifmsim.{p.stem}"
             for p in package.glob("*.py")}
    assert set(run.stdout.split()) == files


def test_importing_the_cli_adds_neither_dataclasses_nor_platform():
    # the record types are NamedTuples and the manifest reads the Python
    # version from sys.version; numpy may itself import platform, so the
    # check is on what importing ifmsim adds to a process that holds numpy
    package = Path(ifmsim.__file__).parent
    code = ("import sys, numpy; before = set(sys.modules); import ifmsim.cli; "
            "print(*sorted({'dataclasses', 'platform'} & (set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(package.parent)}, check=True)
    assert run.stdout.split() == []
    for source in package.glob("*.py"):
        text = source.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(import|from) (dataclasses|platform)\b", text, re.M), source


def test_version_command(capsys):
    assert main(["version"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ifmsim" in out


@pytest.mark.parametrize("argv, words", [
    ([], ["(none)", "sweep"]),
    (["swep"], ["swep"]),
    (["sweep", "--config", "{cfg}", "--bogus", "1"], ["--bogus"]),
    (["sweep", "--config", "{cfg}", "extra"], ["'extra'"]),
    (["sweep", "--conf", "{cfg}"], ["--conf"]),  # no unique-prefix abbreviations
    (["sweep", "--config"], ["--config needs a value"]),
    (["sweep", "--config", "--seed", "3"], ["--config needs a value"]),
    (["sweep", "--config", "{cfg}", "--seed", "abc"], ["--seed", "abc"]),
    (["sweep", "--config", "{cfg}", "--seed=1.5"], ["--seed", "1.5"]),
    (["sweep", "--seed", "3"], ["needs --config"]),
    (["noise", "--telegraph=yes"], ["--telegraph=yes"]),
    (["table1", "--config", "{cfg}"], ["--config"]),
], ids=["no_command", "unknown_command", "unknown_flag", "positional", "abbreviation",
        "missing_value", "flag_as_value", "int_kind", "int_kind_after_equals",
        "missing_config", "switch_with_value", "flag_of_another_command"])
def test_usage_error_exits_2_naming_its_word(tmp_path, capsys, argv, words):
    # main returns the exit code: a usage error raises no SystemExit
    cfg = write(tmp_path, "small.cfg", SMALL_SWEEP)
    argv = [word.format(cfg=cfg) for word in argv]
    # --out goes right after the command, so that a flag can end the line
    code = main(argv[:1] + ["--out", str(tmp_path / "o")] + argv[1:] if argv else argv)
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(word in captured.err for word in words), captured.err
    assert not (tmp_path / "o").exists()


def test_flag_equals_value_and_a_repeated_flag_give_the_same_run(tmp_path):
    # --flag=value reads as --flag value, and a repeated flag keeps its last value
    cfg = write(tmp_path, "small.cfg", SMALL_SWEEP)
    runs = {"spaced": ["--config", str(cfg), "--out", str(tmp_path / "spaced"), "--seed", "5"],
            "equals": [f"--config={cfg}", f"--out={tmp_path / 'equals'}", "--seed=5"],
            "repeated": ["--config", str(cfg), "--seed", "9", "--out", "elsewhere",
                         "--out", str(tmp_path / "repeated"), "--seed=5", "--threads=2"]}
    manifests = []
    for name, argv in runs.items():
        assert main(["sweep", *argv]) == EXIT_OK
        manifest = json.loads((tmp_path / name / "small_manifest.json").read_text())
        assert manifest["master_seed"] == 5 and manifest["seed_source"] == "cli"
        manifests.append({key: value for key, value in manifest.items()
                          if key not in ("started_utc", "finished_utc", "outputs")})
    stats = {(tmp_path / name / "small_stats.csv").read_bytes() for name in runs}
    assert len(stats) == 1
    assert manifests[0] == manifests[1] == manifests[2]
    assert not Path("elsewhere").exists()


@pytest.mark.parametrize("argv, commands", [
    (["-h"], list(_COMMANDS)),
    (["--help"], list(_COMMANDS)),
    (["sweep", "-h"], ["sweep"]),
    (["noise", "--color", "pink", "--help"], ["noise"]),
])
def test_help_lists_every_flag_and_exits_0(capsys, argv, commands):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: ifmsim COMMAND")
    for command in commands:
        assert f"ifmsim {command}: " in out
        for flag in _COMMANDS[command][2]:
            assert re.search(rf"^  {flag} ", out, re.M), (command, flag)


def test_the_cli_imports_neither_argparse_nor_gettext_nor_locale(tmp_path):
    # the command line is read from one flag table: argparse's first use
    # imports gettext and locale and compiles its help formatter's patterns
    package = Path(ifmsim.__file__).parent
    cfg = write(tmp_path, "tiny.cfg", SMALL_SWEEP.replace("realizations = 30",
                                                          "realizations = 2"))
    code = ("import sys, ifmsim.cli; "
            "assert ifmsim.cli.main(['version']) == 0; "
            f"assert ifmsim.cli.main(['sweep', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'o')!r}]) == 0; "
            "print('loaded:', *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(package.parent)}, check=True)
    assert run.stdout.splitlines()[-1] == "loaded:"
    assert (tmp_path / "o" / "tiny_stats.csv").exists()
