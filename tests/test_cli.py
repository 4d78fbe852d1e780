import configparser
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ifmsim
from ifmsim.cli import (
    _FCS_SCHEMA,
    _SWEEP_SCHEMA,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    _read,
    config_hash,
    load_config,
    main,
    parse_int_list,
)
from ifmsim.experiments import RNG_SCHEME

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


def test_sweep_json_format_embeds_results(tmp_path):
    cfg = write(tmp_path, "small.cfg", SMALL_SWEEP)
    out = tmp_path / "json_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--format", "json"]) == EXIT_OK
    manifest = json.loads((out / "small_manifest.json").read_text())
    assert manifest["results"]["n_values"] == [2, 5, 10]
    assert len(manifest["results"]["mean"]) == 3


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
    ("fcs", SMALL_FCS, "kappa_t = 4.0", "kappa = -1", "[fcs] kappa"),
    ("fcs", SMALL_FCS, "kappa_t = 4.0", "kappa_t = -4", "[fcs] kappa_t"),
], ids=["sample_rate_zero", "sample_rate_below_one_per_slot", "largest_n_has_empty_slots",
        "kappa_total_duration_zero", "clustering_total_duration_negative",
        "alpha_above_2", "alpha_below_minus_2", "n_values_list", "kappa_inv_fractions_list",
        "empty_float_list", "clustering_fraction_zero", "clustering_fraction_negative",
        "kappa_fraction_above_1", "unknown_protocol", "unknown_mode", "unknown_scenario",
        "amplitude_range_reversed", "amplitude_lo_above_default_hi",
        "zero_sum_theta_max_negative", "amplitude_phase_theta_max_negative",
        "fcs_total_duration_zero", "fcs_moment_step_zero", "fcs_theta_zero",
        "fcs_kappa_negative", "fcs_kappa_t_negative"])
def test_out_of_range_value_exits_2_naming_key(tmp_path, capsys, command, text, line,
                                               replacement, key):
    assert line in text
    cfg = write(tmp_path, "bad.cfg", text.replace(line, replacement))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_colored_config_runs_with_alpha_in_range(tmp_path):
    cfg = write(tmp_path, "colored.cfg", COLORED.replace("alpha = 1", "alpha = -2"))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK


def test_kappa_config_runs_with_one_sample_per_slot(tmp_path):
    # 1e-5 s at 1e6 samples/s: 10 samples, one per slot at n = 10
    cfg = write(tmp_path, "kappa.cfg", KAPPA.replace("n_values = 2", "n_values = 2,10"))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK


@pytest.mark.parametrize("line, replacement, key", [
    ("kappa_t = 4.0", "kappa_t = four", "kappa_t"),
    ("kappa_t = 4.0", "kappa = inf", "kappa"),
    ("theta = 0.785398163", "theta = 1/4", "theta"),
    ("total_duration = 1e-5", "total_duration = x", "total_duration"),
    ("lambda_max = 1.0", "lambda_max = ", "lambda_max"),
    ("seed = 7", "seed = 7\nmoment_step = small", "moment_step"),
], ids=["kappa_t", "kappa", "theta", "total_duration", "lambda_max", "moment_step"])
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


def test_non_integer_env_seed_exits_2(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, "small.cfg", SMALL_SWEEP)
    monkeypatch.setenv("IFMSIM_SEED", "12ab")
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "IFMSIM_SEED" in capsys.readouterr().err


def test_env_seed_override_recorded(tmp_path):
    cfg = write(tmp_path, "small.cfg", SMALL_SWEEP)
    out = tmp_path / "env_out"
    os.environ["IFMSIM_SEED"] = "777"
    try:
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    finally:
        del os.environ["IFMSIM_SEED"]
    manifest = json.loads((out / "small_manifest.json").read_text())
    assert manifest["master_seed"] == 777
    assert manifest["seed_source"] == "env"


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
], ids=["rate_telegraph", "rate_color", "kappa", "seed", "amplitude", "samples_telegraph",
        "samples_color"])
def test_noise_flag_out_of_range_exits_2_naming_it(tmp_path, capsys, argv, flag):
    code = main(["noise", *argv, "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert f"{flag} must be" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_noise_command_runs_at_the_smallest_sample_count(tmp_path):
    for argv in (["--telegraph"], ["--color", "white"]):
        assert main(["noise", *argv, "--samples", "64", "--out", str(tmp_path)]) == EXIT_OK


def test_noise_command_rejects_unknown_color(tmp_path, capsys):
    code = main(["noise", "--color", "octarine", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


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


def test_version_command(capsys):
    assert main(["version"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ifmsim" in out
