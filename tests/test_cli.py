import json
import os

import pytest

from ifmsim.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    config_hash,
    load_config,
    main,
    parse_int_list,
)

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
    assert str(stats) in manifest["outputs"]


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg = write(tmp_path, "small.cfg", SMALL_SWEEP)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--threads", "8"]) == EXIT_OK
    a = (out1 / "small_stats.csv").read_bytes()
    b = (out2 / "small_stats.csv").read_bytes()
    assert a == b


def test_merging_kappa_sweep_is_byte_identical_across_threads(tmp_path):
    # 200 and 125 coaxial samples per slot, so the dispatch merges segment
    # runs before the rows are split across workers
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


def test_noise_command_rejects_unknown_color(tmp_path, capsys):
    code = main(["noise", "--color", "octarine", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


def test_version_command(capsys):
    assert main(["version"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ifmsim" in out
