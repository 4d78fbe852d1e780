"""Checker self-test: good outputs pass, corrupted ones count as failed."""

import json
import math

import pytest

from workloads import WORKLOADS, is_transparent, pifm_pi_train_p0, poisson_gf

HEADER = "n,param,mean,variance,std,realizations,seed\n"


def test_requested_work_matches_hand_count():
    assert WORKLOADS["anomaly_grid"].requested_work() == 9 * 500 * 10_000
    assert WORKLOADS["clustering"].requested_work() == 2 * 2000 * 8 * (4 + 10 + 20 + 40)
    assert WORKLOADS["fcs"].requested_work() == 10_000 * 40 * (41 + 3) * 2


def test_only_n5_is_transparent():
    cfg = WORKLOADS["anomaly_grid"].config()
    delta = float(cfg["noise"]["delta_theta"])
    assert [n for n in (5, 20, 40) if is_transparent(n, delta, 1e-5, 1e9)] == [5]


def _stats_csv(path, rows):
    path.write_text(HEADER + "".join(f"{n},{k!r},{m!r},0,0,1,1\n" for n, k, m in rows))


def write_good_outputs(name, cfg, out):
    out.mkdir()
    if name == "anomaly_grid":
        fractions = [float(f) for f in cfg["grid"]["kappa_inv_fractions"].split(",")]
        _stats_csv(out / "anomaly_grid_stats.csv",
                   [(n, f * 1e-5, 2e-27 if n == 5 else 0.95) for n in (5, 20, 40)
                    for f in fractions])
    elif name == "clustering":
        fractions = [float(f) for f in cfg["grid"]["kappa_inv_fractions"].split(",")]
        grid = [(n, f * 1e-5) for n in (4, 10, 20, 40) for f in fractions]
        _stats_csv(out / "clustering_stats.csv", [(n, k, 0.7) for n, k in grid])
        _stats_csv(out / "clustering_pifm_control.csv",
                   [(n, k, pifm_pi_train_p0(n)) for n, k in grid])
    else:
        lines = ["lambda,re,im,stderr\n"]
        for i in range(41):
            lam = -2.0 + 4.0 * i / 40
            gf = poisson_gf(4.0, math.pi / 4, lam) + 0.01
            lines.append(f"{lam!r},{gf.real!r},{gf.imag!r},0.007\n")
        (out / "fcs_poisson_gf.csv").write_text("".join(lines))
        (out / "fcs_poisson_moments.json").write_text(json.dumps({"variance_mean_ratio": 0.97}))


@pytest.fixture(params=list(WORKLOADS))
def good(request, tmp_path):
    workload = WORKLOADS[request.param]
    cfg = workload.config()
    write_good_outputs(workload.name, cfg, tmp_path / "out")
    return workload, cfg, tmp_path / "out"


def test_good_outputs_pass(good):
    workload, cfg, out = good
    check = workload.check_outputs(out, 0, cfg)
    assert check.failures == ()
    assert check.attempted == {"anomaly_grid": 9, "clustering": 32, "fcs": 42}[workload.name]


def test_nonzero_exit_fails_every_operation(good):
    workload, cfg, out = good
    check = workload.check_outputs(out, 3, cfg)
    assert check.failed == check.attempted > 0


def _edit_row(path, index, column, value):
    lines = path.read_text().splitlines(keepends=True)
    header = lines[0].strip().split(",")
    cells = lines[index + 1].strip().split(",")
    if value is None:
        del lines[index + 1]
    else:
        cells[header.index(column)] = value
        lines[index + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


CORRUPTIONS = [
    ("anomaly_grid", "anomaly_grid_stats.csv", 0, "mean", "0.5"),    # transparent row
    ("anomaly_grid", "anomaly_grid_stats.csv", 4, "mean", "0.5"),    # opaque row
    ("anomaly_grid", "anomaly_grid_stats.csv", 7, "mean", "nan"),
    ("anomaly_grid", "anomaly_grid_stats.csv", 8, "mean", "garbage"),
    ("anomaly_grid", "anomaly_grid_stats.csv", 2, "mean", None),     # dropped row
    ("clustering", "clustering_pifm_control.csv", 3, "mean", "0.605429"),
    ("clustering", "clustering_pifm_control.csv", 5, "mean", None),
    ("clustering", "clustering_stats.csv", 9, "mean", "nan"),
    ("clustering", "clustering_stats.csv", 10, "mean", "1.01"),
    ("fcs", "fcs_poisson_gf.csv", 20, "re", "1.05"),                  # 7 stderr off
    ("fcs", "fcs_poisson_gf.csv", 12, "im", "nan"),
    ("fcs", "fcs_poisson_gf.csv", 30, "stderr", "nan"),
    ("fcs", "fcs_poisson_gf.csv", 40, "re", None),
]


@pytest.mark.parametrize("name,filename,index,column,value", CORRUPTIONS)
def test_corrupted_row_counts_as_failed(tmp_path, name, filename, index, column, value):
    workload = WORKLOADS[name]
    cfg = workload.config()
    out = tmp_path / "out"
    write_good_outputs(name, cfg, out)
    _edit_row(out / filename, index, column, value)
    assert workload.check_outputs(out, 0, cfg).failed == 1


@pytest.mark.parametrize("ratio", [1.2, 0.85, float("nan"), None])
def test_fcs_moment_ratio_is_checked(tmp_path, ratio):
    workload = WORKLOADS["fcs"]
    cfg = workload.config()
    out = tmp_path / "out"
    write_good_outputs("fcs", cfg, out)
    report = out / "fcs_poisson_moments.json"
    if ratio is None:
        report.unlink()
    else:
        report.write_text(json.dumps({"variance_mean_ratio": ratio}))
    assert workload.check_outputs(out, 0, cfg).failed == 1


def test_missing_outputs_fail_every_operation(tmp_path):
    for workload in WORKLOADS.values():
        check = workload.check_outputs(tmp_path / "nothing", 0)
        assert check.failed == check.attempted
