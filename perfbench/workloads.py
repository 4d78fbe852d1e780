"""The benchmark's workloads: what each one runs, its requested work, its checks.

Each workload runs one ifmsim CLI subcommand on the benchmark's own copy of
a config (``perfbench/configs``), so that editing ``configs/`` does not
change what is measured.  The checks here use physics that holds for any
seed and do not call into the program under test: the transparency
condition, the closed-form projective pi-train marker and the analytic
Poisson generating function are restated below.

An operation is one output row (one grid point, one lambda point) or the
fcs moments report.  It fails when it is missing, not finite, or misses
its workload's check; a non-zero exit fails every operation of the run.
"""

from __future__ import annotations

import cmath
import configparser
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Check:
    """Outcome of checking one run's outputs."""

    attempted: int
    failures: tuple[str, ...]

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str
    config_name: str
    work: Callable[[dict], int]
    check: Callable[[dict, Path], Check]

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / self.config_name

    def config(self) -> dict:
        return read_config(self.config_path)

    def requested_work(self) -> int:
        """W: segment updates the workload asks for, from its config alone."""
        return self.work(self.config())

    def argv(self, out_dir: Path, seed: int, threads: int | None = None,
             config_path: Path | None = None) -> list[str]:
        """CLI arguments; threads None leaves the program default (all cores)."""
        argv = [self.subcommand, "--config", str(config_path or self.config_path),
                "--out", str(out_dir), "--seed", str(seed)]
        if threads is not None:
            argv += ["--threads", str(threads)]
        return argv

    def check_outputs(self, out_dir: Path, exit_code: int, config: dict | None = None) -> Check:
        config = self.config() if config is None else config
        check = self.check(config, out_dir)
        if exit_code != 0:
            return Check(check.attempted, tuple(
                f"exit code {exit_code}" for _ in range(check.attempted)))
        return check


# ---------------------------------------------------------------------------
# config and output readers
# ---------------------------------------------------------------------------

def read_config(path: Path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _ints(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def _floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _number(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _read_rows(path: Path) -> list[dict[str, float]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    except OSError:
        return []


def _find(rows, **key) -> dict | None:
    for row in rows:
        if all(math.isclose(row.get(k, math.nan), v, rel_tol=1e-9, abs_tol=1e-15)
               for k, v in key.items()):
            return row
    return None


# ---------------------------------------------------------------------------
# anomaly_grid: sweep, kappa mode
# ---------------------------------------------------------------------------

def is_transparent(n: int, delta_theta: float, total_duration: float, sample_rate: float) -> bool:
    """A slot whose drive angle is a nonzero multiple of 4 pi is the identity."""
    ratio = abs(delta_theta) * (total_duration / n) * sample_rate / (4.0 * math.pi)
    return ratio >= 0.5 and abs(ratio - round(ratio)) < 1e-9


def _anomaly_grid_work(cfg: dict) -> int:
    grid, timing = cfg["grid"], cfg["timing"]
    segments = round(float(timing["total_duration"]) * float(timing["sample_rate"]))
    return (len(_ints(grid["n_values"])) * len(_floats(grid["kappa_inv_fractions"]))
            * int(cfg["run"]["realizations"]) * segments)


def _anomaly_grid_check(cfg: dict, out: Path) -> Check:
    total = float(cfg["timing"]["total_duration"])
    rate = float(cfg["timing"]["sample_rate"])
    delta = float(cfg["noise"]["delta_theta"])
    rows = _read_rows(out / "anomaly_grid_stats.csv")
    grid = [(n, f * total) for n in _ints(cfg["grid"]["n_values"])
            for f in _floats(cfg["grid"]["kappa_inv_fractions"])]
    failures = []
    for n, kinv in grid:
        label = f"anomaly_grid n={n} kappa_inv={kinv:g}"
        row = _find(rows, n=n, param=kinv)
        if row is None:
            failures.append(f"{label}: row missing")
            continue
        mean = row["mean"]
        if not math.isfinite(mean):
            failures.append(f"{label}: mean {mean} not finite")
        elif is_transparent(n, delta, total, rate) and not mean < 0.1:
            failures.append(f"{label}: transparent slot count but mean {mean:.6g} >= 0.1")
        elif not is_transparent(n, delta, total, rate) and not mean > 0.9:
            failures.append(f"{label}: mean {mean:.6g} <= 0.9")
    return Check(len(grid), tuple(failures))


# ---------------------------------------------------------------------------
# clustering: sweep, clustering mode
# ---------------------------------------------------------------------------

def pifm_pi_train_p0(n_slots: int) -> float:
    """Projective marker for a pi pulse in every slot: cos^(2m)(pi / 2m), m = n + 1."""
    m = n_slots + 1
    return math.cos(math.pi / (2.0 * m)) ** (2 * m)


def _clustering_work(cfg: dict) -> int:
    grid = cfg["grid"]
    # cifm and pifm each run every realization over sum(n) slots of one segment
    return (2 * int(cfg["run"]["realizations"]) * len(_floats(grid["kappa_inv_fractions"]))
            * sum(_ints(grid["n_values"])))


def _clustering_check(cfg: dict, out: Path) -> Check:
    total = float(cfg["timing"]["total_duration"])
    cifm_rows = _read_rows(out / "clustering_stats.csv")
    pifm_rows = _read_rows(out / "clustering_pifm_control.csv")
    grid = [(n, f * total) for n in _ints(cfg["grid"]["n_values"])
            for f in _floats(cfg["grid"]["kappa_inv_fractions"])]
    failures = []
    for n, kinv in grid:
        label = f"clustering n={n} kappa_inv={kinv:g}"
        cifm = _find(cifm_rows, n=n, param=kinv)
        pifm = _find(pifm_rows, n=n, param=kinv)
        if cifm is None or pifm is None:
            failures.append(f"{label}: row missing")
        elif not -1e-12 <= cifm["mean"] <= 1.0 + 1e-12:  # also false for NaN
            failures.append(f"{label}: cifm mean {cifm['mean']} outside [0, 1]")
        elif not abs(pifm["mean"] - pifm_pi_train_p0(n)) <= 1e-10:
            failures.append(f"{label}: pifm control {pifm['mean']} != "
                            f"{pifm_pi_train_p0(n)!r}")
    return Check(len(grid), tuple(failures))


# ---------------------------------------------------------------------------
# fcs: generating-function reconstruction
# ---------------------------------------------------------------------------

def poisson_gf(kappa_t: float, theta: float, lam: float) -> complex:
    """Analytic generating function exp[kappa T (exp(i lambda theta) - 1)]."""
    return cmath.exp(kappa_t * (cmath.exp(1j * lam * theta) - 1.0))


def _fcs_work(cfg: dict) -> int:
    f = cfg["fcs"]
    # every lambda of the grid and of the 3-point moment grid, two initial states
    return int(f["realizations"]) * int(f["slots"]) * (int(f["lambda_count"]) + 3) * 2


def _fcs_check(cfg: dict, out: Path) -> Check:
    f = cfg["fcs"]
    kappa_t, theta = float(f["kappa_t"]), float(f["theta"])
    lam_max, count = float(f["lambda_max"]), int(f["lambda_count"])
    lambdas = [-lam_max + 2.0 * lam_max * i / (count - 1) for i in range(count)]
    rows = _read_rows(out / "fcs_poisson_gf.csv")
    failures = []
    for lam in lambdas:
        label = f"fcs lambda={lam:g}"
        row = _find(rows, **{"lambda": lam})
        if row is None:
            failures.append(f"{label}: row missing")
            continue
        dev = abs(complex(row["re"], row["im"]) - poisson_gf(kappa_t, theta, lam))
        if not dev <= 4.0 * row["stderr"] + 1e-12:  # also false for NaN
            failures.append(f"{label}: |gf - poisson| = {dev:.3g} exceeds "
                            f"4 stderr ({row['stderr']:.3g})")
    try:
        with open(out / "fcs_poisson_moments.json", encoding="utf-8") as fh:
            ratio = _number(json.load(fh).get("variance_mean_ratio"))
    except (OSError, ValueError, AttributeError):
        ratio = math.nan
    if not abs(ratio - 1.0) <= 0.1:
        failures.append(f"fcs moments: variance/mean ratio {ratio} not within 0.1 of 1")
    return Check(len(lambdas) + 1, tuple(failures))


# ---------------------------------------------------------------------------
# the workload table
# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="anomaly_grid",
        why="9-point slice of the transparency-anomaly grid, 10,000 coaxial "
            "segments per realization: bound by the cifm kernel and segment assembly",
        subcommand="sweep", config_name="anomaly_grid.cfg",
        work=_anomaly_grid_work, check=_anomaly_grid_check,
    ),
    Workload(
        name="clustering",
        why="clustering.cfg as shipped, one segment per slot: bound by per-realization "
            "sampling and orchestration, with nothing to merge",
        subcommand="sweep", config_name="clustering.cfg",
        work=_clustering_work, check=_clustering_check,
    ),
    Workload(
        name="fcs",
        why="fcs_poisson.cfg as shipped: 88 qubit-kernel calls per noise draw, "
            "the only workload on the qubit path",
        subcommand="fcs", config_name="fcs_poisson.cfg",
        work=_fcs_work, check=_fcs_check,
    ),
)}
