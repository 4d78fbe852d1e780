"""Command-line front end: config-driven sweeps with reproducible artifacts.

Configs are INI files (key = value under [section] headers) documented in
the README.  Every run writes a manifest JSON carrying the echoed config,
its hash, the seed actually used, timestamps, and the list of output files,
so any artifact can be regenerated byte-for-byte from (config, seed,
version).
"""

from __future__ import annotations

import argparse
import configparser
import datetime as _dt
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, experiments, kernels, noise

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """Bad or incomplete run configuration."""


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    """Parse an INI config into {section: {key: value}} of strings."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


def config_hash(config: dict) -> str:
    """Stable hash of the semantic config content (key order independent)."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _require(config: dict, section: str, key: str) -> str:
    try:
        return config[section][key]
    except KeyError:
        raise ConfigError(f"missing required key '{key}' in section [{section}]") from None


def _get(config, section, key, default=None):
    return config.get(section, {}).get(key, default)


def parse_int_list(text: str) -> tuple[int, ...]:
    """Parse '1-5,8,10-12' style integer lists."""
    out: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "-" in part:
                lo_s, hi_s = part.split("-", 1)
                lo, hi = int(lo_s), int(hi_s)
                if hi < lo:
                    raise ConfigError(f"descending range {part!r}")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(part))
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}: {exc}") from None
    if not out:
        raise ConfigError("empty integer list")
    return tuple(out)


def parse_float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}: {exc}") from None
    if not values:
        raise ConfigError("empty float list")
    return values


def _as_int(raw, name: str, minimum: int) -> int:
    """int(raw), or a ConfigError naming the key when it is not an integer >= minimum."""
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _int_key(config: dict, section: str, key: str, default: int, minimum: int) -> int:
    return _as_int(_get(config, section, key, default), f"[{section}] {key}", minimum)


def _resolve_seed(config: dict, cli_seed) -> tuple[int, str]:
    env = os.environ.get("IFMSIM_SEED")
    if cli_seed is not None:
        return _as_int(cli_seed, "--seed", 0), "cli"
    if env is not None:
        return _as_int(env, "IFMSIM_SEED", 0), "env"
    for section in ("run", "fcs"):
        raw = _get(config, section, "seed")
        if raw is not None:
            return _as_int(raw, f"[{section}] seed", 0), "config"
    return 0, "default"


# ---------------------------------------------------------------------------
# manifest and writers
# ---------------------------------------------------------------------------

def _manifest(config, seed, seed_source, outputs, started, finished) -> dict:
    return {
        "tool": "ifmsim",
        "version": __version__,
        "kernel_backend": kernels.BACKEND,
        "config": config,
        "config_hash": config_hash(config),
        "master_seed": seed,
        "seed_source": seed_source,
        "started_utc": started,
        "finished_utc": finished,
        "outputs": [str(p) for p in outputs],
    }


def _utcnow() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_stats_csv(path, rows) -> None:
    """Rows of (n, param, mean, variance, std, count, seed)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,param,mean,variance,std,realizations,seed\n")
        for n, param, mean, var, std, count, seed in rows:
            fh.write(
                f"{n},{_fmt(param)},{_fmt(mean)},{_fmt(var)},{_fmt(std)},{count},{seed}\n"
            )


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# sweep subcommand
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = ("zero_sum", "amplitude", "amplitude_phase", "phase", "colored_phase")


def _build_scenario(name: str, config: dict):
    nsec = config.get("noise", {})
    if name == "zero_sum":
        return experiments.ZeroSumAmplitude(theta_max=float(nsec.get("theta_max", math.pi)))
    if name == "amplitude":
        return experiments.WhiteAmplitude(
            theta_lo=float(nsec.get("theta_lo", 0.0)),
            theta_hi=float(nsec.get("theta_hi", math.pi)),
        )
    if name == "amplitude_phase":
        return experiments.WhiteAmplitudePhase(
            theta_max=float(nsec.get("theta_max", math.pi)),
            samples_per_slot=int(nsec.get("samples_per_slot", 2)),
        )
    if name == "phase":
        return experiments.WhitePhase(
            theta_slot=float(nsec.get("theta_slot", math.pi)),
            samples_per_slot=int(nsec.get("samples_per_slot", 2)),
        )
    if name == "colored_phase":
        return experiments.ColoredPhase(
            alpha=int(nsec.get("alpha", 0)),
            theta_slot=float(nsec.get("theta_slot", math.pi / 2)),
        )
    raise ConfigError(f"unknown scenario {name!r}; expected one of {_SCENARIO_KEYS}")


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    seed, seed_source = _resolve_seed(config, args.seed)
    mode = _require(config, "run", "mode")
    realizations = _int_key(config, "run", "realizations", 500, 1)
    threads = args.threads or _int_key(config, "run", "threads", 0, 0)
    n_values = parse_int_list(_require(config, "grid", "n_values"))
    if min(n_values) < 1:
        raise ConfigError(f"[grid] n_values entries must be >= 1, got {min(n_values)}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = Path(args.config).stem
    started = _utcnow()
    outputs = []

    if mode == "scenario":
        protocol = _require(config, "run", "protocol")
        scenario = _build_scenario(_require(config, "run", "scenario"), config)
        sweep = experiments.run_sweep(experiments.SweepConfig(
            protocol=protocol, scenario=scenario, n_values=n_values,
            realizations=realizations, master_seed=seed, threads=threads,
        ))
        stats_path = out_dir / f"{prefix}_stats.csv"
        write_stats_csv(stats_path, [
            (n, 0.0, sweep.stats.mean[i], sweep.stats.variance[i],
             sweep.stats.std[i], realizations, seed)
            for i, n in enumerate(n_values)
        ])
        outputs.append(stats_path)
        results_payload = {
            "n_values": list(n_values),
            "mean": sweep.stats.mean.tolist(),
            "variance": sweep.stats.variance.tolist(),
            "std": sweep.stats.std.tolist(),
        }
    elif mode == "kappa":
        total = float(_get(config, "timing", "total_duration", 1e-5))
        rate = float(_get(config, "timing", "sample_rate", 1e9))
        delta = float(_require(config, "noise", "delta_theta"))
        fractions = parse_float_list(_require(config, "grid", "kappa_inv_fractions"))
        kinvs = tuple(f * total for f in fractions)
        grid = experiments.sweep_kappa_N(
            n_values, kinvs, delta, realizations=realizations, master_seed=seed,
            total_duration=total, sample_rate=rate, threads=threads,
        )
        stats_path = out_dir / f"{prefix}_stats.csv"
        rows = []
        for i, n in enumerate(n_values):
            for j, k in enumerate(kinvs):
                rows.append((n, k, grid.mean[i, j], grid.variance[i, j],
                             grid.std[i, j], realizations, seed))
        write_stats_csv(stats_path, rows)
        outputs.append(stats_path)
        results_payload = {
            "n_values": list(n_values),
            "kappa_inv_values": list(kinvs),
            "mean": grid.mean.tolist(),
            "std": grid.std.tolist(),
            "anomalous_n": list(grid.anomalies),
        }
    elif mode == "clustering":
        total = float(_get(config, "timing", "total_duration", 1e-5))
        theta = float(_get(config, "noise", "theta", math.pi))
        fractions = parse_float_list(_require(config, "grid", "kappa_inv_fractions"))
        kinvs = tuple(f * total for f in fractions)
        result = experiments.clustering_sweep(
            n_values, kinvs, realizations=realizations, master_seed=seed,
            theta=theta, total_duration=total, threads=threads,
        )
        stats_path = out_dir / f"{prefix}_stats.csv"
        control_path = out_dir / f"{prefix}_pifm_control.csv"
        rows, control_rows = [], []
        for i, n in enumerate(n_values):
            for j, k in enumerate(kinvs):
                rows.append((n, k, result.cifm_mean[i, j],
                             result.cifm_std[i, j] ** 2, result.cifm_std[i, j],
                             realizations, seed))
                control_rows.append((n, k, result.pifm_mean[i, j], 0.0, 0.0,
                                     realizations, seed))
        write_stats_csv(stats_path, rows)
        write_stats_csv(control_path, control_rows)
        outputs.extend([stats_path, control_path])
        results_payload = {
            "n_values": list(n_values),
            "kappa_inv_values": list(kinvs),
            "cifm_mean": result.cifm_mean.tolist(),
            "pifm_mean": result.pifm_mean.tolist(),
        }
    else:
        raise ConfigError(f"unknown mode {mode!r}; expected scenario, kappa, or clustering")

    manifest = _manifest(config, seed, seed_source, outputs, started, _utcnow())
    if args.format == "json":
        manifest["results"] = results_payload
    manifest_path = out_dir / f"{prefix}_manifest.json"
    _write_json(manifest_path, manifest)
    print(f"wrote {', '.join(str(p) for p in outputs)} and {manifest_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# table1 subcommand
# ---------------------------------------------------------------------------

def cmd_table1(args) -> int:
    rows = experiments.marker_table()
    out_path = Path(args.out) if args.out else Path("table1.csv")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    all_ok = True
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("configuration,cifm_p0,pifm_p0,cifm_p0_3dp,pifm_p0_3dp\n")
        for (config, cifm, pifm), (exp_c, exp_p) in zip(rows, experiments.TABLE_EXPECTED):
            label = " ".join(f"{t / math.pi:+.0f}pi" if t else "0" for t in config)
            fh.write(f"{label},{_fmt(cifm)},{_fmt(pifm)},{round(cifm, 3):.3f},{round(pifm, 3):.3f}\n")
            # agreement within one unit of the last printed digit: the
            # reference table's own final digits mix rounding directions
            ok = abs(cifm - exp_c) < 1e-3 and abs(pifm - exp_p) < 1e-3
            all_ok &= ok
            status = "PASS" if ok else "FAIL"
            print(f"{status} ({label}): cifm {cifm:.6f} (expect {exp_c}), "
                  f"pifm {pifm:.6f} (expect {exp_p})")
    print(f"wrote {out_path}: {'all 24 values PASS' if all_ok else 'MISMATCH'}")
    return EXIT_OK if all_ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# fcs subcommand
# ---------------------------------------------------------------------------

def cmd_fcs(args) -> int:
    config = load_config(args.config)
    seed, seed_source = _resolve_seed(config, args.seed)
    fsec = config.get("fcs", {})
    total = float(fsec.get("total_duration", 1e-5))
    kappa = float(fsec["kappa_t"]) / total if "kappa_t" in fsec else float(
        _require(config, "fcs", "kappa"))
    theta = float(_require(config, "fcs", "theta"))
    realizations = _int_key(config, "fcs", "realizations", 10000, 1)
    n_slots = _int_key(config, "fcs", "slots", 40, 1)
    lam_max = float(fsec.get("lambda_max", 2.0))
    lam_count = _int_key(config, "fcs", "lambda_count", 41, 3)
    if lam_count % 2 == 0:
        raise ConfigError("[fcs] lambda_count must be an odd integer >= 3")
    h = float(fsec.get("moment_step", 0.01))
    threads = args.threads or _int_key(config, "fcs", "threads", 0, 0)
    lambdas = np.linspace(-lam_max, lam_max, lam_count)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = Path(args.config).stem
    started = _utcnow()

    gf = experiments.fcs_estimate(kappa, theta, total, lambdas, realizations,
                                  master_seed=seed, n_slots=n_slots, threads=threads)
    gf_path = out_dir / f"{prefix}_gf.csv"
    with open(gf_path, "w", encoding="utf-8") as fh:
        fh.write("lambda,re,im,stderr\n")
        for lam, re, im, err in zip(gf.lambda_values, gf.re, gf.im, gf.statistical_error):
            fh.write(f"{_fmt(lam)},{_fmt(re)},{_fmt(im)},{_fmt(err)}\n")

    moment_grid = np.array([-h, 0.0, h])
    gf_moments = experiments.fcs_estimate(kappa, theta, total, moment_grid, realizations,
                                          master_seed=seed, n_slots=n_slots, threads=threads)
    m1 = experiments.moments_from_gf(gf_moments, 1)
    m2 = experiments.moments_from_gf(gf_moments, 2)
    mean_m = m1 / theta
    var_m = (m2 - m1 * m1) / theta**2
    ratio = var_m / mean_m if mean_m else math.inf
    analytic = experiments.poisson_generating_function(kappa, total, theta, gf.lambda_values)
    dev = np.abs(gf.values() - analytic)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev_se = np.where(gf.statistical_error > 0, dev / gf.statistical_error, 0.0)
    report = {
        "kappa": kappa,
        "theta": theta,
        "total_duration": total,
        "realizations": realizations,
        "first_moment": m1,
        "second_moment": m2,
        "event_mean": mean_m,
        "event_variance": var_m,
        "variance_mean_ratio": ratio,
        "variance_mean_ratio_deviation": abs(ratio - 1.0),
        "max_deviation_from_poisson_in_stderr": float(np.max(dev_se)),
    }
    report_path = out_dir / f"{prefix}_moments.json"
    _write_json(report_path, report)
    outputs = [gf_path, report_path]
    manifest = _manifest(config, seed, seed_source, outputs, started, _utcnow())
    manifest_path = out_dir / f"{prefix}_manifest.json"
    _write_json(manifest_path, manifest)
    print(f"variance/mean ratio {ratio:.4f} (deviation {abs(ratio - 1.0):.4f}); "
          f"max |gf - poisson| = {report['max_deviation_from_poisson_in_stderr']:.2f} stderr")
    print(f"wrote {gf_path}, {report_path}, {manifest_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# noise subcommand
# ---------------------------------------------------------------------------

def cmd_noise(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else 0
    rate = args.rate

    if args.telegraph:
        spec = noise.TelegraphSpec(kappa=args.kappa, amplitude=args.amplitude, sample_rate=rate)
        duration = args.samples / rate
        series = noise.gen_telegraph(spec, duration, seed)
        trace = noise.NoiseTrace(rate, duration, series, np.zeros_like(series))
        trace_path = out_dir / "telegraph_trace.csv"
        noise.trace_to_csv(trace, trace_path)
        max_lag = min(int(3.0 / (2.0 * args.kappa) * rate), series.size // 4)
        acf = np.zeros(max_lag + 1)
        n_traces = 200
        for i in range(n_traces):
            s = noise.gen_telegraph(spec, duration, [seed, i])
            acf += noise.estimate_acf(s, max_lag)
        acf /= n_traces
        lags = np.arange(max_lag + 1) / rate
        positive = acf > 0
        slope = np.polyfit(lags[positive], np.log(acf[positive]), 1)[0]
        kappa_hat = -slope / 2.0
        n_segments = max(1, series.size // 256)
        usable = series[: n_segments * 256]  # whole segments only
        freqs, psd = noise.estimate_psd(usable, rate, segment_count=n_segments)
        psd_path = out_dir / "telegraph_psd.csv"
        noise.psd_to_csv(freqs, psd, psd_path)
        print(f"telegraph: kappa = {args.kappa:g}, extracted kappa = {kappa_hat:g} "
              f"({abs(kappa_hat / args.kappa - 1) * 100:.1f}% off)")
        print(f"wrote {trace_path}, {psd_path}")
        return EXIT_OK

    if args.color is None:
        print("error: choose --color NAME or --telegraph", file=sys.stderr)
        return EXIT_CONFIG
    if args.color not in noise.COLOR_ALPHA:
        print(f"error: unsupported color {args.color!r}; "
              f"choose from {sorted(noise.COLOR_ALPHA)}", file=sys.stderr)
        return EXIT_CONFIG
    alpha = noise.COLOR_ALPHA[args.color]
    count = 1 << (args.samples - 1).bit_length()  # round up to a power of two
    series = noise.gen_colored(noise.ColorSpec(alpha), count, seed)
    trace = noise.NoiseTrace(rate, count / rate, series, np.zeros(count))
    trace_path = out_dir / f"{args.color}_trace.csv"
    noise.trace_to_csv(trace, trace_path)
    acc = None
    n_traces = 32
    for i in range(n_traces):
        s = noise.gen_colored(noise.ColorSpec(alpha), count, [seed, i])
        freqs, psd = noise.estimate_psd(s, rate)
        acc = psd if acc is None else acc + psd
    psd_mean = acc / n_traces
    psd_path = out_dir / f"{args.color}_psd.csv"
    noise.psd_to_csv(freqs, psd_mean, psd_path)
    slope = noise.fit_psd_slope(freqs, psd_mean)
    print(f"{args.color} noise: fitted slope {slope:+.2f} dB/decade "
          f"(target {-10 * alpha:+d})")
    print(f"wrote {trace_path}, {psd_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifmsim",
        description="Interaction-free noise-detection simulations (qubit and qutrit detectors)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run an ensemble sweep from a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--threads", type=int, default=0)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = sub.add_parser("table1", help="deterministic four-slot configuration table")
    p_table.add_argument("--out", default="table1.csv")
    p_table.set_defaults(func=cmd_table1)

    p_fcs = sub.add_parser("fcs", help="generating-function reconstruction from a config file")
    p_fcs.add_argument("--config", required=True)
    p_fcs.add_argument("--out", default="out")
    p_fcs.add_argument("--seed", type=int, default=None)
    p_fcs.add_argument("--threads", type=int, default=0)
    p_fcs.set_defaults(func=cmd_fcs)

    p_noise = sub.add_parser("noise", help="generate a noise trace and its spectrum")
    p_noise.add_argument("--color", default=None)
    p_noise.add_argument("--telegraph", action="store_true")
    p_noise.add_argument("--kappa", type=float, default=1e5)
    p_noise.add_argument("--amplitude", type=float, default=1.0)
    p_noise.add_argument("--samples", type=int, default=50000)
    p_noise.add_argument("--rate", type=float, default=1e6)
    p_noise.add_argument("--seed", type=int, default=None)
    p_noise.add_argument("--out", default="out")
    p_noise.set_defaults(func=cmd_noise)

    p_version = sub.add_parser("version", help="print version and kernel backend")
    p_version.set_defaults(func=lambda args: print(f"ifmsim {__version__} ({kernels.BACKEND} kernels)") or EXIT_OK)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if code == EXIT_OK and args.command != "version":
        print(f"done in {time.perf_counter() - t0:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
