"""Command-line front end: config-driven sweeps with reproducible artifacts.

Configs are INI files (key = value under [section] headers) documented in
the README and checked against one table per subcommand, _SWEEP_SCHEMA or
_FCS_SCHEMA, of every key's kind, range and default; scenario [noise]
defaults live in the scenario classes.  A sweep config may set only the
keys its mode reads (_MODE_KEYS, and in scenario mode _SCENARIOS).  Every
run writes a manifest JSON carrying the echoed config, its hash, the seed
actually used, the RNG scheme, the python and numpy versions, timestamps,
and the list of output files, so any artifact can be regenerated
byte-for-byte from (config, seed, version).  Runs are single-threaded;
--threads is accepted and ignored.
"""

from __future__ import annotations

import argparse
import configparser
import datetime as _dt
import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, experiments, noise

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


_PARSERS = {"int": int, "float": float, "ints": parse_int_list, "floats": parse_float_list}
_COMPARE = {">": lambda v, b: v > b, ">=": lambda v, b: v >= b, "!=": lambda v, b: v != b}


def _check(value, bounds: str, name: str):
    """value, or a ConfigError naming it when it is not finite or not in bounds."""
    lo, _, hi = bounds.partition("..")
    if hi:
        ok, bounds = float(lo) <= value <= float(hi), f"in {bounds}"
    else:
        op, _, b = bounds.partition(" ")
        ok = not op or _COMPARE[op](value, float(b))
    if not (math.isfinite(value) and ok):
        need = f"finite and {bounds}" if bounds else "finite"
        raise ConfigError(f"{name} must be {need}, got {value!r}")
    return value


def _value(raw: str, kind: str, bounds, name: str):
    """raw read as kind and checked against bounds; a ConfigError names the key."""
    if kind == "choice":
        if raw not in bounds:
            raise ConfigError(f"{name} must be one of {', '.join(bounds)}; got {raw!r}")
        return raw
    try:
        value = _PARSERS[kind](raw)
    except ValueError as exc:  # the list parsers raise ConfigError, a ValueError
        raise ConfigError(f"{name} must be of kind {kind}: {exc}") from None
    if isinstance(value, tuple):
        for entry in value:
            _check(entry, bounds, f"{name} entries")
        return value
    return _check(value, bounds, name)


class _Values(dict):
    """Typed config values by key; reading a key that the config lacks and
    that has no default raises a ConfigError naming it."""

    def __missing__(self, key):
        raise ConfigError(f"missing required key '{key}' in section [{self.sections[key]}]")


def _read(config: dict, schema: dict) -> _Values:
    """The typed values of a loaded config, checked against a schema.

    Holds every key the config sets, plus the schema default of each key it
    leaves out that has one; key names are unique across a schema's
    sections.  An unknown section or key, a value of the wrong kind, or one
    out of range raises a ConfigError naming `[section] key`.
    """
    values = _Values({key: default for keys in schema.values()
                      for key, (_, _, default) in keys.items() if default is not None})
    values.sections = {key: section for section, keys in schema.items() for key in keys}
    for section, raws in config.items():
        if section not in schema:
            raise ConfigError(f"unknown section [{section}]; expected {sorted(schema)}")
        for key, raw in raws.items():
            if key not in schema[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            kind, bounds, _ = schema[section][key]
            values[key] = _value(raw, kind, bounds, f"[{section}] {key}")
    return values


def _given(values: dict, keys) -> dict:
    """The keys the config sets, with their values."""
    return {key: values[key] for key in keys if key in values}


#: Each scenario by name: its class and the [noise] keys it takes.  A key
#: the config leaves out keeps the class default.
_SCENARIOS = {
    "zero_sum": (experiments.ZeroSumAmplitude, ("theta_max",)),
    "amplitude": (experiments.WhiteAmplitude, ("theta_lo", "theta_hi")),
    "amplitude_phase": (experiments.WhiteAmplitudePhase, ("theta_max", "samples_per_slot")),
    "phase": (experiments.WhitePhase, ("theta_slot", "samples_per_slot")),
    "colored_phase": (experiments.ColoredPhase, ("alpha", "theta_slot")),
}

#: The keys each sweep mode reads besides [run] mode, realizations and seed
#: and [grid] n_values; a scenario sweep also reads its scenario's [noise]
#: keys.  A config that sets any other key exits 2.
_MODE_KEYS = {
    "scenario": ("protocol", "scenario"),
    "kappa": ("protocol", "kappa_inv_fractions", "delta_theta", "total_duration",
              "sample_rate"),
    "clustering": ("kappa_inv_fractions", "theta", "total_duration"),
}

# Each subcommand's schema: section -> key -> (kind, range, default).  kind
# is "choice" (range: the allowed strings), "int", "float", "ints" or
# "floats" (comma lists).  A numeric range is "" (any finite value), "> b",
# ">= b", "!= b" or "lo..hi", and holds for each entry of a list.  A key
# without a default is required where cmd_sweep or cmd_fcs reads it.
_SWEEP_SCHEMA = {
    "run": {
        "mode": ("choice", ("scenario", "kappa", "clustering"), None),
        "protocol": ("choice", tuple(experiments.PROTOCOLS), None),
        "scenario": ("choice", tuple(_SCENARIOS), None),
        "realizations": ("int", ">= 1", 500),
        "seed": ("int", ">= 0", None),
    },
    "grid": {
        "n_values": ("ints", ">= 1", None),
        "kappa_inv_fractions": ("floats", "> 0", None),  # and <= 1 in kappa mode
    },
    "noise": {  # no defaults here: the scenario classes and drivers hold them
        "theta_max": ("float", ">= 0", None),
        "theta_lo": ("float", "", None),
        "theta_hi": ("float", "", None),
        "theta_slot": ("float", "", None),
        "samples_per_slot": ("int", ">= 1", None),
        "alpha": ("int", "-2..2", None),
        "delta_theta": ("float", "", None),
        "theta": ("float", "", None),
    },
    "timing": {
        "total_duration": ("float", "> 0", 1e-5),
        "sample_rate": ("float", "> 0", 1e9),
    },
}

_FCS_SCHEMA = {
    "fcs": {
        "kappa_t": ("float", ">= 0", None),
        "kappa": ("float", ">= 0", None),
        "theta": ("float", "!= 0", None),
        "total_duration": ("float", "> 0", 1e-5),
        # kept because the shipped fcs configs set it; the pulses drive one
        # axis, so only their count per realization matters, not their slots
        "slots": ("int", ">= 1", 40),
        "lambda_max": ("float", "", 2.0),
        "lambda_count": ("int", ">= 3", 41),
        "realizations": ("int", ">= 1", 10000),
        "moment_step": ("float", "> 0", 0.01),
        "seed": ("int", ">= 0", None),
    },
}


def _check_read(config: dict, values: dict) -> None:
    """A ConfigError naming the first key the config sets that its sweep
    mode, or in scenario mode its scenario, never reads."""
    mode = values["mode"]
    reads = ("mode", "realizations", "seed", "n_values") + _MODE_KEYS[mode]
    where = f"{mode} mode"
    if mode == "scenario":
        reads += _SCENARIOS[values["scenario"]][1]
        where += f" with scenario {values['scenario']}"
    for section, raws in config.items():
        for key in raws:
            if key not in reads:
                raise ConfigError(f"[{section}] {key} is not read in {where}")


def _resolve_seed(values: dict, cli_seed) -> tuple[int, str]:
    env = os.environ.get("IFMSIM_SEED")
    if cli_seed is not None:
        return _check(cli_seed, ">= 0", "--seed"), "cli"
    if env is not None:
        return _value(env, "int", ">= 0", "IFMSIM_SEED"), "env"
    if "seed" in values:
        return values["seed"], "config"
    return 0, "default"


# ---------------------------------------------------------------------------
# manifest and writers
# ---------------------------------------------------------------------------

def _manifest(config, seed, seed_source, outputs, started, finished) -> dict:
    return {
        "tool": "ifmsim",
        "version": __version__,
        "config": config,
        "config_hash": config_hash(config),
        "master_seed": seed,
        "seed_source": seed_source,
        "rng_scheme": experiments.RNG_SCHEME,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "started_utc": started,
        "finished_utc": finished,
        "outputs": [str(p) for p in outputs],
    }


def _utcnow() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# sweep subcommand
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    config = load_config(args.config)
    values = _read(config, _SWEEP_SCHEMA)
    seed, seed_source = _resolve_seed(values, args.seed)
    _check_read(config, values)
    mode, n_values = values["mode"], values["n_values"]
    common = {"realizations": values["realizations"], "master_seed": seed}
    started = _utcnow()

    if mode == "scenario":
        scenario_class, keys = _SCENARIOS[values["scenario"]]
        scenario = scenario_class(**_given(values, keys))
        # checked on the scenario, so that a class default counts as well
        if (isinstance(scenario, experiments.WhiteAmplitude)
                and scenario.theta_lo > scenario.theta_hi):
            raise ConfigError(f"[noise] theta_lo = {scenario.theta_lo:g} must not exceed "
                              f"[noise] theta_hi = {scenario.theta_hi:g}")
        result = experiments.run_sweep(experiments.SweepConfig(
            protocol=values["protocol"], scenario=scenario, n_values=n_values, **common))
    elif mode == "kappa":
        total = values["total_duration"]
        kinvs = tuple(f * total for f in values["kappa_inv_fractions"])
        if max(values["kappa_inv_fractions"]) > 1:
            # sweep_kappa_N refuses correlation times longer than the sequence
            raise ConfigError("[grid] kappa_inv_fractions entries must be <= 1 in kappa mode")
        rate = values["sample_rate"]
        delta = values["delta_theta"]
        probe = experiments.BinarySampledNoise(kinvs[0], total, delta, rate)
        if any(probe.slot_samples(n).min() < 1 for n in n_values):
            # a slot without samples carries no noise: the detector would see none
            raise ConfigError(
                f"[timing] sample_rate = {rate:g} leaves drive slots without trace samples: "
                f"total_duration * sample_rate = {total * rate:g} must be >= every n "
                f"(largest {max(n_values)})")
        result = experiments.sweep_kappa_N(
            n_values, kinvs, delta, total_duration=total, sample_rate=rate,
            **common, **_given(values, ("protocol",)))
    else:  # clustering
        total = values["total_duration"]
        kinvs = tuple(f * total for f in values["kappa_inv_fractions"])
        result = experiments.clustering_sweep(
            n_values, kinvs, total_duration=total, **common, **_given(values, ("theta",)))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = Path(args.config).stem
    outputs = []
    # the first protocol is the detector under study, any other its control
    for name, stats in result.stats.items():
        suffix = f"{name}_control" if outputs else "stats"
        path = out_dir / f"{prefix}_{suffix}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("n,param,mean,variance,std,realizations,seed\n")
            for i, n in enumerate(result.n_values):
                for j, param in enumerate(result.params):
                    cells = (param, stats.mean[i, j], stats.variance[i, j], stats.std[i, j])
                    fh.write(f"{n},{','.join(map(_fmt, cells))},{stats.count},{seed}\n")
        outputs.append(path)

    manifest = _manifest(config, seed, seed_source, outputs, started, _utcnow())
    if args.format == "json":
        manifest["results"] = {
            "n_values": list(result.n_values),
            "params": list(result.params),
            "anomalous_n": list(result.anomalies),
            "stats": {name: {"mean": stats.mean.tolist(), "variance": stats.variance.tolist(),
                             "std": stats.std.tolist()}
                      for name, stats in result.stats.items()},
        }
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
    values = _read(config, _FCS_SCHEMA)
    seed, seed_source = _resolve_seed(values, args.seed)
    total = values["total_duration"]
    if "kappa_t" in values and "kappa" in values:
        raise ConfigError("[fcs] kappa is not read when [fcs] kappa_t is set")
    if "kappa_t" not in values and "kappa" not in values:
        raise ConfigError("missing required key: set [fcs] kappa_t or [fcs] kappa")
    kappa = values["kappa_t"] / total if "kappa_t" in values else values["kappa"]
    theta = values["theta"]
    realizations = values["realizations"]
    lam_max, lam_count, h = values["lambda_max"], values["lambda_count"], values["moment_step"]
    if lam_count % 2 == 0:
        raise ConfigError(f"[fcs] lambda_count must be odd, got {lam_count}")
    lambdas = np.linspace(-lam_max, lam_max, lam_count)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = Path(args.config).stem
    started = _utcnow()

    gf = experiments.fcs_estimate(kappa, theta, total, lambdas, realizations,
                                  master_seed=seed)
    gf_path = out_dir / f"{prefix}_gf.csv"
    with open(gf_path, "w", encoding="utf-8") as fh:
        fh.write("lambda,re,im,stderr\n")
        for lam, re, im, err in zip(gf.lambda_values, gf.re, gf.im, gf.statistical_error):
            fh.write(f"{_fmt(lam)},{_fmt(re)},{_fmt(im)},{_fmt(err)}\n")

    moment_grid = np.array([-h, 0.0, h])
    gf_moments = experiments.fcs_estimate(kappa, theta, total, moment_grid, realizations,
                                          master_seed=seed)
    m1 = experiments.moments_from_gf(gf_moments, 1)
    m2 = experiments.moments_from_gf(gf_moments, 2)
    mean_m = m1 / theta
    var_m = (m2 - m1 * m1) / theta**2
    # no events (kappa_t = 0) leave the ratio undefined: null in the report
    ratio = var_m / mean_m if mean_m else None
    analytic = experiments.poisson_generating_function(kappa, total, theta, gf.lambda_values)
    # the floor keeps a rounding-level stderr (at lambda = 0) from inflating the ratio
    dev_se = np.abs(gf.values() - analytic) / np.maximum(gf.statistical_error, 1e-12)
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
        "variance_mean_ratio_deviation": None if ratio is None else abs(ratio - 1.0),
        "max_deviation_from_poisson_in_stderr": float(np.max(dev_se)),
    }
    report_path = out_dir / f"{prefix}_moments.json"
    _write_json(report_path, report)
    outputs = [gf_path, report_path]
    manifest = _manifest(config, seed, seed_source, outputs, started, _utcnow())
    manifest_path = out_dir / f"{prefix}_manifest.json"
    _write_json(manifest_path, manifest)
    ratio_text = ("undefined (event mean 0)" if ratio is None
                  else f"{ratio:.4f} (deviation {abs(ratio - 1.0):.4f})")
    print(f"variance/mean ratio {ratio_text}; "
          f"max |gf - poisson| = {report['max_deviation_from_poisson_in_stderr']:.2f} stderr")
    print(f"wrote {gf_path}, {report_path}, {manifest_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# noise subcommand
# ---------------------------------------------------------------------------

#: The range of each numeric noise flag.
_NOISE_FLAGS = {"rate": "> 0", "kappa": "> 0", "amplitude": "", "seed": ">= 0",
                "samples": ">= 64"}


def cmd_noise(args) -> int:
    for flag, bounds in _NOISE_FLAGS.items():
        if getattr(args, flag) is not None:
            _check(getattr(args, flag), bounds, f"--{flag}")
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
    p_sweep.add_argument("--threads", type=int, default=0,
                         help="accepted and ignored (runs are single-threaded); "
                            "kept because benchmark scripts pass it")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = sub.add_parser("table1", help="deterministic four-slot configuration table")
    p_table.add_argument("--out", default="table1.csv")
    p_table.set_defaults(func=cmd_table1)

    p_fcs = sub.add_parser("fcs", help="generating-function reconstruction from a config file")
    p_fcs.add_argument("--config", required=True)
    p_fcs.add_argument("--out", default="out")
    p_fcs.add_argument("--seed", type=int, default=None)
    p_fcs.add_argument("--threads", type=int, default=0,
                       help="accepted and ignored (runs are single-threaded); "
                            "kept because benchmark scripts pass it")
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

    p_version = sub.add_parser("version", help="print the version")
    p_version.set_defaults(func=lambda args: print(f"ifmsim {__version__}") or EXIT_OK)

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
