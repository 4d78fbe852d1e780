"""Command-line front end: config-driven sweeps with reproducible artifacts.

main reads the command line against one table, _COMMANDS, of each
subcommand's function, help line and flags; a flag's (kind, range, default)
reads as a config key's, and a usage error exits 2 naming the word at fault.
Configs are INI files (key = value under [section] headers) documented in
the README and checked against _SWEEP_SCHEMA or _FCS_SCHEMA, a table of
every key's kind, range and default; scenario [noise] defaults live in the
scenario classes, whose _fields are the scenario's keys.  A sweep config
sets only keys its mode reads (_MODE_KEYS, and in scenario mode its
scenario's fields).  The library's rules are checked by its drivers alone;
main turns their ArgumentError into exit 2, naming `[section] key` for each
argument at fault.  Every run writes a manifest JSON of the echoed config,
its hash, the seed used and its source (--seed, the config, or the default
0), the RNG scheme, the python and numpy versions, timestamps, the output
files and, for a sweep, its transparent slot counts (anomalous_n, empty
outside kappa mode) and work counters, so any artifact can be regenerated
byte-for-byte from (config, seed, version).  Every CSV goes through
_write_csv and every manifest through _write_manifest; --threads is ignored.
"""

from __future__ import annotations

import configparser
import datetime as _dt
import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path
from types import SimpleNamespace

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
    """value, or a ConfigError naming it when it is not finite or not in bounds.

    An int beyond the float range counts as not finite: math.isfinite would
    raise OverflowError on it, and comparing it with a float is exact."""
    lo, _, hi = bounds.partition("..")
    if hi:
        ok, bounds = float(lo) <= value <= float(hi), f"in {bounds}"
    else:
        op, _, b = bounds.partition(" ")
        ok = not op or _COMPARE[op](value, float(b))
    if not (abs(value) <= sys.float_info.max and ok):
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


#: Each scenario's class by name.  Its fields are the [noise] keys it
#: takes, and a key the config leaves out keeps the field's default.
_SCENARIOS = {
    "zero_sum": experiments.ZeroSumAmplitude,
    "amplitude": experiments.WhiteAmplitude,
    "amplitude_phase": experiments.WhiteAmplitudePhase,
    "phase": experiments.WhitePhase,
    "colored_phase": experiments.ColoredPhase,
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
        "kappa_inv_fractions": ("floats", "> 0", None),  # the drivers check f * total_duration
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


#: The two library arguments whose config key has another name.
_ARGUMENT_KEYS = {"kappa_inv_values": "kappa_inv_fractions", "kappa": "kappa_t"}


def _keyed(exc: experiments.ArgumentError, schema: dict) -> str:
    """exc's message with `[section] key` for the first mention of each argument it names."""
    message = str(exc)
    for name in exc.names:
        key = _ARGUMENT_KEYS.get(name, name)
        for section in (s for s, keys in schema.items() if key in keys):  # at most one
            message = re.sub(rf"\b{name}\b", f"[{section}] {key}", message, count=1)
    return message


def _check_read(config: dict, values: dict) -> None:
    """A ConfigError naming the first key the config sets that its sweep
    mode, or in scenario mode its scenario, never reads."""
    mode = values["mode"]
    reads = ("mode", "realizations", "seed", "n_values") + _MODE_KEYS[mode]
    where = f"{mode} mode"
    if mode == "scenario":
        reads += _SCENARIOS[values["scenario"]]._fields
        where += f" with scenario {values['scenario']}"
    for section, raws in config.items():
        for key in raws:
            if key not in reads:
                raise ConfigError(f"[{section}] {key} is not read in {where}")


def _resolve_seed(values: dict, cli_seed) -> tuple[int, str]:
    if cli_seed is not None:  # checked by _parse
        return cli_seed, "cli"
    return (values["seed"], "config") if "seed" in values else (0, "default")


# ---------------------------------------------------------------------------
# writers: every file a run writes goes through one of these
# ---------------------------------------------------------------------------

def _utcnow() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat()


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header: str, rows) -> None:
    """Write a header line and one line per row of cells.  A float cell is
    printed by _fmt (17 significant digits), any other cell as str prints
    it, so an int stays exact at any size."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row) + "\n")


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_manifest(out_dir: Path, prefix: str, config, seed, seed_source, started, outputs,
                    **blocks) -> Path:
    """Write <prefix>_manifest.json, finished now, and return its path; each
    keyword block goes in under its own name."""
    manifest = {
        "tool": "ifmsim",
        "version": __version__,
        "config": config,
        "config_hash": config_hash(config),
        "master_seed": seed,
        "seed_source": seed_source,
        "rng_scheme": experiments.RNG_SCHEME,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "started_utc": started,
        "finished_utc": _utcnow(),
        "outputs": [str(p) for p in outputs],
        **blocks,
    }
    path = out_dir / f"{prefix}_manifest.json"
    _write_json(path, manifest)
    return path


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

    if mode != "scenario":  # kappa and clustering: correlation times as fractions of the sequence
        total = values["total_duration"]
        kinvs = tuple(f * total for f in values["kappa_inv_fractions"])
    if mode == "scenario":
        scenario_class = _SCENARIOS[values["scenario"]]
        scenario = scenario_class(**_given(values, scenario_class._fields))
        # checked on the scenario, so that a class default counts as well
        if (isinstance(scenario, experiments.WhiteAmplitude)
                and scenario.theta_lo > scenario.theta_hi):
            raise ConfigError(f"[noise] theta_lo = {scenario.theta_lo:g} must not exceed "
                              f"[noise] theta_hi = {scenario.theta_hi:g}")
        result = experiments.run_sweep(experiments.SweepConfig(
            protocol=values["protocol"], scenario=scenario, n_values=n_values, **common))
    elif mode == "kappa":
        result = experiments.sweep_kappa_N(n_values, kinvs, values["delta_theta"],
                                           total_duration=total, sample_rate=values["sample_rate"],
                                           **common, **_given(values, ("protocol",)))
    else:  # clustering
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
        _write_csv(path, "n,param,mean,variance,std,realizations,seed",
                   ((n, param, stats.mean[i, j], stats.variance[i, j], stats.std[i, j],
                     stats.count, seed)
                    for i, n in enumerate(result.n_values)
                    for j, param in enumerate(result.params)))
        outputs.append(path)

    manifest_path = _write_manifest(out_dir, prefix, config, seed, seed_source, started, outputs,
                                    anomalous_n=list(result.anomalies), counters=result.counters)
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
    cells = []
    for (config, cifm, pifm), (exp_c, exp_p) in zip(rows, experiments.TABLE_EXPECTED):
        label = " ".join(f"{t / math.pi:+.0f}pi" if t else "0" for t in config)
        cells.append((label, cifm, pifm, f"{round(cifm, 3):.3f}", f"{round(pifm, 3):.3f}"))
        # agreement within one unit of the last printed digit: the
        # reference table's own final digits mix rounding directions
        ok = abs(cifm - exp_c) < 1e-3 and abs(pifm - exp_p) < 1e-3
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        print(f"{status} ({label}): cifm {cifm:.6f} (expect {exp_c}), "
              f"pifm {pifm:.6f} (expect {exp_p})")
    _write_csv(out_path, "configuration,cifm_p0,pifm_p0,cifm_p0_3dp,pifm_p0_3dp", cells)
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
    kappa = values["kappa_t"] / total
    theta = values["theta"]
    realizations = values["realizations"]
    lam_max, lam_count, h = values["lambda_max"], values["lambda_count"], values["moment_step"]
    if lam_count % 2 == 0:
        raise ConfigError(f"[fcs] lambda_count must be odd, got {lam_count}")
    lambdas = np.linspace(-lam_max, lam_max, lam_count)
    started = _utcnow()

    gf = experiments.fcs_estimate(kappa, theta, total, lambdas, realizations,
                                  master_seed=seed)
    out_dir = Path(args.out)  # made once the library has taken the config
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = Path(args.config).stem
    gf_path = out_dir / f"{prefix}_gf.csv"
    _write_csv(gf_path, "lambda,re,im,stderr",
               zip(gf.lambda_values, gf.re, gf.im, gf.statistical_error))

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
    manifest_path = _write_manifest(out_dir, prefix, config, seed, seed_source, started,
                                    [gf_path, report_path])
    ratio_text = ("undefined (event mean 0)" if ratio is None
                  else f"{ratio:.4f} (deviation {abs(ratio - 1.0):.4f})")
    print(f"variance/mean ratio {ratio_text}; "
          f"max |gf - poisson| = {report['max_deviation_from_poisson_in_stderr']:.2f} stderr")
    print(f"wrote {gf_path}, {report_path}, {manifest_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# noise subcommand
# ---------------------------------------------------------------------------

def cmd_noise(args) -> int:
    seed, rate = args.seed, args.rate
    if args.telegraph:
        if args.color is not None:
            raise ConfigError("--color and --telegraph exclude each other; choose one")
        kappa = args.kappa if args.kappa is not None else 1e5
        amplitude = args.amplitude if args.amplitude is not None else 1.0
        # the ACF fit spans lags up to 3 / (2 kappa), three e-folds of its
        # decay; clamped before int(), which an infinite product would fail
        max_lag = int(min(1.5 / kappa * rate, args.samples // 4))
        if max_lag < 1:
            raise ConfigError(f"--kappa must be at most about 1.5 * --rate = {1.5 * rate:g}, "
                              f"so that the ACF fit holds a lag beyond 0; got {kappa:g}")
    elif args.color is None:
        raise ConfigError("choose --color NAME or --telegraph")
    else:
        for flag in ("kappa", "amplitude"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag} sets the telegraph noise only; "
                                  f"--color {args.color} does not read it")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.telegraph:
        step = 1.0 / rate
        series = np.asarray(noise.gen_telegraph_slots(kappa, amplitude, args.samples, step, seed))
        acf = np.zeros(max_lag + 1)
        n_traces = 200
        for i in range(n_traces):
            s = noise.gen_telegraph_slots(kappa, amplitude, args.samples, step, [seed, i])
            acf += noise.estimate_acf(s, max_lag)
        acf /= n_traces
        # fitted on lag indices and scaled by the rate after: lags k / rate
        # underflow at extreme rates, and the fit would then fail; halved
        # before the scaling, whose product would overflow near 1e308
        lags = np.arange(max_lag + 1)
        positive = acf > 0
        kappa_hat = math.nan
        if np.count_nonzero(positive) >= 2:
            fit = float(np.polyfit(lags[positive], np.log(acf[positive]), 1)[0])
            kappa_hat = -(fit / 2.0) * rate
        n_segments = max(1, series.size // 256)
        usable = series[: n_segments * 256]  # whole segments only
        freqs, psd = noise.estimate_psd(usable, rate, segment_count=n_segments)
        # a trace without switches leaves a flat ACF, which shows no decay
        determined = math.isfinite(kappa_hat) and kappa_hat > 0
        code = EXIT_OK if determined else EXIT_MISMATCH
        report = (f"telegraph: kappa = {kappa:g}, extracted kappa = {kappa_hat:g} "
                  f"({abs(kappa_hat / kappa - 1) * 100:.1f}% off)" if determined else
                  f"telegraph: kappa = {kappa:g}, extracted kappa undetermined: "
                  f"the ACF over lags 0-{max_lag} holds no decay the fit can resolve")
    else:
        alpha = noise.COLOR_ALPHA[args.color]
        count = 1 << (args.samples - 1).bit_length()  # round up to a power of two
        series = noise.gen_colored(noise.ColorSpec(alpha), count, seed)
        acc = None
        n_traces = 32
        for i in range(n_traces):
            s = noise.gen_colored(noise.ColorSpec(alpha), count, [seed, i])
            freqs, psd = noise.estimate_psd(s, rate)
            acc = psd if acc is None else acc + psd
        psd = acc / n_traces
        slope = noise.fit_psd_slope(freqs, psd)
        code = EXIT_OK
        report = (f"{args.color} noise: fitted slope {slope:+.2f} dB/decade "
                  f"(target {-10 * alpha:+d})")

    name = "telegraph" if args.telegraph else args.color
    trace_path, psd_path = out_dir / f"{name}_trace.csv", out_dir / f"{name}_psd.csv"
    _write_csv(trace_path, "time_s,value", zip(np.arange(series.size) / rate, series))
    # in dB; an empty bin has no logarithm and is left out
    _write_csv(psd_path, "freq_hz,psd_db",
               ((f, 10.0 * math.log10(p)) for f, p in zip(freqs, psd) if p > 0))
    print(report)
    print(f"wrote {trace_path}, {psd_path}")
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

#: Each subcommand's function, help line and flags, in --help order.  A flag
#: maps to (kind, range, default) as a schema key does, or kind "str" for any
#: word and "switch" for a flag without a value; --config is required.
_RUN_FLAGS = {"--config": ("str", None, None), "--out": ("str", None, "out"),
              "--seed": ("int", ">= 0", None), "--threads": ("int", "", 0)}
_COMMANDS = {
    "sweep": (cmd_sweep, "run an ensemble sweep from a config file", _RUN_FLAGS),
    "table1": (cmd_table1, "deterministic four-slot configuration table",
               {"--out": ("str", None, "table1.csv")}),
    "fcs": (cmd_fcs, "generating-function reconstruction from a config file", _RUN_FLAGS),
    "noise": (cmd_noise, "noise trace and spectrum; by default --kappa 1e5, --amplitude 1", {
        "--color": ("choice", tuple(sorted(noise.COLOR_ALPHA)), None),
        "--telegraph": ("switch", None, False), "--kappa": ("float", "> 0", None),
        "--amplitude": ("float", "!= 0", None), "--samples": ("int", ">= 64", 50000),
        "--rate": ("float", "> 0", 1e6), "--seed": ("int", ">= 0", 0),
        "--out": ("str", None, "out")}),
    "version": (lambda args: print(f"ifmsim {__version__}") or EXIT_OK, "print the version", {}),
}


def _help() -> None:
    """Print the usage line, and each command's help line and flags."""
    print("usage: ifmsim COMMAND [--flag VALUE | --flag=VALUE | --switch]... (--threads: ignored)")
    for command, (_, text, flags) in _COMMANDS.items():
        print(f"\nifmsim {command}: {text}")
        for flag, (kind, bounds, default) in flags.items():
            given = ("required" if flag == "--config" else
                     default is not None and f"default {default}")
            bounds = "|".join(bounds) if kind == "choice" else bounds
            print(f"  {flag:<12} {kind}", *filter(None, (bounds, given)), sep=", ")


def _parse(argv):
    """(command, flag values by name) of a command line.  A flag's value is
    the next word, or follows --flag=, and a word starting with -- is never
    one; a repeated flag keeps its last value.  A usage error raises a
    ConfigError naming the word."""
    command, *words = argv or ["(none)"]
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command}; choose one of {', '.join(_COMMANDS)}")
    flags = _COMMANDS[command][2]
    values = {flag[2:]: default for flag, (_, _, default) in flags.items()}
    words = iter(words)
    for word in words:
        flag, eq, raw = word.partition("=")
        kind, bounds, _ = flags.get(flag, (None, None, None))
        if kind is None or kind == "switch" and eq:  # a switch takes no value
            raise ConfigError(f"ifmsim {command} takes no flag {word!r}")
        if not (eq or kind == "switch"):
            raw = next(words, None)
            if raw is None or raw.startswith("--"):
                raise ConfigError(f"{flag} needs a value")
        values[flag[2:]] = (True if kind == "switch" else raw if kind == "str"
                            else _value(raw, kind, bounds, flag))
    if "--config" in flags and values["config"] is None:
        raise ConfigError(f"ifmsim {command} needs --config")
    return command, SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        return _help() or EXIT_OK
    t0 = time.perf_counter()
    try:
        command, args = _parse(argv)
        code = _COMMANDS[command][0](args)
    except ConfigError as exc:  # the command line or the config
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except experiments.ArgumentError as exc:  # a config value the library refuses
        schema = _FCS_SCHEMA if command == "fcs" else _SWEEP_SCHEMA
        print(f"config error: {_keyed(exc, schema)}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if code == EXIT_OK and command != "version":
        print(f"done in {time.perf_counter() - t0:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
