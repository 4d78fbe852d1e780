"""Span tracer that wraps ifmsim's ensemble-path entry points from outside.

Each call into a wrapped entry point records a span (run id, span id,
parent id, name, start, end) in memory; ``dump()`` returns them when the
run ends.  Counters are recorded at the same boundaries.

``experiments`` binds the ``gen_*`` functions of ``noise`` at import time,
so the sampling layer is wrapped inside the ``ifmsim.experiments``
namespace, together with the scenario ``.sample`` methods.  Traced runs
are serial (``--threads 1``), so spans nest on one stack and a span's self
time is its duration minus that of its direct children.

An entry point that no longer exists is reported as missing, and the
metrics that depend on it are left out, rather than failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

ROOT_SPAN = "run"


def _kernel_counts(arguments, result) -> dict[str, int]:
    arrays = [v for v in arguments.values() if isinstance(v, np.ndarray)]
    return {"kernels.calls": 1,
            "kernels.segment_updates": int(np.size(arguments["dtheta"])),
            "kernels.bytes_in": sum(a.nbytes for a in arrays)}


def _experiments_counts(arguments, result) -> dict[str, int]:
    """Grid points a sweep driver computes and the realizations it asks for.

    fcs_estimate draws one ensemble and reuses it across its lambda grid.
    """
    if "config" in arguments:  # run_sweep
        points = len(arguments["config"].n_values)
        realizations = points * arguments["config"].realizations
    elif "lambda_values" in arguments:  # fcs_estimate
        points = len(arguments["lambda_values"])
        realizations = int(arguments["realizations"])
    else:  # sweep_kappa_N, clustering_sweep
        points = len(arguments["n_values"]) * len(arguments["kappa_inv_values"])
        realizations = points * int(arguments["realizations"])
    return {"experiments.points": points, "experiments.realizations": realizations}


def _noise_counts(arguments, result) -> dict[str, int]:
    samples = result[0] if isinstance(result, tuple) else result
    return {"noise.calls": 1, "noise.samples": len(samples)}


@dataclass(frozen=True)
class EntryPoint:
    layer: str
    module: str
    attr: str  # "function" or "Class.method"
    counter: Callable | None = None  # f(bound arguments or None, result) -> {name: count}

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


_SCENARIOS = ("ZeroSumAmplitude", "WhiteAmplitude", "WhiteAmplitudePhase", "WhitePhase",
              "ColoredPhase", "BinarySlotNoise", "BinarySampledNoise")
_GENERATORS = ("gen_colored", "gen_telegraph_slots", "gen_white", "gen_white_top",
               "gen_zero_sum")

ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("cli", "ifmsim.cli", "main"),
    EntryPoint("experiments", "ifmsim.experiments", "ensemble_markers"),
    *(EntryPoint("experiments", "ifmsim.experiments", f, _experiments_counts)
      for f in ("run_sweep", "sweep_kappa_N", "clustering_sweep", "fcs_estimate")),
    *(EntryPoint("noise", "ifmsim.experiments", f"{s}.sample", _noise_counts)
      for s in _SCENARIOS),
    *(EntryPoint("noise", "ifmsim.experiments", g, _noise_counts) for g in _GENERATORS),
    *(EntryPoint("kernels", "ifmsim.kernels", f"{p}_populations", _kernel_counts)
      for p in ("qubit", "cifm", "pifm")),
)

# counters that read arguments; the noise counter reads only the result,
# which keeps per-realization sample() calls cheap to trace
_BINDS = {_kernel_counts, _experiments_counts}


def span_groups(name: str) -> tuple[str, ...]:
    """Groups a span's self time counts towards: its layer, and for kernels its protocol."""
    layer, _, attr = name.partition(".")
    if layer == "kernels":
        return layer, f"kernels.{attr.removesuffix('_populations')}"
    return (layer,)


class Tracer:
    def __init__(self, run_id: str, entry_points=ENTRY_POINTS):
        self.run_id = run_id
        self.entry_points = tuple(entry_points)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.installed: list[str] = []
        self.missing: list[str] = []
        self.uncounted: set[str] = set()
        self._ids = itertools.count(1)
        # open spans, innermost last: (span id, layer, counted)
        self._stack: list[tuple[int, str, bool]] = [(0, "", False)]

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent = next(self._ids), self._stack[-1][0]
        self._stack.append((sid, name.partition(".")[0], False))
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _wrap(self, ep: EntryPoint, fn):
        counter = ep.counter
        sig = inspect.signature(fn) if counter in _BINDS else None
        name, layer = ep.name, ep.layer

        def traced(*args, **kwargs):
            parent = self._stack[-1]
            sid = next(self._ids)
            self._stack.append((sid, layer, counter is not None))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent[0], name, t0, t1))
            # a call nested in another counted call of its layer is already counted
            if counter is not None and not (parent[1] == layer and parent[2]):
                self._count(name, counter, sig, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, name, counter, sig, args, kwargs, result) -> None:
        try:
            if sig is None:
                arguments = None
            else:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            values = counter(arguments, result)
        except (KeyError, TypeError, AttributeError, IndexError):
            self.uncounted.add(name)
            return
        for key, value in values.items():
            self.counts[key] += value

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed_in(self):
        """Wrap every entry point that exists; restore the originals on exit."""
        restore = []
        try:
            for ep in self.entry_points:
                owner_name, _, attr = ep.attr.rpartition(".")
                try:
                    owner = importlib.import_module(ep.module)
                    if owner_name:
                        owner = getattr(owner, owner_name)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(ep.name)
                    continue
                setattr(owner, attr, self._wrap(ep, original))
                restore.append((owner, attr, original))
                self.installed.append(ep.name)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [[self.run_id, *s] for s in self.spans],
            "counts": dict(self.counts),
            "installed": self.installed,
            "missing": self.missing,
            "uncounted": sorted(self.uncounted),
        }


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[str, float]:
    """Self time per span group: each span's duration minus its direct children's.

    Spans of a serial run nest, so the groups of all layers plus the root
    add up to the root span.
    """
    children = defaultdict(float)
    for _run, _sid, parent, _name, t0, t1 in spans:
        children[parent] += t1 - t0
    times = defaultdict(float)
    for _run, sid, _parent, name, t0, t1 in spans:
        for group in span_groups(name):
            times[group] += t1 - t0 - children[sid]
    return dict(times)


_COUNTS = {
    "kernels": ("kernels.calls", "kernels.segment_updates", "kernels.bytes_in"),
    "noise": ("noise.calls", "noise.samples"),
    "experiments": ("experiments.points", "experiments.realizations"),
}


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run; absent entry points give absent metrics."""
    times = self_times(dump["spans"])
    # a missing entry point's time falls to its caller and its work goes
    # uncounted, so every total of its layer is left out
    incomplete = {name.partition(".")[0] for name in dump["missing"] + dump["uncounted"]}
    out: dict[str, float] = {}
    groups = {g for name in dump["installed"] for g in span_groups(name)}
    for group in sorted(groups - incomplete):
        out[f"{group}.self_s"] = times.get(group, 0.0)
    for layer, keys in _COUNTS.items():
        if layer in groups and layer not in incomplete:
            for key in keys:
                out[key] = dump["counts"].get(key, 0)
    if "kernels.self_s" in out and "kernels.segment_updates" in out:
        out["kernels.updates_per_s"] = _rate(out["kernels.segment_updates"], out["kernels.self_s"])
    if "noise.self_s" in out and "noise.samples" in out:
        out["noise.samples_per_s"] = _rate(out["noise.samples"], out["noise.self_s"])
    root = [s for s in dump["spans"] if s[3] == ROOT_SPAN]
    if root:
        out["trace.wall_s"] = root[0][5] - root[0][4]
        out["trace.root_self_s"] = times.get(ROOT_SPAN, 0.0)
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
