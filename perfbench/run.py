"""ifmsim benchmark: three CLI workloads, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload anomaly_grid --seed 20240905 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/run.py --write-spec          # regenerate BENCHMARK.json

Every repetition runs ``ifmsim.cli.main`` on the benchmark's own config in
a fresh child process (child.py) with ``--threads 1`` and the workload seed
passed as ``--seed``.  Repetitions follow each other until the next one
would overrun ``--seconds``; wall_s is their median.  Every output is
checked (workloads.py) and the run prints each metric with its unit, then,
as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics.  ``--trace 1`` gives the
per-layer metrics: one traced repetition (tracing.py), one untraced pass
at the program's default thread count (all cores) for the thread speed-up,
and untraced repetitions for the serial baseline and the tracing overhead.
Each run also stores a record with its environment under
``.perfbench_out/results`` for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS, Check, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 20240905
RUN_SECONDS = 40
DEADLINE_S = 170.0  # a run must end within 180 s
# import-only children before each timed repetition; setup_s is their median
SETUP_PER_REP = 4
# Timed repetitions run serially.  With the default of one thread per core,
# the run waits for whichever core the host slows most: over 10 seeds on a
# 2-vCPU VM, wall_s spread 27.5% at the default and 10-11% at one thread,
# which is also the faster setting.  Serial children are pinned to one CPU,
# so they do not migrate and numpy starts no helper thread; in back-to-back
# 5-seed sets on that VM they ran 16-22% faster than unpinned.
THREADS = 1
PIN_CPU = max(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    bound: float | None = None


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("samples_per_s", "1/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    Metric("kernels.self_s", "s"),
    Metric("kernels.qubit.self_s", "s"),
    Metric("kernels.cifm.self_s", "s"),
    Metric("kernels.pifm.self_s", "s"),
    Metric("kernels.calls", "count"),
    Metric("kernels.segment_updates", "count"),
    Metric("kernels.updates_per_s", "1/s", "higher"),
    Metric("kernels.bytes_in", "B"),
    Metric("noise.self_s", "s"),
    Metric("noise.calls", "count"),
    Metric("noise.samples", "count"),
    Metric("noise.samples_per_s", "1/s", "higher"),
    Metric("experiments.self_s", "s"),
    Metric("experiments.points", "count"),
    Metric("experiments.realizations", "count"),
    Metric("experiments.serial_wall_s", "s"),
    Metric("experiments.thread_speedup", "ratio", "higher"),
    Metric("cli.self_s", "s"),
    Metric("cli.bytes_written", "B"),
    Metric("trace.wall_s", "s"),
    Metric("trace.root_self_s", "s"),
    Metric("trace.overhead_s", "s"),
)


def spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    result: dict
    check: Check
    bytes_written: int = 0

    @property
    def ok(self) -> bool:
        return self.result.get("exit_code") == 0 and "wall_s" in self.result


def _pin() -> None:
    os.sched_setaffinity(0, {PIN_CPU})


def _child(rep_dir: Path, mode: str, cli_argv: list[str], deadline: float,
           pin: bool = True) -> dict:
    """Run child.py once and return its result, or {} if it produced none.

    A pinned child runs on PIN_CPU alone.
    """
    result_path = rep_dir / "result.json"
    log_path = rep_dir / "child.log"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), IFMSIM_BENCH_SRC=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode, *cli_argv]
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - perf_counter()),
                                  preexec_fn=_pin if pin else None).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {}
    if code != 0 or not result or result.get("exit_code", 0) != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"child {mode} exited {code}:\n{tail}", file=sys.stderr)
    return result if code == 0 else {}


def run_rep(workload: Workload, seed: int, mode: str, deadline: float,
            threads: int | None = THREADS) -> Rep:
    """One repetition; at the program's default thread count it is not pinned."""
    OUT_DIR.mkdir(exist_ok=True)
    rep_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{mode}-", dir=OUT_DIR))
    out = rep_dir / "out"
    try:
        result = _child(rep_dir, mode, workload.argv(out, seed, threads), deadline,
                        pin=threads is not None)
        check = workload.check_outputs(out, result.get("exit_code", -1))
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        return Rep(result, check, written)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def setup_samples(count: int, deadline: float) -> list[float]:
    """setup_s of `count` import-only children."""
    OUT_DIR.mkdir(exist_ok=True)
    samples = []
    for _ in range(count):
        rep_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR))
        try:
            result = _child(rep_dir, "setup", [], deadline)
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        if "setup_s" in result:
            samples.append(result["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    reps: list[Rep] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(r.check.attempted for r in self.reps)

    @property
    def failed(self) -> int:
        return sum(r.check.failed for r in self.reps)

    def env(self) -> dict:
        return next((r.result["env"] for r in self.reps if "env" in r.result), {})


def _repeat(outcome: Outcome, workload: Workload, seed: int, seconds: float,
            start: float, deadline: float,
            setup_per_rep: int = 0) -> tuple[list[Rep], list[float]]:
    """Untraced serial repetitions while --seconds allows.

    Before each one, `setup_per_rep` import-only children give set-up samples.
    """
    reps, setups = [], []
    while True:
        t0 = perf_counter()
        setups += setup_samples(setup_per_rep, deadline)
        reps.append(run_rep(workload, seed, "run", deadline))
        took = perf_counter() - t0
        if not reps[-1].ok or perf_counter() - start + took > seconds:
            break
    outcome.reps += reps
    return [r for r in reps if r.ok], setups


def measure_end_to_end(workload: Workload, seed: int, seconds: float) -> Outcome:
    start = perf_counter()
    deadline = start + DEADLINE_S
    out = Outcome()
    ok, setups = _repeat(out, workload, seed, seconds, start, deadline, SETUP_PER_REP)
    if ok and setups:
        walls = [r.result["wall_s"] for r in ok]
        work = workload.requested_work()
        out.metrics = {
            "wall_s": statistics.median(walls),
            "samples_per_s": work / statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r.result["peak_rss_mb"] for r in ok),
        }
        out.notes.append(f"W = {work} segment updates; wall_s of {len(walls)} repetitions: "
                         + " ".join(f"{t:.3f}" for t in walls))
        out.notes.append(f"setup_s of {len(setups)} children: "
                         + " ".join(f"{t:.3f}" for t in setups))
    return out


def measure_traced(workload: Workload, seed: int, seconds: float) -> Outcome:
    start = perf_counter()
    deadline = start + DEADLINE_S
    out = Outcome()
    traced = run_rep(workload, seed, "trace", deadline)
    default = run_rep(workload, seed, "run", deadline, threads=None)
    out.reps += [traced, default]
    if not (traced.ok and default.ok):
        return out
    ok, _ = _repeat(out, workload, seed, seconds, start, deadline)
    if not ok:
        return out
    dump = traced.result["trace"]
    wall = statistics.median(r.result["wall_s"] for r in ok)
    out.metrics = tracing.layer_metrics(dump)
    out.metrics.update({
        "experiments.serial_wall_s": wall,
        "experiments.thread_speedup": wall / default.result["wall_s"],
        "cli.bytes_written": traced.bytes_written,
        "trace.overhead_s": traced.result["wall_s"] - wall,
    })
    out.notes.append(f"{len(dump['spans'])} spans; untraced median over {len(ok)} repetitions")
    for name in dump["missing"]:
        out.notes.append(f"entry point {name} not found: its metrics are absent")
    for name in dump["uncounted"]:
        out.notes.append(f"entry point {name} could not be counted: its counts are absent")
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report(workload: Workload, seed: int, trace: int, outcome: Outcome) -> dict:
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {m.name: {"value": outcome.metrics[m.name], "unit": m.unit}
               for m in wanted if m.name in outcome.metrics}
    env = dict(outcome.env(), git_revision=git_revision(), threads=THREADS)
    print(f"{workload.name}: seed {seed}, {'traced' if trace else 'end to end'}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in outcome.notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for m in wanted:
        if m.name not in metrics:
            print(f"  {m.name:28s} absent")
    failed_frac = outcome.failed / outcome.attempted
    print(f"  {'failed_frac':28s} {failed_frac:.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for rep in outcome.reps:
        for failure in rep.check.failures[:5]:
            print(f"  FAILED {failure}")
    result = {
        "correct": outcome.failed == 0 and bool(metrics),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    records = OUT_DIR / "results"
    records.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload.name, seed=seed, trace=trace, env=env)
    path = records / f"{workload.name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the tables in this file and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n",
                                             encoding="utf-8")
        return 0
    # turn a termination request into an exception, so that subprocess.run
    # kills and waits for the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "ifmsim" / "__init__.py").is_file():
        print(f"no ifmsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = measure_traced if args.trace else measure_end_to_end
    results = {}
    for name in names:
        outcome = measure(WORKLOADS[name], args.seed, args.seconds)
        results[name] = report(WORKLOADS[name], args.seed, args.trace, outcome)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
