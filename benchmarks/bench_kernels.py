"""Time the literal protocol kernels against merge_coaxial plus kernel.

Builds a synthetic binary-noise batch shaped like the fast-sampling sweep
(per-sample steps on one axis, many segments per slot) and times, for each
protocol, the kernel on the literal segment chain and merge_coaxial followed
by the kernel on the merged chain, as the ensemble dispatch runs them.
Throughput is given in requested segment updates per second (realizations x
segments before merging), so the two columns are directly comparable.  Run
from the repository root:

    PYTHONPATH=src python benchmarks/bench_kernels.py --realizations 200 --slots 20 --samples-per-slot 250
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from ifmsim import kernels
from ifmsim.core import basis_state


def time_call(fn, repeats=3):
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def main() -> None:
    parser = argparse.ArgumentParser(description="Time literal and merged protocol kernels")
    parser.add_argument("--realizations", type=int, default=200)
    parser.add_argument("--slots", type=int, default=20)
    parser.add_argument("--samples-per-slot", type=int, default=250)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    n_seg = args.slots * args.samples_per_slot
    signs = np.where(rng.random((args.realizations, args.slots)) < 0.5, -1.0, 1.0)
    dtheta = np.repeat(signs, args.samples_per_slot, axis=1) * (np.pi / 250.0)
    chi = np.full_like(dtheta, -np.pi / 2.0)
    offsets = np.arange(args.slots + 1, dtype=np.int64) * args.samples_per_slot
    phi = np.pi / (args.slots + 1)
    psi2 = basis_state(2, 0)
    psi3 = basis_state(3, 0)
    updates = args.realizations * n_seg

    print(f"batch: {args.realizations} realizations x {n_seg} segments "
          f"({args.slots} slots)")

    def qubit(d, c, o):
        return kernels.qubit_populations(d, c, psi2)

    def cifm(d, c, o):
        return kernels.cifm_populations(d, c, o, phi, psi3)

    def pifm(d, c, o):
        return kernels.pifm_populations(d, c, o, phi, psi3)

    for name, kernel in (("qubit", qubit), ("cifm", cifm), ("pifm", pifm)):
        # the qubit has no slot structure: the dispatch merges its whole chain
        slot_edges = None if name == "qubit" else offsets
        t_lit, ref = time_call(lambda: kernel(dtheta, chi, offsets))
        t_merge, out = time_call(lambda: kernel(*kernels.merge_coaxial(dtheta, chi, slot_edges)))
        diff = float(np.max(np.abs(out - ref)))
        print(f"{name:>5}: literal {t_lit * 1e3:9.1f} ms ({updates / t_lit:9.3g} updates/s) | "
              f"merged {t_merge * 1e3:7.1f} ms ({updates / t_merge:9.3g} updates/s) | "
              f"speedup {t_lit / t_merge:6.1f}x | max diff {diff:.2e}")


if __name__ == "__main__":
    main()
