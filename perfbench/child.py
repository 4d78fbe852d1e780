"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py RESULT.json setup
    python3 perfbench/child.py RESULT.json run   CLI_ARG...
    python3 perfbench/child.py RESULT.json trace CLI_ARG...

Times ``import ifmsim.cli`` (setup_s) and, unless the mode is ``setup``,
the call into ``ifmsim.cli.main`` until it returns (wall_s).  ``trace``
wraps the entry points listed in tracing.py first and stores the spans.
The result, with the peak resident set size, goes to RESULT.json.  The
program must be imported from the ``src`` directory named by
``IFMSIM_BENCH_SRC``, never from an installed copy.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter


def main(argv: list[str]) -> int:
    result_path, mode, cli_argv = Path(argv[0]), argv[1], argv[2:]
    t0 = perf_counter()
    import ifmsim.cli
    setup_s = perf_counter() - t0

    src = Path(os.environ["IFMSIM_BENCH_SRC"]).resolve()
    if src not in Path(ifmsim.__file__).resolve().parents:
        print(f"ifmsim imported from {ifmsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy

    result = {
        "setup_s": setup_s,
        "env": {
            "cpu_count": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel_backend": ifmsim.kernel_backend,
            "ifmsim": ifmsim.__version__,
        },
    }
    if mode != "setup":
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer(run_id=result_path.parent.name)
            with tracer.installed_in(), tracer.span(tracing.ROOT_SPAN):
                code = ifmsim.cli.main(cli_argv)
            result["trace"] = tracer.dump()
            wall_s = next(t1 - t0 for *_, name, t0, t1 in tracer.spans
                          if name == tracing.ROOT_SPAN)
        else:
            t1 = perf_counter()
            code = ifmsim.cli.main(cli_argv)
            wall_s = perf_counter() - t1
        result.update(exit_code=code, wall_s=wall_s)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
