"""BENCHMARK.json matches the tables in run.py and stays within the format's limits."""

import json
import re

import pytest

import compare
import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_committed_spec_is_generated_from_run_py():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.spec()


def test_spec_limits():
    spec = run.spec()
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(w.requested_work() > 0 for w in WORKLOADS.values())


def _record(workload, backend, wall, seed=1):
    return {"workload": workload, "seed": seed, "trace": 0, "correct": True,
            "env": {"kernel_backend": backend},
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


def test_compare_refuses_mixed_kernel_backends():
    with pytest.raises(ValueError, match="kernel backends differ"):
        compare.compare([_record("fcs", "numpy", 3.5)], [_record("fcs", "numba", 1.0)])


def test_compare_flags_a_regression_beyond_the_bound():
    base = [_record("fcs", "numpy", w, s) for s, w in enumerate((3.4, 3.5, 3.6))]
    slower = [_record("fcs", "numpy", w, s) for s, w in enumerate((4.6, 4.7, 4.8))]
    same = [_record("fcs", "numpy", w, s) for s, w in enumerate((3.5, 3.5, 3.6))]
    assert compare.compare(base, slower)[0].endswith("WORSE")
    assert compare.compare(base, same)[0].endswith("ok")
