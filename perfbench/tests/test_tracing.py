"""Tracer tests: self-time accounting, entry-point coverage, renamed entry points."""

import re

import pytest

import tracing
from workloads import WORKLOADS


def test_self_times_subtract_direct_children():
    spans = [
        ("r", 1, 0, "run", 0.0, 10.0),
        ("r", 2, 1, "cli.main", 0.1, 9.9),
        ("r", 3, 2, "experiments.clustering_sweep", 0.5, 9.5),
        ("r", 4, 3, "experiments.ensemble_markers", 1.0, 9.0),
        ("r", 5, 4, "noise.BinarySlotNoise.sample", 1.5, 2.0),
        ("r", 6, 5, "noise.gen_telegraph_slots", 1.6, 1.9),
        ("r", 7, 4, "kernels.cifm_populations", 2.0, 6.0),
        ("r", 8, 4, "kernels.pifm_populations", 7.5, 8.0),
    ]
    times = tracing.self_times(spans)
    assert times["kernels"] == pytest.approx(4.5)
    assert times["kernels.cifm"] == pytest.approx(4.0)
    assert times["kernels.pifm"] == pytest.approx(0.5)
    assert times["noise"] == pytest.approx(0.5)
    assert times["experiments"] == pytest.approx(9.0 - 4.5 - 0.5)
    assert times["cli"] == pytest.approx(9.8 - 9.0)
    assert times["run"] == pytest.approx(0.2)
    layers = ("run", "cli", "experiments", "noise", "kernels")
    assert sum(times[g] for g in layers) == pytest.approx(10.0)


# entry points each workload must reach; a later rename shows up here first
COVERAGE = {
    "anomaly_grid": ("kernels.cifm_populations", "noise.gen_telegraph_slots",
                     "noise.BinarySampledNoise.sample"),
    "clustering": ("kernels.pifm_populations", "kernels.cifm_populations",
                   "noise.gen_telegraph_slots"),
    "fcs": ("kernels.qubit_populations",),
}

# grid points and realizations at 8 realizations per ensemble, counted by hand:
# a 3 x 3 grid; a 4 x 8 grid run by cifm and pifm on the same points; and
# 41 + 3 lambda values over two fcs_estimate calls of one ensemble each
POINTS = {"anomaly_grid": (9, 9 * 8), "clustering": (32, 32 * 8), "fcs": (44, 2 * 8)}


def _traced_run(tmp_path, name, entry_points=tracing.ENTRY_POINTS):
    """Trace the workload in process with 8 realizations instead of thousands."""
    import ifmsim.cli

    workload = WORKLOADS[name]
    config = tmp_path / workload.config_name
    config.write_text(re.sub(r"(?m)^realizations = \d+", "realizations = 8",
                             workload.config_path.read_text()))
    tracer = tracing.Tracer("test", entry_points)
    with tracer.installed_in(), tracer.span(tracing.ROOT_SPAN):
        code = ifmsim.cli.main(workload.argv(tmp_path / "out", 7, config_path=config))
    assert code == 0
    return tracer.dump()


@pytest.mark.parametrize("name", list(COVERAGE))
def test_every_listed_entry_point_records_a_span(tmp_path, name):
    dump = _traced_run(tmp_path, name)
    assert dump["missing"] == [] and dump["uncounted"] == []
    recorded = {span[3] for span in dump["spans"]}
    assert set(COVERAGE[name]) <= recorded
    metrics = tracing.layer_metrics(dump)
    points, realizations = POINTS[name]
    assert metrics["experiments.points"] == points
    assert metrics["experiments.realizations"] == realizations
    layers = ("cli", "experiments", "noise", "kernels")
    accounted = sum(metrics[f"{layer}.self_s"] for layer in layers) + metrics["trace.root_self_s"]
    assert accounted == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_wrappers_are_removed_after_the_run(tmp_path):
    import ifmsim.experiments
    import ifmsim.kernels

    before = (ifmsim.kernels.qubit_populations, ifmsim.experiments.BinarySlotNoise.sample)
    _traced_run(tmp_path, "fcs")
    assert (ifmsim.kernels.qubit_populations, ifmsim.experiments.BinarySlotNoise.sample) == before


def test_renamed_entry_point_is_reported_absent(tmp_path):
    renamed = tuple(
        tracing.EntryPoint(ep.layer, ep.module, "qubit_evolve", ep.counter)
        if ep.attr == "qubit_populations" else ep
        for ep in tracing.ENTRY_POINTS)
    dump = _traced_run(tmp_path, "fcs", renamed)
    assert dump["missing"] == ["kernels.qubit_evolve"]
    metrics = tracing.layer_metrics(dump)
    for absent in ("kernels.self_s", "kernels.qubit.self_s", "kernels.calls",
                   "kernels.updates_per_s"):
        assert absent not in metrics
    assert "kernels.cifm.self_s" in metrics and "experiments.self_s" in metrics
