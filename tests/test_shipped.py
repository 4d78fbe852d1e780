"""The shipped configs, and the scenario configs of the tests, reproduce
their committed outputs.

tests/data/shipped holds the stats, control, gf and moments outputs of
every configs/*.cfg at its own seed.  tests/data/scenarios holds small
configs of the scenarios no shipped config runs (phase, colored_phase,
amplitude_phase, amplitude), each beside its stats output.  A change that
keeps the results keeps every numeric cell within 1e-13 of them.  To
regenerate the copies after a deliberate change of results, run each
config as below:

    ifmsim sweep --config configs/<name>.cfg --out tests/data/shipped
    ifmsim fcs --config configs/fcs_poisson.cfg --out tests/data/shipped
    ifmsim sweep --config tests/data/scenarios/<name>.cfg --out tests/data/scenarios

and delete the manifests those commands write beside them.
"""

import csv
import json
from pathlib import Path

import pytest

from ifmsim.cli import EXIT_OK, main

REPO = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
SHIPPED = DATA / "shipped"
SCENARIOS = DATA / "scenarios"
TOLERANCE = 1e-13


def close(got, want) -> bool:
    """Numbers within TOLERANCE of each other; anything else must be equal."""
    try:
        return abs(float(got) - float(want)) <= TOLERANCE
    except (TypeError, ValueError):
        return got == want


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


#: Each config with the directory of its committed outputs, by file name.
CONFIGS = {p.name: (p, SHIPPED) for p in (REPO / "configs").glob("*.cfg")}
CONFIGS.update((p.name, (p, SCENARIOS)) for p in SCENARIOS.glob("*.cfg"))

#: The transparent slot counts each sweep manifest lists: the anomaly grid
#: steps 4 pi / 1000 per sample over 10,000 samples, so a slot turns a
#: whole number of times where it holds 1000 k samples; every other sweep
#: lists none.
ANOMALOUS_N = {"anomaly_grid.cfg": [1, 2, 5, 10]}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_shipped_config_reproduces_its_committed_outputs(config, tmp_path):
    path, outputs = CONFIGS[config]
    command = "fcs" if config.startswith("fcs") else "sweep"
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK
    stem = path.stem
    committed = sorted(outputs.glob(f"{stem}_*"))
    assert committed, f"no committed outputs for {config}"
    written = {p.name for p in tmp_path.iterdir()} - {f"{stem}_manifest.json"}
    assert written == {p.name for p in committed}
    if command == "sweep":
        manifest = json.loads((tmp_path / f"{stem}_manifest.json").read_text(encoding="utf-8"))
        assert manifest["anomalous_n"] == ANOMALOUS_N.get(config, [])
    for want_path in committed:
        got_path = tmp_path / want_path.name
        if want_path.suffix == ".json":
            got = json.loads(got_path.read_text(encoding="utf-8"))
            want = json.loads(want_path.read_text(encoding="utf-8"))
            assert got.keys() == want.keys(), want_path.name
            pairs = [(key, got[key], want[key]) for key in want]
        else:
            got, want = read_csv(got_path), read_csv(want_path)
            assert len(got) == len(want) and got[0] == want[0], want_path.name
            pairs = [((i, j), g, w) for i, (got_row, want_row) in enumerate(zip(got, want))
                     for j, (g, w) in enumerate(zip(got_row, want_row, strict=True))]
        for where, g, w in pairs:
            assert close(g, w), f"{want_path.name} {where}: {g} != {w}"
