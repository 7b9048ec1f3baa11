"""Smoke tests of the benchmark itself.

Run from the repository root::

    python -m pytest simbench -q

They run every workload at a short length, check that each named metric
is emitted with its unit, and check that the correctness gate fires on a
deliberately inconsistent result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from repro.check import InvariantViolation  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Short lengths: a CBR run covers one whole 64-slot frame.
SHORT = {
    "incast-islip": 60,
    "mesh-b1": 20,
    "cbr-frame": 64,
    "stat-lottery": 20,
}


def short(workload):
    return type(workload)(slots=SHORT[workload.name], instances=2, mem_slots=10,
                          parity_slots=30)


def short_workloads(defaults=workloads.default_workloads):
    return [short(w) for w in defaults()]


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        run.PER_LAYER_UNITS.items())
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.default_workloads()]


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", short_workloads(), ids=lambda w: w.name)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    lines, result = run.measure(workload, seed=3, seconds=0.0, trace=trace)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in units.items()
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    assert any(line.split()[:2] == ["error_rate", "0"] for line in lines)
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in units)
    else:
        assert any(line.split()[:1] == ["predicted"] for line in lines)
    json.dumps(result)


def _skew_offered(result):
    result.offered_cells[0] += 1


def _skew_cbr(result):
    result.offered_cbr[0] += 1


def _skew_injected(result):
    result.injected[0, 0] += 10_000


CORRUPTIONS = {
    "incast-islip": _skew_offered,
    "stat-lottery": _skew_offered,
    "cbr-frame": _skew_cbr,
    "mesh-b1": _skew_injected,
}


@pytest.mark.parametrize("workload", short_workloads(), ids=lambda w: w.name)
def test_conservation_gate_fires_on_an_inconsistent_result(workload):
    inputs = workload.build(5)
    result = workload.run(inputs, workload.slots)
    workload.conserve(inputs, result)
    CORRUPTIONS[workload.name](result)
    with pytest.raises(InvariantViolation):
        workload.conserve(inputs, result)


def test_inconsistent_result_fails_the_run(monkeypatch):
    workload = short(workloads.IncastIslip(0, 0, 0, 0))
    real_run = workload.run

    def broken_run(inputs, slots, phase_timer=None):
        result = real_run(inputs, slots, phase_timer=phase_timer)
        _skew_offered(result)
        return result

    monkeypatch.setattr(workload, "run", broken_run)
    lines, result = run.measure(workload, seed=3, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("FAILED incast-islip: run conservation" in line for line in lines)


def test_changed_repeat_fails_the_run(monkeypatch):
    workload = short(workloads.StatLottery(0, 0, 0, 0))
    real_run = workload.run
    calls = []

    def drifting_run(inputs, slots, phase_timer=None):
        calls.append(slots)
        result = real_run(inputs, slots, phase_timer=phase_timer)
        if len(calls) % 2:
            # Conserving but different: one cell moves from backlog to carried.
            result.carried_cells[0] += 1
            result.final_backlog[0] -= 1
            result.departures_by_output[0, 0] += 1
        return result

    monkeypatch.setattr(workload, "run", drifting_run)
    lines, result = run.measure(workload, seed=3, seconds=0.0, trace=True)
    assert not result["correct"]
    assert any("repeat" in line and "FAILED stat-lottery" in line for line in lines)


def test_main_exits_nonzero_when_a_check_fails(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "default_workloads", short_workloads)

    def fail(self, seed):
        raise InvariantViolation("backend-parity", "injected for the test")

    monkeypatch.setattr(workloads.CbrFrame, "parity", fail)
    code = run.main(["--workload", "cbr-frame", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cbr-frame",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
