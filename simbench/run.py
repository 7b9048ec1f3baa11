#!/usr/bin/env python3
"""One benchmark for the simulator: four workloads, absolute host rates.

Usage, from the root of a checkout::

    python3 simbench/run.py --workload cbr-frame --seed 1 --seconds 28 --trace 0

Every workload is a closed batch job: one process, one thread. From
``--seed`` the benchmark builds several input instances of the workload
and times one public run call per instance, pass after pass, for
``--seconds`` seconds. Each instance's call time is its fastest call
over the passes, in wall-clock seconds. The rates divide the work of all
instances by the sum of those times. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics. With ``--trace 1`` it carries the per-layer metrics of traced
calls, in which the benchmark wraps the program's public layer entry
points with span recorders (``spans.py``). Every result is checked for
cell conservation, and for identical simulated statistics across
repeats. A short B=1 prefix is also replayed against the object oracle.
Any failure is counted and named, and makes the command exit with
status 1.

See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Set-up is a few milliseconds and noisy, so it is sampled after every
#: timed pass (cycling through the instances) and the median reported;
#: a run takes at least this many samples.
SETUP_REPEATS = 96
#: Fewest timed passes a run makes, however long each takes; two or more
#: passes also check that repeats give identical results.
MIN_PASSES = 3

END_TO_END_UNITS = {
    "slots_per_s": "1/s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.schedule_calls": "count",
    "core.schedule_s": "s",
    "core.schedule_share": "ratio",
    "core.schedule_us_p50": "us",
    "core.schedule_us_p99": "us",
    "core.match_ratio": "ratio",
    "traffic.arrivals_calls": "count",
    "traffic.arrivals_s": "s",
    "traffic.arrivals_share": "ratio",
    "traffic.cells": "count",
    "traffic.us_per_cell": "us",
    "sim.compile_s": "s",
    "sim.step_self_s": "s",
    "sim.loop_self_s": "s",
    "sim.loop_self_share": "ratio",
    "cbr.claim_self_s": "s",
    "cbr.claim_share": "ratio",
    "cbr.reserved_use_ratio": "ratio",
    "statistical.match_calls": "count",
    "statistical.match_s": "s",
    "statistical.match_share": "ratio",
    "statistical.kept_ratio": "ratio",
    "network.self_s": "s",
    "network.self_share": "ratio",
    "network.delivery_s": "s",
    "network.us_per_switch_slot": "us",
    "switch.oracle_slots_per_s": "1/s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


def import_program() -> None:
    """Import the simulator from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"simbench: cannot import the simulator from {src}: {exc}")
    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"simbench: imported repro from {repro.__file__}, not {src}")


def timed(fn: Callable, *args, **kwargs) -> Tuple[object, float]:
    """``(result, wall-clock seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class Ledger:
    """Attempted and failed operations, with a name for every failure."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failures: List[str] = []

    def attempt(self, check: str, fn: Callable, *args, **kwargs):
        """Run one operation; a raise counts as a failure and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program is a result
            self.fail(check, f"{type(exc).__name__}: {exc}")
            return None

    def fail(self, check: str, detail: str) -> None:
        self.failures.append(f"{self.workload}: {check}: {detail}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Verifier:
    """Checks every result of one workload and seed.

    Each result must conserve cells, and all results of one instance at
    one length must carry identical simulated statistics (the rerun
    contract).
    """

    def __init__(self, workload, ledger: Ledger):
        self.workload = workload
        self.ledger = ledger
        self.digests: Dict[tuple, str] = {}
        self.repeats: Dict[tuple, int] = {}

    def __call__(self, instance: "Instance", result, slots: int, label: str) -> bool:
        from workloads import digest

        ok = self.ledger.attempt(f"{label} conservation", self._conserve,
                                 instance, result)
        key = (instance.index, slots)
        value = digest(self.workload.statistics(result))
        first = self.digests.setdefault(key, value)
        self.repeats[key] = self.repeats.get(key, 0) + 1
        if value != first:
            self.ledger.fail(f"{label} repeat", f"instance {instance.index} "
                             f"{slots}-slot digest {value} != first run's {first}")
            return False
        return bool(ok)

    def summary(self) -> List[str]:
        """One digest per call length over all instances, for the report."""
        from workloads import digest

        lines = []
        for length in sorted({slots for _, slots in self.digests}):
            keys = sorted(key for key in self.digests if key[1] == length)
            combined = digest({str(k): self.digests[k] for k in keys})
            runs = sum(self.repeats[k] for k in keys)
            lines.append(f"  digest of {length}-slot results: {combined} "
                         f"({len(keys)} instances, {runs} runs)")
        return lines

    def _conserve(self, instance: "Instance", result) -> bool:
        self.workload.conserve(instance.inputs, result)
        return True


class Instance:
    """One seed-derived input set and the times of its calls."""

    def __init__(self, index: int, inputs):
        self.index = index
        self.inputs = inputs
        self.walls: List[float] = []
        self.traced: List[float] = []
        self.cells = 0


def instance_seeds(seed: int, count: int) -> List[int]:
    from repro.sim.rng import derive_seed

    return [derive_seed(seed, f"simbench/instance/{k}") for k in range(count)]


def build_instances(workload, seed: int, ledger: Ledger) -> Optional[List[Instance]]:
    """The instances of one seed, built once for the timed calls."""
    instances = []
    for k, instance_seed in enumerate(instance_seeds(seed, workload.instances)):
        inputs = ledger.attempt("build", workload.build, instance_seed)
        if inputs is None:
            return None
        instances.append(Instance(k, inputs))
    return instances


class Setup:
    """Samples of the time to build one instance and run it for one slot.

    The samples are taken between the timed passes, cycling through the
    instance seeds, so their median covers the whole run rather than one
    burst of it.
    """

    def __init__(self, workload, seed: int, ledger: Ledger):
        self.workload = workload
        self.seeds = instance_seeds(seed, workload.instances)
        self.ledger = ledger
        self.samples: List[float] = []

    def sample(self) -> bool:
        def once(instance_seed: int):
            self.workload.run(self.workload.build(instance_seed), 1)

        k = len(self.samples) % len(self.seeds)
        outcome = self.ledger.attempt("setup", timed, once, self.seeds[k])
        if outcome is None:
            return False
        self.samples.append(outcome[1])
        return True


def untraced_call(workload, instance: Instance, verify: Verifier,
                  ledger: Ledger) -> bool:
    """One timed public run call of one instance."""
    outcome = ledger.attempt("run", timed, workload.run, instance.inputs,
                             workload.slots)
    if outcome is None or not verify(instance, outcome[0], workload.slots, "run"):
        return False
    result, wall = outcome
    instance.walls.append(wall)
    instance.cells = workload.cells(result)
    return True


def traced_call(workload, instance: Instance, tracer, timer,
                facts: Dict[str, int], verify: Verifier, ledger: Ledger) -> bool:
    """One run call with every layer entry point wrapped into ``tracer``."""
    from spans import instrumented, layer_targets

    def call():
        with instrumented(tracer, layer_targets()), tracer.span("run"):
            return workload.run(instance.inputs, workload.slots, phase_timer=timer)

    outcome = ledger.attempt("traced run", timed, call)
    if outcome is None or not verify(instance, outcome[0], workload.slots,
                                     "traced run"):
        return False
    result, wall = outcome
    instance.traced.append(wall)
    for name, value in workload.facts(result).items():
        facts[name] = facts.get(name, 0) + value
    return True


def timed_passes(workload, instances: List[Instance], seconds: float, trace: bool,
                 setup: Setup, verify: Verifier, ledger: Ledger):
    """Call every instance once per pass until ``seconds`` have passed.

    After each pass, set-up samples are taken until they keep pace with
    the time gone: at least one per pass, ``SETUP_REPEATS`` by the end.

    Returns, when tracing, one layer-metrics dict per pass.
    """
    from repro.obs.perf import PhaseTimer
    from spans import Tracer, layer_metrics

    layers = []
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    while time.perf_counter() < deadline or passes < MIN_PASSES:
        tracer, timer, facts = Tracer(), PhaseTimer(), {}
        for instance in instances:
            if not untraced_call(workload, instance, verify, ledger):
                return layers
            if trace and not traced_call(workload, instance, tracer, timer, facts,
                                         verify, ledger):
                return layers
        if trace:
            layers.append(layer_metrics(tracer, timer.seconds, timer.calls, facts))
        gone = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
        due = SETUP_REPEATS * min(1.0, gone)
        while True:
            if not setup.sample():
                return layers
            if len(setup.samples) >= due:
                break
        passes += 1
    return layers


def peak_memory_mb(workload, instances: List[Instance], verify: Verifier,
                   ledger: Ledger) -> Optional[float]:
    """Median over instances of the tracemalloc peak of one ``mem_slots`` call.

    The timed calls before it are the warm-up, so one-time tables are
    already built.
    """
    peaks = []
    for instance in instances:
        tracemalloc.start()
        try:
            result = ledger.attempt("memory run", workload.run, instance.inputs,
                                    workload.mem_slots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if result is None or not verify(instance, result, workload.mem_slots,
                                        "memory run"):
            return None
        peaks.append(peak / 1e6)
    return statistics.median(peaks)


def check_parity(workload, seed: int, ledger: Ledger) -> Optional[float]:
    """Replay the B=1 prefix against the object oracle; returns its slots/s."""
    from spans import Tracer, instrumented, oracle_targets

    tracer = Tracer()
    with instrumented(tracer, oracle_targets()):
        ledger.attempt("oracle parity", workload.parity, seed)
    seconds = tracer.total.get("switch.run", 0.0)
    return tracer.counts.get("switch.slots", 0) / seconds if seconds else None


def _call_seconds(instances: List[Instance], attr: str) -> Optional[float]:
    """Sum over instances of each instance's fastest call time.

    Every call of an instance does the same work, and other tenants of
    the host can only add time to it, in bursts shorter than a second.
    The fastest of many calls is the one they disturbed least.
    """
    times = [getattr(instance, attr) for instance in instances]
    if not all(times):
        return None
    return sum(min(t) for t in times)


def prediction_line(prediction, metrics: Dict[str, float]) -> str:
    """Whether the traced run loads the workload's layer as predicted."""
    names, op, floor = prediction
    total = sum(metrics[name] for name in names)
    held = total >= floor if op == ">=" else total > floor
    return (f"  predicted {' + '.join(names)} {op} {floor:g}: "
            f"{'holds' if held else 'DOES NOT HOLD'} ({total:.6g})")


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (report lines, result object)."""
    ledger = Ledger(workload.name)
    lines = [
        f"simbench {workload.name}: N={workload.ports} B={workload.replicas} "
        f"slots={workload.slots} x {workload.instances} instances "
        f"loop={workload.loop} seed={seed} trace={int(trace)}"
    ]
    metrics: Dict[str, float] = {}
    instances = build_instances(workload, seed, ledger)
    if instances is not None:
        verify = Verifier(workload, ledger)
        setup = Setup(workload, seed, ledger)
        layers = timed_passes(workload, instances, seconds, trace, setup, verify,
                              ledger)
        wall = _call_seconds(instances, "walls")
        if wall is not None:
            slots = workload.replicas * workload.slots * len(instances)
            metrics["slots_per_s"] = slots / wall
            metrics["cells_per_s"] = sum(i.cells for i in instances) / wall
            lines.append(f"  {len(instances[0].walls)} passes")
        if trace:
            if layers:
                # median_low keeps the call counts whole numbers.
                for name in layers[0]:
                    metrics[name] = statistics.median_low(
                        layer[name] for layer in layers)
            traced = _call_seconds(instances, "traced")
            if traced is not None and wall is not None:
                metrics["trace.overhead_frac"] = traced / wall - 1.0
        else:
            mem = peak_memory_mb(workload, instances, verify, ledger)
            if mem is not None:
                metrics["peak_mem_mb"] = mem
            if setup.samples:
                metrics["setup_s"] = statistics.median(setup.samples)
        oracle_rate = check_parity(workload, seed, ledger)
        if trace and oracle_rate is not None:
            metrics["switch.oracle_slots_per_s"] = oracle_rate
        lines.extend(verify.summary())

    units = {**END_TO_END_UNITS, **(PER_LAYER_UNITS if trace else {})}
    for name, unit in units.items():
        if name in metrics:
            lines.append(f"  {name:<28} {metrics[name]:>16.6g} {unit}")
    if trace and all(name in metrics for name in workload.prediction[0]):
        lines.append(prediction_line(workload.prediction, metrics))
    lines.append(f"  {'error_rate':<28} {ledger.error_rate:>16.6g} ratio "
                 f"({ledger.failed} of {ledger.attempted} operations failed)")
    lines.extend(f"  FAILED {failure}" for failure in ledger.failures)

    wanted = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    correct = ledger.failed == 0 and all(name in metrics for name in wanted)
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in wanted.items() if name in metrics
        },
    }
    return lines, result


def main(argv: Optional[List[str]] = None) -> int:
    import_program()
    from workloads import default_workloads

    workloads = {w.name: w for w in default_workloads()}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lines, result = measure(workloads[args.workload], args.seed, args.seconds,
                            bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
