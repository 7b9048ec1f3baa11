"""Span recorders the benchmark wraps around the simulator's public entry points.

The benchmark sees the program only from outside.  In the traced run it
temporarily replaces a few public methods (one per layer boundary) with
wrappers that time each call on a monotonic clock and count the work the
call did.  Spans nest: a span's *self* time is its duration minus the
durations of the spans opened inside it, so ``sim.step`` self time is a
step without the ``core.schedule`` call it makes.

Nothing here runs in the untraced runs that give the end-to-end numbers.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cbr.integrated import IntegratedSwitch
from repro.core import BatchScheduler
from repro.network.netsim import NetworkSimulator
from repro.sim.fastpath import FastpathCrossbar
from repro.sim.fastpath_cbr import IntegratedFastpath
from repro.sim.fastpath_statistical import BatchStatisticalMatcher
from repro.switch.switch import CrossbarSwitch
from repro.traffic.flows import FlowTraffic

#: An ``after`` hook sees the tracer, the call's arguments and its return
#: value; it runs after the span closed, so its own cost is not charged to
#: the span (it is part of the trace overhead).
AfterHook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """In-memory spans and counters of the traced run calls of one pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: List[list] = []  # [name, start, child seconds]
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self._clock() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        self.durations.setdefault(name, []).append(duration)
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def wrap(self, name: str, fn: Callable, after: Optional[AfterHook] = None):
        """``fn`` with every call recorded as a ``name`` span.

        A call made while a span of the same name is already open (a
        subclass method calling its wrapped base) is not recorded again.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._stack and tracer._stack[-1][0] == name:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced


#: (owner class, method name, span name, after hook)
Target = Tuple[type, str, str, Optional[AfterHook]]


@contextmanager
def instrumented(tracer: Tracer, targets: Sequence[Target]) -> Iterator[Tracer]:
    """Install span wrappers on ``targets`` for the ``with`` body, then restore."""
    saved = []
    try:
        for owner, attr, name, after in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- after hooks: the counts each layer boundary contributes ---------------

def _count_match(tracer: Tracer, args: tuple, kwargs: dict, match) -> None:
    # args = (scheduler, requests, ...): inputs with any request vs matched.
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    tracer.count("core.requesting", np.count_nonzero(np.asarray(requests).any(axis=2)))
    tracer.count("core.matched", np.count_nonzero(match >= 0))


def _count_cells(tracer: Tracer, args: tuple, kwargs: dict, cells) -> None:
    tracer.count("traffic.cells", len(cells))


def _count_lottery(tracer: Tracer, args: tuple, kwargs: dict, returned) -> None:
    _, rounds = returned
    tracer.count("statistical.granted", sum(r.granted for r in rounds))
    tracer.count("statistical.kept", sum(r.kept for r in rounds))


def _count_oracle_slots(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    fn = inspect.unwrap(type(args[0]).run)
    slots = inspect.signature(fn).bind(*args, **kwargs).arguments["slots"]
    tracer.count("switch.slots", slots)


def _schedule_owners() -> List[type]:
    """Every BatchScheduler class that defines its own ``schedule``."""
    owners, pending = [], [BatchScheduler]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not BatchScheduler and "schedule" in cls.__dict__:
            owners.append(cls)
    return owners


def layer_targets() -> List[Target]:
    """The public layer entry points the traced run wraps."""
    targets: List[Target] = [
        (FlowTraffic, "arrivals", "traffic.arrivals", _count_cells),
        (FastpathCrossbar, "step", "sim.step", None),
        (IntegratedFastpath, "step", "cbr.step", None),
        (BatchStatisticalMatcher, "match_with_counts", "statistical.match",
         _count_lottery),
    ]
    targets += [
        (cls, "schedule", "core.schedule", _count_match)
        for cls in _schedule_owners()
    ]
    return targets


def oracle_targets() -> List[Target]:
    """The object backends' run calls, timed inside the parity checks."""
    return [
        (cls, "run", "switch.run", _count_oracle_slots)
        for cls in (CrossbarSwitch, IntegratedSwitch, NetworkSimulator)
    ]


def _percentile_us(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e6 if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, phases: Dict[str, float],
                  phase_calls: Dict[str, int], run: Dict[str, float]) -> Dict[str, float]:
    """Per-layer numbers of the traced run calls recorded in ``tracer``.

    ``tracer`` holds the spans (its ``run`` spans are the public run calls),
    ``phases``/``phase_calls`` the program's own ``PhaseTimer`` self
    seconds and entry counts, and ``run`` the facts only the workload
    knows, summed over the calls: ``offered`` cells, ``switch_slots``
    (replicas x slots x switches) and the CBR ``cbr_used`` and
    ``cbr_donated`` reserved slots.
    """
    wall = tracer.total["run"]
    total = tracer.total.get
    self_time = tracer.self_time.get
    schedule_s = total("core.schedule", 0.0)
    compile_s = phases.get("run/compile", 0.0)
    update_s = phases.get("run/update", 0.0)
    delivery_s = phases.get("run/delivery", 0.0)

    if "traffic.arrivals" in tracer.calls:
        arrivals_s = total("traffic.arrivals")
        arrivals_calls = tracer.calls["traffic.arrivals"]
        cells = tracer.counts.get("traffic.cells", 0)
        batched_arrivals_s = 0.0
    else:
        # No public source object: the arrivals phase of the program's
        # own profile is the whole traffic layer.
        arrivals_s = batched_arrivals_s = phases.get("run/arrivals", 0.0)
        arrivals_calls = phase_calls.get("run/arrivals", 0)
        cells = int(run["offered"])

    # Root self time: the run call minus every span it opened directly.
    loop_self_s = self_time("run") - compile_s - batched_arrivals_s - delivery_s
    spans_self = sum(v for k, v in tracer.self_time.items() if k != "run")
    covered = spans_self + compile_s + batched_arrivals_s + update_s + delivery_s
    network = run["switch_slots"] > 0
    network_self_s = wall - schedule_s if network else 0.0
    durations = tracer.durations.get("core.schedule", [])
    used, donated = run["cbr_used"], run["cbr_donated"]
    return {
        "core.schedule_calls": tracer.calls.get("core.schedule", 0),
        "core.schedule_s": schedule_s,
        "core.schedule_share": _ratio(schedule_s, wall),
        "core.schedule_us_p50": _percentile_us(durations, 50),
        "core.schedule_us_p99": _percentile_us(durations, 99),
        "core.match_ratio": _ratio(tracer.counts.get("core.matched", 0),
                                   tracer.counts.get("core.requesting", 0)),
        "traffic.arrivals_calls": arrivals_calls,
        "traffic.arrivals_s": arrivals_s,
        "traffic.arrivals_share": _ratio(arrivals_s, wall),
        "traffic.cells": cells,
        "traffic.us_per_cell": _ratio(arrivals_s, cells) * 1e6,
        "sim.compile_s": compile_s,
        "sim.step_self_s": self_time("sim.step", 0.0),
        "sim.loop_self_s": loop_self_s,
        "sim.loop_self_share": _ratio(loop_self_s, wall),
        "cbr.claim_self_s": self_time("cbr.step", 0.0),
        "cbr.claim_share": _ratio(self_time("cbr.step", 0.0), wall),
        "cbr.reserved_use_ratio": _ratio(used, used + donated),
        "statistical.match_calls": tracer.calls.get("statistical.match", 0),
        "statistical.match_s": total("statistical.match", 0.0),
        "statistical.match_share": _ratio(total("statistical.match", 0.0), wall),
        "statistical.kept_ratio": _ratio(tracer.counts.get("statistical.kept", 0),
                                         tracer.counts.get("statistical.granted", 0)),
        "network.self_s": network_self_s,
        "network.self_share": _ratio(network_self_s, wall),
        "network.delivery_s": delivery_s,
        "network.us_per_switch_slot": _ratio(network_self_s, run["switch_slots"]) * 1e6,
        "trace.coverage": _ratio(covered, wall),
    }
