"""The benchmark's four workloads, built from its own seed through public constructors.

Each workload is a closed batch job: one process, one thread, one public
run call per repeat, run to completion at a fixed input size.  A workload
knows how to

- build its inputs from ``--seed`` (``build``), using only the program's
  public constructors and numpy;
- make the one public run call that is timed (``run``);
- say how many cells the call carried (``cells``);
- list the simulated statistics whose digest must repeat exactly;
- check its result for cell conservation (``conserve``);
- replay a short B=1 prefix against the object oracle through the
  program's public parity check (``parity``).

Geometry (N, B, loads, iterations) is fixed by the benchmark definition.
``slots`` (one timed call), ``instances`` (input sets built from one
seed), ``mem_slots`` (the peak-memory call) and ``parity_slots`` (the
oracle prefix) are constructor arguments, so the benchmark's own tests
can run every workload at a short length.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np

from repro.cbr.reservations import ReservationTable
from repro.check import (
    InvariantViolation,
    check_conservation,
    integrated_parity,
    network_parity,
    scenario_parity,
    statistical_parity,
)
from repro.network.netsim import FlowSpec
from repro.network.topologies import mesh
from repro.sim.fastpath import run_fastpath
from repro.sim.fastpath_cbr import run_fastpath_cbr
from repro.sim.fastpath_network import run_fastpath_network
from repro.sim.fastpath_statistical import run_fastpath_statistical
from repro.sim.rng import derive_seed
from repro.switch.cell import ServiceClass
from repro.switch.flow import Flow
from repro.traffic.scenarios import get_scenario


def permutation_sum(ports: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sum of ``count`` random permutation matrices: every row and column
    sum is exactly ``count``, so the matrix is a feasible allocation."""
    matrix = np.zeros((ports, ports), dtype=np.int64)
    for _ in range(count):
        matrix[np.arange(ports), rng.permutation(ports)] += 1
    return matrix


def digest(statistics: Dict[str, object]) -> str:
    """Stable short hash of a result's simulated statistics."""
    h = hashlib.sha256()
    for key in sorted(statistics):
        value = np.ascontiguousarray(np.asarray(statistics[key]))
        h.update(f"{key}:{value.dtype.str}:{value.shape}".encode())
        h.update(value.tobytes())
    return h.hexdigest()[:16]


def _per_replica_balance(offered, carried, backlog, label: str) -> None:
    """offered == carried + backlog, replica by replica."""
    excess = np.asarray(offered) - np.asarray(carried) - np.asarray(backlog)
    if (excess != 0).any():
        bad = int(np.nonzero(excess)[0][0])
        raise InvariantViolation(
            "conservation-per-replica",
            f"{label}: replica {bad}: offered {int(offered[bad])} != carried "
            f"{int(carried[bad])} + backlog {int(backlog[bad])}",
        )


class Workload:
    """One named benchmark workload (see the module docstring)."""

    name = ""
    why = ""
    ports = 0
    replicas = 0
    #: Which fast-path slot loop the run call goes through.
    loop = ""
    #: How the traced run should find the workload loading its layer on
    #: the seed code: per-layer metrics whose sum is at least (``>=``) or
    #: above (``>``) a floor. The report prints whether it holds; it does
    #: not gate the run, since a change may rightly move a share.
    prediction: Tuple[Tuple[str, ...], str, float]

    def __init__(self, slots: int, instances: int, mem_slots: int, parity_slots: int):
        self.slots = slots
        self.instances = instances
        self.mem_slots = mem_slots
        self.parity_slots = parity_slots

    def build(self, seed: int):
        raise NotImplementedError

    def run(self, inputs, slots: int, phase_timer=None):
        raise NotImplementedError

    def cells(self, result) -> int:
        """The cells ``cells_per_s`` counts: cells carried through the switch."""
        return int(result.carried_cells.sum())

    def facts(self, result) -> Dict[str, int]:
        """What the traced run's layer metrics need to know about a result:
        offered cells, replicas x slots x switches of a network run, and
        the reserved slots a CBR run used and donated."""
        return {"offered": int(result.offered_cells.sum()), "switch_slots": 0,
                "cbr_used": 0, "cbr_donated": 0}

    def statistics(self, result) -> Dict[str, object]:
        return {
            "offered": result.offered_cells,
            "carried": result.carried_cells,
            "backlog": result.final_backlog,
            "backlog_integral": result.backlog_integral,
            "arrivals_by_input": result.arrivals_by_input,
            "departures_by_output": result.departures_by_output,
        }

    def conserve(self, inputs, result) -> None:
        check_conservation(result, label=self.name)

    def parity(self, seed: int) -> None:
        raise NotImplementedError


class IncastIslip(Workload):
    name = "incast-islip"
    why = ("websearch-incast on 16 sources, iSLIP-4: per-cell Python "
           "(arrivals, flow shadow) dominates; the ROADMAP item 4 target and "
           "the only FCT workload")
    ports, replicas, loop = 8, 16, "run_fastpath(sources=)"
    prediction = (("traffic.arrivals_share", "sim.loop_self_share"), ">=", 0.4)
    scenario, iterations = "websearch-incast", 4

    def build(self, seed: int):
        spec = get_scenario(self.scenario)
        sources = [
            spec.build_source(derive_seed(seed, f"simbench/incast/{b}"))
            for b in range(self.replicas)
        ]
        return {"seed": seed, "load": spec.load, "sources": sources}

    def run(self, inputs, slots: int, phase_timer=None):
        return run_fastpath(
            self.ports, inputs["load"], slots, replicas=self.replicas,
            iterations=self.iterations, scheduler="islip", seed=inputs["seed"],
            sources=inputs["sources"], phase_timer=phase_timer,
        )

    def statistics(self, result) -> Dict[str, object]:
        stats = super().statistics(result)
        stats["fct"] = np.asarray(result.fct.observations(), dtype=np.int64)
        stats["incomplete"] = result.fct.incomplete
        return stats

    def parity(self, seed: int) -> None:
        scenario_parity(self.scenario, scheduler="islip", slots=self.parity_slots,
                        seed=seed, iterations=self.iterations)


class MeshB1(Workload):
    name = "mesh-b1"
    why = ("The only network workload (4x4 mesh, 16 flows, B=1 PIM): a kernel "
           "change that helps B=64 but costs per-call overhead shows up here")
    ports, replicas, loop = 8, 1, "run_fastpath_network"
    prediction = (("network.self_share",), ">=", 0.5)
    rows = cols = 4
    flows, rates = 16, (1.0, 0.6)

    def build(self, seed: int):
        topology, hosts = mesh(self.rows, self.cols, switch_ports=self.ports)
        # Every host sends one flow and receives one (a random derangement),
        # so every switch schedules in every slot whatever the seed.
        rng = np.random.default_rng(seed)
        dst = rng.permutation(len(hosts))
        while (dst == np.arange(len(hosts))).any():
            dst = rng.permutation(len(hosts))
        flows = [
            FlowSpec(flow_id, hosts[src], hosts[dst[src]],
                     self.rates[flow_id % len(self.rates)])
            for flow_id, src in enumerate(range(len(hosts)), start=1)
        ]
        return {"seed": seed, "topology": topology, "flows": flows}

    def run(self, inputs, slots: int, phase_timer=None):
        return run_fastpath_network(
            inputs["topology"], inputs["flows"], slots, replicas=self.replicas,
            seed=inputs["seed"], scheduler="pim", phase_timer=phase_timer,
        )

    def cells(self, result) -> int:
        # Cells the hosts injected. How many of them reach a host within
        # the run depends on how the seed's routes contend: over ten
        # seeds of 8 instances, the quartile spread of delivered cells is
        # 5.5% and of injected cells 0.7%, at the same per-slot work.
        return int(result.injected.sum())

    def facts(self, result) -> Dict[str, int]:
        return {"offered": int(result.injected.sum()),
                "switch_slots": result.replicas * result.slots * self.rows * self.cols,
                "cbr_used": 0, "cbr_donated": 0}

    def statistics(self, result) -> Dict[str, object]:
        return {
            "delivered": result.delivered,
            "injected": result.injected,
            "delay_cells": result.delay_cells,
            "delay_integral": result.delay_integral,
            "backlog": result.final_backlog,
        }

    def conserve(self, inputs, result) -> None:
        # Cells are injected, buffered in a switch, on a link, or delivered.
        # A link direction holds at most ``latency`` cells in flight.
        if (result.delivered > result.injected).any():
            raise InvariantViolation("conservation", f"{self.name}: a flow delivered "
                             "more cells than it injected")
        in_flight = (result.injected.sum(axis=1) - result.delivered.sum(axis=1)
                     - result.final_backlog)
        capacity = sum(2 * link.latency for link in inputs["topology"].links)
        if (in_flight < 0).any() or (in_flight > capacity).any():
            bad = int(np.nonzero((in_flight < 0) | (in_flight > capacity))[0][0])
            raise InvariantViolation(
                "conservation",
                f"{self.name}: replica {bad}: injected - delivered - backlog = "
                f"{int(in_flight[bad])} cells in flight, links hold 0..{capacity}",
            )

    def parity(self, seed: int) -> None:
        network_parity("mesh", size=self.rows, n_flows=self.flows,
                       slots=self.parity_slots, seed=seed)


class CbrFrame(Workload):
    name = "cbr-frame"
    why = ("The paper's section 4 (N=16, B=64, half of a 64-slot frame "
           "reserved, VBR 0.4 on top): the only workload through the CBR claim")
    ports, replicas, loop = 16, 64, "run_fastpath_cbr"
    prediction = (("cbr.claim_self_s",), ">", 0.0)
    frame_slots, reserved_share, vbr_load, iterations = 64, 0.5, 0.4, 4

    def build(self, seed: int):
        cells = permutation_sum(self.ports, int(self.frame_slots * self.reserved_share),
                                np.random.default_rng(seed))
        table = ReservationTable(self.ports, self.frame_slots)
        for flow_id, (i, j) in enumerate(zip(*np.nonzero(cells)), start=1):
            table.admit(Flow(flow_id=flow_id, src=int(i), dst=int(j),
                             service=ServiceClass.CBR,
                             cells_per_frame=int(cells[i, j])))
        return {"seed": seed, "table": table}

    def run(self, inputs, slots: int, phase_timer=None):
        return run_fastpath_cbr(
            inputs["table"], self.vbr_load, slots, replicas=self.replicas,
            iterations=self.iterations, scheduler="pim", seed=inputs["seed"],
            phase_timer=phase_timer,
        )

    def facts(self, result) -> Dict[str, int]:
        facts = super().facts(result)
        facts["cbr_used"] = int(result.cbr_slots_used.sum())
        facts["cbr_donated"] = int(result.cbr_slots_donated.sum())
        return facts

    def statistics(self, result) -> Dict[str, object]:
        return {
            "offered_cbr": result.offered_cbr,
            "offered_vbr": result.offered_vbr,
            "carried_cbr": result.carried_cbr,
            "carried_vbr": result.carried_vbr,
            "cbr_integral": result.cbr_backlog_integral,
            "vbr_integral": result.vbr_backlog_integral,
            "cbr_used": result.cbr_slots_used,
            "cbr_donated": result.cbr_slots_donated,
            "backlog": result.final_backlog,
        }

    def conserve(self, inputs, result) -> None:
        if result.warmup != 0:
            raise ValueError("conservation requires a warmup == 0 run")
        _per_replica_balance(result.offered_cells, result.carried_cells,
                             result.final_backlog, self.name)
        # Every reserved pairing of every slot is either used or donated.
        table = inputs["table"]
        pairings = sum(len(table.pairings(slot % table.frame_slots))
                       for slot in range(result.slots))
        total = result.cbr_slots_used + result.cbr_slots_donated
        if (total != pairings).any():
            bad = int(np.nonzero(total != pairings)[0][0])
            raise InvariantViolation(
                "cbr-reservations",
                f"{self.name}: replica {bad}: used + donated = {int(total[bad])}, "
                f"reserved pairings = {pairings}",
            )

    def parity(self, seed: int) -> None:
        integrated_parity(self.ports, self.frame_slots, self.reserved_share,
                          self.vbr_load, self.parity_slots, seed=seed,
                          iterations=self.iterations)


class StatLottery(Workload):
    name = "stat-lottery"
    why = ("The paper's section 5 (N=16, B=64, X=16 units 75% allocated, 2 "
           "rounds plus PIM fill, load 0.8): the only statistical lottery "
           "workload")
    ports, replicas, loop = 16, 64, "run_fastpath_statistical"
    prediction = (("statistical.match_share",), ">=", 0.25)
    units, allocated_share, rounds, load = 16, 0.75, 2, 0.8

    def build(self, seed: int):
        allocations = permutation_sum(self.ports, int(self.units * self.allocated_share),
                                      np.random.default_rng(seed))
        return {"seed": seed, "allocations": allocations}

    def run(self, inputs, slots: int, phase_timer=None):
        return run_fastpath_statistical(
            inputs["allocations"], self.units, self.load, slots, rounds=self.rounds,
            fill=True, replicas=self.replicas, seed=inputs["seed"],
            phase_timer=phase_timer,
        )

    def statistics(self, result) -> Dict[str, object]:
        stats = super().statistics(result)
        stats["stat_cells"] = result.stat_cells
        stats["fill_cells"] = result.fill_cells
        return stats

    def parity(self, seed: int) -> None:
        statistical_parity(self.ports, self.units, self.allocated_share, self.load,
                           self.parity_slots, seed=seed, rounds=self.rounds, fill=True)


def default_workloads() -> List[Workload]:
    """The four workloads at the lengths the benchmark runs them.

    One call takes 12 to 16 ms on a 2-core x86 host. The host runs a call
    at full speed only in short quiet moments, which a short call often
    fits into whole, so a 28 s run calls every instance hundreds of times
    and keeps its fastest call. The instances average out how much work
    one seed's inputs carry, which varies most for the heavy-tailed
    incast flows.
    """
    return [
        IncastIslip(slots=50, instances=24, mem_slots=50, parity_slots=200),
        MeshB1(slots=8, instances=8, mem_slots=5, parity_slots=150),
        CbrFrame(slots=16, instances=4, mem_slots=128, parity_slots=192),
        StatLottery(slots=8, instances=4, mem_slots=80, parity_slots=200),
    ]
