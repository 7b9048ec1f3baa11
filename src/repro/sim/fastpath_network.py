"""Vectorized multi-switch network fast path.

The object-model network simulator
(:class:`repro.network.netsim.NetworkSimulator`) advances one network
replica at a time with per-cell Python objects, which is faithful but
slow: every Monte-Carlo point of a network experiment (the Figure 9
parking-lot sweep, fabric-sizing scans over mesh/fat-tree shapes) pays
per-cell deque traffic at every hop.  This module is its batched
counterpart, in the same spirit as :mod:`repro.sim.fastpath` for the
single switch:

- the VOQ state of **B independent network replicas** is one stacked
  ``(S, B, P, P)`` count array for all S switches -- no Cell objects;
  P is the largest port count, and a switch with fewer ports uses the
  top-left ``(n, n)`` corner of its rows (the padding stays empty);
- every switch advances all B replicas with a single
  :class:`repro.core.batch.BatchScheduler` kernel call per slot (any
  registry scheduler -- PIM by default);
- one latency-indexed ring ``(R, S + 1, B, F)`` holds every in-flight
  per-flow cell count, row S standing for "delivered to a host", so
  link deliveries, host injection, credit checks and transfers are
  each one array pass over the whole fabric per slot; only the
  per-switch kernel calls stay a Python loop.

Slot-exact parity with the object model
---------------------------------------

With ``replicas=1`` and the default (PIM) scheduler, a run replicates
a freshly built :class:`~repro.network.netsim.NetworkSimulator` with
the same root seed *draw for draw*: scheduler streams are seeded from
the same ``sched:{switch}`` named streams, replica 0's host streams
are the object's ``host:{host}`` streams consumed in the same order
(one uniform per stochastic flow per unblocked slot), and the
slot phases run in the object's order -- deliveries land, hosts
inject (credit-checked first, consuming no draws when blocked),
switches schedule sequentially in ``topology.switches()`` order with
blocked-output masks computed at each switch's turn.  Per-slot
injection/delivery/transfer/backlog series therefore match the
object's :class:`~repro.network.netsim.NetworkSlotRecord` stream
exactly; :func:`repro.check.differential.network_parity` asserts this
on every bundled topology.

What cell identity costs and what replaces it: per-flow FIFO order is
implicit (a flow's cells follow one path and every per-hop queue is
FIFO), so mean end-to-end delay is recovered per flow by Little's law
-- a cell injected in slot t and delivered in slot t' is present in
exactly ``t' - t`` end-of-slot in-system samples.  Over a run whose
warm-window cells all reach their destination the per-flow mean equals
the object backend's :class:`~repro.sim.stats.DelayStats` mean
exactly; cells still in flight at the end contribute their partial
delay to the integral but no delivery, the usual truncation bias of
the estimator.

The one per-cell structure retained is a deque of flow ids per
(input, output) VOQ *that more than one flow shares*, per replica --
needed to replicate :class:`repro.switch.buffers.VOQBuffer`'s
round-robin flow service bit for bit.  Single-flow VOQs (the common
case) resolve departures purely from arrays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.batch import build_batch_scheduler
from repro.core.pim import AN2_ITERATIONS, AcceptPolicy
from repro.network.netsim import FlowSpec
from repro.obs.perf import NULL_PHASE_TIMER
from repro.network.routing import Router
from repro.network.topology import Topology
from repro.sim.rng import RandomStreams

__all__ = [
    "NetworkFastpath",
    "NetworkFastpathResult",
    "NetworkSeries",
    "run_fastpath_network",
]

#: Most slots of host-injection uniforms pre-drawn per RNG call (amortizes
#: generator overhead without breaking draw-for-draw stream order; a run
#: shorter than this draws only its own length).
_HOST_CHUNK_SLOTS = 1024


@dataclass(frozen=True)
class _Fabric:
    """Compiled whole-fabric routing, link and host-injection arrays.

    Switch rows are padded to the largest port count P and host rows to
    the largest per-host flow count M.  Ring row S (one past the last
    switch) stands for "delivered to a host".
    """

    ports: Tuple[int, ...]  # (S,) port count per switch
    in_port: np.ndarray  # (S, F) arrival port per flow (-1: not routed here)
    out_port: np.ndarray  # (S, F) departure port per flow (-1: not routed here)
    is_multi: np.ndarray  # (S, F) flow's VOQ here is shared by >1 flow
    voq_single: np.ndarray  # (S, P, P) sole flow index, -1 shared, -2 empty
    multi_voqs: Tuple[Tuple[Tuple[int, int], ...], ...]  # per switch shared VOQs
    next_row: np.ndarray  # (S, F) ring row of the flow's next hop (S: a host)
    next_lat: np.ndarray  # (S, F) latency of the flow's outgoing link
    credit_ports: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    # ^ per switch: (output port, peer switch, peer input port) arrays
    host_names: Tuple[str, ...]  # sources, in first-flow order
    host_fids: np.ndarray  # (H, M) global flow index, in add_flow order
    host_flows: np.ndarray  # (H,) flows per host (m)
    greedy: np.ndarray  # (H, M) bool: rate >= 1.0 (False in padding)
    rates: np.ndarray  # (H, M) stochastic rate (0 for greedy and padding)
    stoch_col: np.ndarray  # (H, M) column in the host's per-slot uniforms
    stoch_count: np.ndarray  # (H,) stochastic flows per host (k)
    host_row: np.ndarray  # (H,) ring row of the first hop (S: direct host link)
    host_port: np.ndarray  # (H,) input port on the first switch (credit target)
    host_lat: np.ndarray  # (H,) first-hop link latency
    ring_slots: int  # largest link latency + 1


@dataclass
class NetworkSeries:
    """Per-slot observables of replica 0, for differential checks.

    Row ``t`` of each array is the slot-``t`` counterpart of the object
    simulator's :class:`~repro.network.netsim.NetworkSlotRecord`.
    """

    flow_ids: List[int]
    switch_names: List[str]
    injected: np.ndarray  # (slots, F) cells injected per flow
    delivered: np.ndarray  # (slots, F) cells delivered per flow
    transfers: np.ndarray  # (slots, S) cells crossing each fabric
    backlog: np.ndarray  # (slots, S) buffered cells at slot end


@dataclass
class NetworkFastpathResult:
    """Per-flow, per-replica statistics from a fast-path network run.

    Mirrors the pooled API of
    :class:`repro.network.netsim.NetworkResult` (``throughput``,
    ``shares``) so sweeps can switch backends, and adds per-replica
    arrays for confidence intervals.

    ``delivered`` counts deliveries in slots >= warmup (the object
    backend's convention); ``delay_cells``/``delay_integral`` key the
    warm-up filter on the *injection* slot, matching
    :class:`repro.sim.stats.DelayStats`, with the delay sum recovered
    by Little's law (exact for cells delivered before the run ends).
    """

    flow_ids: List[int]
    replicas: int
    slots: int
    warmup: int
    delivered: np.ndarray  # (B, F) deliveries inside the window
    injected: np.ndarray  # (B, F) injections over the whole run
    delay_cells: np.ndarray  # (B, F) warm cells delivered
    delay_integral: np.ndarray  # (B, F) summed in-system slots of warm cells
    final_backlog: np.ndarray  # (B,) cells buffered in switches at the end
    series: Optional[NetworkSeries] = None
    _index: Dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index = {fid: k for k, fid in enumerate(self.flow_ids)}

    @property
    def window(self) -> int:
        """Measurement slots: ``slots - warmup``."""
        return self.slots - self.warmup

    def throughput(self, flow_id: int) -> float:
        """Delivered cells per slot for one flow, pooled over replicas."""
        if self.window <= 0:
            return 0.0
        column = self.delivered[:, self._index[flow_id]]
        return float(column.sum()) / (self.window * self.replicas)

    def shares(self) -> Dict[int, float]:
        """Each flow's fraction of all delivered cells (pooled)."""
        total = int(self.delivered.sum())
        if total == 0:
            return {fid: 0.0 for fid in self.flow_ids}
        return {
            fid: float(self.delivered[:, k].sum()) / total
            for k, fid in enumerate(self.flow_ids)
        }

    def mean_delay(self, flow_id: int) -> float:
        """Pooled mean end-to-end delay of one flow, in slots."""
        k = self._index[flow_id]
        cells = int(self.delay_cells[:, k].sum())
        if cells == 0:
            return 0.0
        return float(self.delay_integral[:, k].sum()) / cells

    def delivered_map(self, replica: int = 0) -> Dict[int, int]:
        """One replica's delivered counts as a flow-id dict."""
        return {
            fid: int(self.delivered[replica, k])
            for k, fid in enumerate(self.flow_ids)
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        pooled = int(self.delivered.sum())
        return (
            f"network fastpath x{self.replicas} replicas, {self.slots} slots "
            f"({len(self.flow_ids)} flows): delivered {pooled} cells, "
            f"backlog {int(self.final_backlog.sum())}"
        )


class NetworkFastpath:
    """Batch-vectorized counterpart of
    :class:`repro.network.netsim.NetworkSimulator`.

    Parameters
    ----------
    topology:
        The network graph (switches, hosts, links with latencies).
    replicas:
        Independent network replicas B advanced in lockstep.
    seed:
        Root seed.  Scheduler streams are derived exactly as the
        object simulator derives them (``sched:{switch}``), and
        replica 0's host streams are the object's ``host:{host}``
        streams, which is what makes B=1 runs slot-exact replicas of
        the object backend.
    buffer_limit:
        Optional per-input-port buffer size in cells; enables the
        same credit-based link flow control as the object simulator.
    iterations, accept:
        Kernel configuration per switch (defaults match the object
        simulator's default scheduler factory).
    scheduler:
        Batched kernel registry name used at every switch
        (``repro.core.BATCH_SCHEDULERS``); occupancy-aware kernels see
        each switch's VOQ depths masked by the blocked-output requests.

    Flows are registered with :meth:`add_flow`; :meth:`run` simulates.
    Every ``run()`` is an independent replay from slot 0, like the
    object backend's.
    """

    def __init__(
        self,
        topology: Topology,
        replicas: int = 1,
        seed: Optional[int] = None,
        buffer_limit: Optional[int] = None,
        iterations: Optional[int] = AN2_ITERATIONS,
        accept: AcceptPolicy = "random",
        scheduler: str = "pim",
    ):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if buffer_limit is not None and buffer_limit < 1:
            raise ValueError(f"buffer_limit must be >= 1, got {buffer_limit}")
        self.topology = topology
        self.replicas = replicas
        self.seed = seed
        self.buffer_limit = buffer_limit
        self.iterations = iterations
        self.accept = accept
        self.scheduler = scheduler
        self.router = Router(topology)
        self._flows: Dict[int, FlowSpec] = {}
        self._host_order: List[str] = []  # sources, in first-flow order
        self._host_flows: Dict[str, List[FlowSpec]] = {}
        self._switch_names = [node.name for node in topology.switches()]
        self._switch_index = {name: k for k, name in enumerate(self._switch_names)}
        self._fabric: Optional[_Fabric] = None

    def add_flow(self, flow: FlowSpec, path: Optional[List[str]] = None) -> None:
        """Register a flow: install its route and its host source."""
        if flow.flow_id in self._flows:
            raise ValueError(f"duplicate flow id {flow.flow_id}")
        self.router.install(flow.flow_id, flow.src, flow.dst, path)
        self._flows[flow.flow_id] = flow
        if flow.src not in self._host_flows:
            self._host_order.append(flow.src)
            self._host_flows[flow.src] = []
        self._host_flows[flow.src].append(flow)
        self._fabric = None

    # ------------------------------------------------------------------
    # Compilation: topology + routes -> dense whole-fabric arrays
    # ------------------------------------------------------------------

    def _compile(self) -> _Fabric:
        if self._fabric is not None:
            return self._fabric
        topo = self.topology
        flow_ids = list(self._flows)
        fcount = len(flow_ids)
        fidx = {fid: k for k, fid in enumerate(flow_ids)}
        n_sw = len(self._switch_names)
        ports = tuple(topo.node(name).ports for name in self._switch_names)
        width = max(ports, default=1)

        in_port = np.full((n_sw, fcount), -1, dtype=np.int64)
        out_port = np.full((n_sw, fcount), -1, dtype=np.int64)
        next_row = np.full((n_sw, fcount), n_sw, dtype=np.int64)
        next_lat = np.zeros((n_sw, fcount), dtype=np.int64)
        for fid in flow_ids:
            f = fidx[fid]
            path = self.router.route(fid).path
            # Walk the actual links hop by hop, starting from the host's
            # single port, so parallel links resolve to the right ports.
            node, port = path[0], 0
            for hop in range(1, len(path)):
                link = topo.link_at(node, port)
                if link is None:
                    raise ValueError(f"{node} port {port} is not connected")
                peer, peer_port = link.endpoint(node)
                if peer != path[hop]:
                    raise AssertionError(
                        f"flow {fid}: link from {node} reaches {peer}, "
                        f"path expects {path[hop]}"
                    )
                last = hop == len(path) - 1
                if node != path[0]:
                    s1 = self._switch_index[node]
                    next_row[s1, f] = n_sw if last else self._switch_index[peer]
                    next_lat[s1, f] = link.latency
                if not last:
                    s2 = self._switch_index[peer]
                    port = self.router.output_port(peer, fid)
                    in_port[s2, f], out_port[s2, f] = peer_port, port
                node = peer

        voq_single = np.full((n_sw, width, width), -2, dtype=np.int64)
        is_multi = np.zeros((n_sw, fcount), dtype=bool)
        multi_voqs = []
        credit_ports = []
        for s, name in enumerate(self._switch_names):
            members: Dict[Tuple[int, int], List[int]] = {}
            for f in np.nonzero(in_port[s] >= 0)[0].tolist():
                key = (int(in_port[s, f]), int(out_port[s, f]))
                members.setdefault(key, []).append(f)
            shared = []
            for (i, j), flows_here in members.items():
                if len(flows_here) == 1:
                    voq_single[s, i, j] = flows_here[0]
                else:
                    voq_single[s, i, j] = -1
                    is_multi[s, flows_here] = True
                    shared.append((i, j))
            multi_voqs.append(tuple(shared))
            peers = []
            for j in range(ports[s]):
                peer = topo.peer(name, j)
                if peer is not None and topo.node(peer[0]).is_switch:
                    peers.append((j, self._switch_index[peer[0]], peer[1]))
            credit_ports.append(tuple(np.array(peers, dtype=np.int64).reshape(-1, 3).T))

        n_h = len(self._host_order)
        width_h = max((len(self._host_flows[h]) for h in self._host_order), default=1)
        host_fids = np.zeros((n_h, width_h), dtype=np.int64)
        greedy = np.zeros((n_h, width_h), dtype=bool)
        rates = np.zeros((n_h, width_h), dtype=np.float64)
        stoch_col = np.zeros((n_h, width_h), dtype=np.int64)
        host_flows, stoch_count, host_row, host_port, host_lat = (
            np.zeros(n_h, dtype=np.int64) for _ in range(5)
        )
        for h, host in enumerate(self._host_order):
            flows = self._host_flows[host]
            host_flows[h] = len(flows)
            for c, flow in enumerate(flows):
                host_fids[h, c] = fidx[flow.flow_id]
                if flow.rate >= 1.0:
                    greedy[h, c] = True
                else:
                    rates[h, c] = flow.rate
                    stoch_col[h, c] = stoch_count[h]
                    stoch_count[h] += 1
            link = topo.link_at(host, 0)
            if link is None:
                raise ValueError(f"source host {host} is not connected")
            peer, host_port[h] = link.endpoint(host)
            host_row[h] = self._switch_index.get(peer, n_sw)  # n_sw: a host
            host_lat[h] = link.latency

        self._fabric = _Fabric(
            ports=ports,
            in_port=in_port,
            out_port=out_port,
            is_multi=is_multi,
            voq_single=voq_single,
            multi_voqs=tuple(multi_voqs),
            next_row=next_row,
            next_lat=next_lat,
            credit_ports=tuple(credit_ports),
            host_names=tuple(self._host_order),
            host_fids=host_fids,
            host_flows=host_flows,
            greedy=greedy,
            rates=rates,
            stoch_col=stoch_col,
            stoch_count=stoch_count,
            host_row=host_row,
            host_port=host_port,
            host_lat=host_lat,
            ring_slots=max((link.latency for link in topo.links), default=1) + 1,
        )
        return self._fabric

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def run(
        self,
        slots: int,
        warmup: int = 0,
        record_series: bool = False,
        check: bool = False,
        phase_timer=None,
    ) -> NetworkFastpathResult:
        """Simulate ``slots`` slots across all replicas.

        Parameters
        ----------
        slots, warmup:
            Run length and transient-elimination window, as the object
            backend's :meth:`~repro.network.netsim.NetworkSimulator.run`.
        record_series:
            Collect replica 0's per-slot
            injection/delivery/transfer/backlog series (the
            :class:`NetworkSeries` the parity oracle compares against
            object-backend :class:`~repro.network.netsim.NetworkSlotRecord`
            records).  Costs a few scalar reads per slot.
        check:
            Assert conservation/non-negativity invariants every slot
            (tests only; slows the run).
        phase_timer:
            Optional :class:`repro.obs.perf.PhaseTimer`; profiles the
            run under the shared taxonomy (``run`` root with
            ``run/compile`` plan compilation + scheduler construction,
            ``run/delivery`` link deliveries landing, ``run/arrivals``
            host injection, ``run/kernel`` per-switch scheduling and
            transfer, ``run/update`` delay/series/check accounting).
        """
        timer = (
            phase_timer
            if phase_timer is not None and phase_timer.enabled
            else NULL_PHASE_TIMER
        )
        with timer.phase("run"):
            return self._run(timer, slots, warmup, record_series, check)

    def _run(
        self,
        timer,
        slots: int,
        warmup: int,
        record_series: bool,
        check: bool,
    ) -> NetworkFastpathResult:
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        if not 0 <= warmup <= slots:
            raise ValueError(f"warmup must be in [0, {slots}], got {warmup}")
        with timer.phase("compile"):
            fab = self._compile()
            flow_ids = list(self._flows)
            fcount = len(flow_ids)
            n_sw = len(fab.ports)
            B = self.replicas
            limit = self.buffer_limit
            R = fab.ring_slots

            streams = RandomStreams(self.seed)
            scheds = []
            for name, ports in zip(self._switch_names, fab.ports):
                sched_seed = int(streams.get(f"sched:{name}").integers(2**31))
                scheds.append(
                    build_batch_scheduler(
                        self.scheduler,
                        replicas=B,
                        ports=ports,
                        iterations=self.iterations,
                        accept=self.accept,
                        rng=np.random.default_rng(sched_seed),
                        track_sizes=False,
                    )
                )

        width = fab.voq_single.shape[1]
        occ = np.zeros((n_sw, B, width, width), dtype=np.int64)
        queued = np.zeros((n_sw, B, fcount), dtype=np.int64)
        ring = np.zeros((R, n_sw + 1, B, fcount), dtype=np.int64)
        matches = np.empty((n_sw, B, width), dtype=np.int64)
        deques: List[Dict[Tuple[int, int], List[deque]]] = [
            {key: [deque() for _ in range(B)] for key in shared}
            for shared in fab.multi_voqs
        ]

        # Replica 0 consumes the object simulator's host:{h} stream;
        # extra replicas get independent derived streams.  Each host's
        # pool holds k uniforms per slot for up to a chunk of slots.
        host_gens = [
            [
                streams.get(f"host:{name}" if b == 0 else f"host:{name}/replica{b}")
                for b in range(B)
            ]
            for name in fab.host_names
        ]
        n_h, width_h = fab.host_fids.shape
        pool_len = (fab.stoch_count * min(_HOST_CHUNK_SLOTS, slots))[:, None]
        pool = np.zeros((n_h, B, max(int(pool_len.max(initial=0)), 1)))
        pool_cursor = np.repeat(pool_len, B, axis=1)
        refillable = pool_len > 0
        pending = np.zeros((n_h, B, width_h), dtype=np.int64)
        cursor_rr = np.zeros((n_h, B), dtype=np.int64)
        credited = np.nonzero(fab.host_row < n_sw)[0]
        credit_row, credit_port = fab.host_row[credited], fab.host_port[credited]
        host_ix = np.arange(n_h)[:, None, None]
        replica_ix = np.arange(B)[None, :, None]
        flow_offsets = np.arange(width_h)[None, None, :]
        stoch_col, rates = fab.stoch_col[:, None, :], fab.rates[:, None, :]
        greedy, host_flows = fab.greedy[:, None, :], fab.host_flows[:, None, None]

        injected = np.zeros((B, fcount), dtype=np.int64)
        delivered_total = np.zeros((B, fcount), dtype=np.int64)
        delivered_window = np.zeros((B, fcount), dtype=np.int64)
        delay_cells = np.zeros((B, fcount), dtype=np.int64)
        delay_integral = np.zeros((B, fcount), dtype=np.int64)
        in_system_warm = np.zeros((B, fcount), dtype=np.int64)
        cold_outstanding = np.zeros((B, fcount), dtype=np.int64)

        if record_series:
            series_inj = np.zeros((slots, fcount), dtype=np.int64)
            series_del = np.zeros((slots, fcount), dtype=np.int64)
            series_xfer = np.zeros((slots, n_sw), dtype=np.int64)
            series_backlog = np.zeros((slots, n_sw), dtype=np.int64)

        for t in range(slots):
            # -- 1. Link deliveries land: switch arrivals buffer, host
            #       arrivals (ring row S) complete end to end.
            with timer.phase("delivery"):
                landing = ring[t % R]
                ss, bb, ff = np.nonzero(landing)
                if ss.size:
                    if record_series:
                        series_del[t] = landing[n_sw, 0]
                    landing[:] = 0
                    split = np.searchsorted(ss, n_sw)  # host rows sort last
                    ss, hb, hf = ss[:split], bb[split:], ff[split:]
                    bb, ff = bb[:split], ff[:split]
                    # One cell per link direction per slot means at most
                    # one arrival per (switch, replica, input): the
                    # indices are unique and plain fancy increments are
                    # safe.
                    ii, jj = fab.in_port[ss, ff], fab.out_port[ss, ff]
                    occ[ss, bb, ii, jj] += 1
                    pre = queued[ss, bb, ff]
                    queued[ss, bb, ff] = pre + 1
                    # A shared VOQ's flow becomes eligible on empty -> non-empty.
                    for x in np.nonzero(fab.is_multi[ss, ff] & (pre == 0))[0].tolist():
                        deques[ss[x]][ii[x], jj[x]][bb[x]].append(int(ff[x]))
                    delivered_total[hb, hf] += 1
                    if t >= warmup:
                        delivered_window[hb, hf] += 1
                    cold = cold_outstanding[hb, hf] > 0
                    cold_outstanding[hb, hf] -= cold
                    delay_cells[hb, hf] += ~cold
                    in_system_warm[hb, hf] -= ~cold

            # -- 2. Every host injects at most one cell (credit-checked
            #       first; a blocked host consumes no draws, like the
            #       object), picking round-robin among its ready flows.
            with timer.phase("arrivals"):
                ready = np.ones((n_h, B), dtype=bool)
                if limit is not None:
                    load = occ[credit_row, :, credit_port, :].sum(axis=-1)
                    ready[credited] = load < limit
                for h, b in zip(*np.nonzero((pool_cursor >= pool_len) & refillable)):
                    pool[h, b, :pool_len[h, 0]] = host_gens[h][b].random(pool_len[h, 0])
                    pool_cursor[h, b] = 0
                take = pool_cursor[:, :, None] + stoch_col
                pending += (pool[host_ix, replica_ix, take] < rates) & ready[:, :, None]
                pool_cursor += fab.stoch_count[:, None] * ready
                elig = (greedy | (pending > 0)) & ready[:, :, None]
                offs = (flow_offsets - cursor_rr[:, :, None]) % host_flows
                pick = np.where(elig, offs, width_h).argmin(axis=2)
                eh, eb = np.nonzero(elig.any(axis=2))
                if eh.size:
                    pk = pick[eh, eb]
                    cursor_rr[eh, eb] = (pk + 1) % fab.host_flows[eh]
                    pending[eh, eb, pk] -= ~fab.greedy[eh, pk]
                    fsel = fab.host_fids[eh, pk]
                    injected[eb, fsel] += 1
                    (in_system_warm if t >= warmup else cold_outstanding)[eb, fsel] += 1
                    ring[(t + fab.host_lat[eh]) % R, fab.host_row[eh], eb, fsel] += 1
                    if record_series:
                        series_inj[t, fsel[eb == 0]] += 1

            # -- 3. Switches schedule sequentially in topology order.
            #       Departures are applied once all have scheduled, so a
            #       credit check at a switch's turn subtracts the cells
            #       earlier switches already matched out of the peer input.
            with timer.phase("kernel"):
                requests = occ > 0
                matches.fill(-1)
                for s, sched in enumerate(scheds):
                    n = fab.ports[s]
                    req = requests[s, :, :n, :n]
                    if limit is not None:
                        out_j, peer_s, peer_p = fab.credit_ports[s]
                        load = occ[peer_s, :, peer_p, :].sum(axis=-1)
                        load -= matches[peer_s, :, peer_p] >= 0
                        req[:, :, out_j] &= (load < limit).T[:, None, :]
                    if not req.any():
                        continue  # zero scheduling rounds run either way: no draws
                    # Occupancy-blind kernels ignore the queue depths.
                    matches[s, :, :n] = sched.schedule(req, occ[s, :, :n, :n])
                ss, bb, ii = np.nonzero(matches >= 0)
                if ss.size:
                    jj = matches[ss, bb, ii]
                    occ[ss, bb, ii, jj] -= 1
                    fsel = fab.voq_single[ss, ii, jj]
                    shared = np.nonzero(fsel < 0)[0].tolist()
                    voqs = [deques[ss[x]][ii[x], jj[x]][bb[x]] for x in shared]
                    for x, voq in zip(shared, voqs):
                        fsel[x] = voq.popleft()
                    queued[ss, bb, fsel] -= 1
                    for x, voq in zip(shared, voqs):
                        if queued[ss[x], bb[x], fsel[x]] > 0:
                            voq.append(int(fsel[x]))  # cells left: rotate to the back
                    lat, row = fab.next_lat[ss, fsel], fab.next_row[ss, fsel]
                    ring[(t + lat) % R, row, bb, fsel] += 1
                if record_series:
                    series_xfer[t] = np.bincount(ss[bb == 0], minlength=n_sw)

            with timer.phase("update"):
                delay_integral += in_system_warm
                if record_series:
                    series_backlog[t] = occ[:, 0].sum(axis=(1, 2))
                if check:
                    negative = np.nonzero((occ < 0).any(axis=(1, 2, 3)))[0]
                    if negative.size:
                        name = self._switch_names[negative[0]]
                        raise AssertionError(f"negative VOQ occupancy at {name}")
                    buffered = occ.sum(axis=(0, 2, 3))
                    in_flight = ring.sum(axis=(0, 1, 3))
                    if not np.array_equal(
                        injected.sum(axis=1),
                        delivered_total.sum(axis=1) + buffered + in_flight,
                    ):
                        raise AssertionError(
                            f"cell conservation violated at slot {t}"
                        )
                    mismatch = np.nonzero(
                        (occ.sum(axis=(2, 3)) != queued.sum(axis=2)).any(axis=1)
                    )[0]
                    if mismatch.size:
                        raise AssertionError(
                            f"VOQ/per-flow count mismatch at "
                            f"{self._switch_names[mismatch[0]]}"
                        )

        series = None
        if record_series:
            series = NetworkSeries(
                flow_ids=flow_ids,
                switch_names=list(self._switch_names),
                injected=series_inj,
                delivered=series_del,
                transfers=series_xfer,
                backlog=series_backlog,
            )
        return NetworkFastpathResult(
            flow_ids=flow_ids,
            replicas=B,
            slots=slots,
            warmup=warmup,
            delivered=delivered_window,
            injected=injected,
            delay_cells=delay_cells,
            delay_integral=delay_integral,
            final_backlog=occ.sum(axis=(0, 2, 3)),
            series=series,
        )


def run_fastpath_network(
    topology: Topology,
    flows: List[FlowSpec],
    slots: int,
    replicas: int = 1,
    warmup: int = 0,
    seed: Optional[int] = 0,
    buffer_limit: Optional[int] = None,
    scheduler: str = "pim",
    record_series: bool = False,
    check: bool = False,
    phase_timer=None,
) -> NetworkFastpathResult:
    """Build a :class:`NetworkFastpath`, add ``flows``, and run it."""
    sim = NetworkFastpath(
        topology, replicas=replicas, seed=seed, buffer_limit=buffer_limit,
        scheduler=scheduler,
    )
    for flow in flows:
        sim.add_flow(flow)
    return sim.run(
        slots,
        warmup=warmup,
        record_series=record_series,
        check=check,
        phase_timer=phase_timer,
    )
