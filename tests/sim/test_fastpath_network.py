"""Tests for the whole-fabric vectorized network fast path.

The load-bearing guarantee is slot-exact parity with the object
:class:`repro.network.netsim.NetworkSimulator` at B=1 -- both backends
consume the same named RNG streams in the same order, so every
injection, transfer, delivery, and backlog count must match exactly on
every bundled topology.  The rest covers the batched (B>1) invariants,
determinism, warm-up accounting, and the fuzz-case JSON format.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from repro.check.differential import network_parity
from repro.check.fuzz import NetworkCase, run_network_case
from repro.network.netsim import FlowSpec
from repro.network.topologies import TOPOLOGIES, build, parking_lot
from repro.sim.fastpath_network import NetworkFastpath, run_fastpath_network
from repro.sim.rng import derive_seed


def _parking_lot_flows(rate=0.5):
    topo, sources, sink = parking_lot(3)
    flows = [
        FlowSpec(k + 1, src, sink, rate) for k, src in enumerate(sources)
    ]
    return topo, flows


class TestObjectParity:
    """Slot-exact B=1 parity on every bundled topology."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_bundled_topology(self, topology):
        network_parity(topology=topology, size=3, n_flows=4, slots=200, seed=1)

    def test_with_credit_limit(self):
        network_parity(
            topology="parking_lot", n_flows=4, slots=250, seed=2, buffer_limit=4
        )

    def test_with_link_latency(self):
        network_parity(topology="chain", n_flows=4, slots=250, seed=3, latency=3)

    def test_host_draws_cross_a_pool_refill(self):
        # Hosts draw their uniforms in pools of at most 1024 slots; every
        # flow here is stochastic and never blocked, so 1100 slots refill
        # each pool mid-run.
        network_parity(topology="parking_lot", n_flows=4, slots=1100, seed=0)

    def test_with_warmup(self):
        network_parity(topology="campus", n_flows=4, slots=250, seed=4, warmup=50)


class TestBatchedRun:
    def test_invariants_checked_across_replicas(self):
        # check=True asserts per-slot cell conservation and
        # occupancy/queued agreement inside the run.
        topo, flows = _parking_lot_flows()
        result = run_fastpath_network(
            topo, flows, 300, replicas=16, seed=0, check=True
        )
        assert result.replicas == 16
        assert result.injected.shape == (16, len(flows))

    def test_replicas_differ_but_pool_sensibly(self):
        topo, flows = _parking_lot_flows(rate=0.5)
        result = run_fastpath_network(topo, flows, 2000, replicas=8, seed=0)
        # Independent replicas should not all be identical...
        assert len({int(row.sum()) for row in result.delivered}) > 1
        # ...but the pooled per-flow throughput stays near the offered
        # rate for the last-merge flow, which sees no contention.
        assert result.throughput(4) == pytest.approx(0.5, abs=0.06)

    def test_conservation_with_credit_limit(self):
        topo, flows = _parking_lot_flows(rate=1.0)
        result = run_fastpath_network(
            topo, flows, 400, replicas=8, seed=5, buffer_limit=2, check=True
        )
        # Saturated and credit-limited: backlog is bounded by the
        # credit limit times the number of outputs, not the load.
        assert result.final_backlog.max() <= 2 * 4 * len(topo.switches())

    def test_shares_sum_to_one(self):
        topo, flows = _parking_lot_flows(rate=1.0)
        result = run_fastpath_network(topo, flows, 500, replicas=4, seed=1)
        assert sum(result.shares().values()) == pytest.approx(1.0)


class TestDeterminism:
    def test_same_seed_same_result(self):
        topo, flows = _parking_lot_flows()
        a = run_fastpath_network(topo, flows, 400, replicas=8, seed=7)
        b = run_fastpath_network(topo, flows, 400, replicas=8, seed=7)
        np.testing.assert_array_equal(a.delivered, b.delivered)
        np.testing.assert_array_equal(a.injected, b.injected)
        np.testing.assert_array_equal(a.delay_integral, b.delay_integral)

    def test_rerun_replays_exactly(self):
        # Unlike the object backend (whose PIM RNGs advance across
        # runs), the fast path derives fresh streams per run() call, so
        # a rerun on the same instance replays the first run.
        topo, flows = _parking_lot_flows()
        sim = NetworkFastpath(topo, replicas=4, seed=9)
        for flow in flows:
            sim.add_flow(flow)
        first = sim.run(300)
        second = sim.run(300)
        np.testing.assert_array_equal(first.delivered, second.delivered)

    def test_different_seeds_differ(self):
        topo, flows = _parking_lot_flows()
        a = run_fastpath_network(topo, flows, 400, replicas=4, seed=0)
        b = run_fastpath_network(topo, flows, 400, replicas=4, seed=1)
        assert not np.array_equal(a.delivered, b.delivered)

    def test_add_flow_after_run_recompiles(self):
        topo, sources, sink = parking_lot(3)
        sim = NetworkFastpath(topo, replicas=2, seed=3)
        sim.add_flow(FlowSpec(1, sources[0], sink, 0.5))
        before = sim.run(300)
        sim.add_flow(FlowSpec(2, sources[-1], sink, 0.5))
        after = sim.run(300)
        assert list(before.flow_ids) == [1]
        assert list(after.flow_ids) == [1, 2]
        assert int(after.delivered[:, 1].sum()) > 0


class TestWarmup:
    def test_window_and_delivered_accounting(self):
        topo, flows = _parking_lot_flows(rate=0.5)
        warm = run_fastpath_network(topo, flows, 1000, replicas=4, seed=2,
                                    warmup=400)
        cold = run_fastpath_network(topo, flows, 1000, replicas=4, seed=2)
        assert warm.window == 600 and cold.window == 1000
        # delivered counts only post-warm-up slots; injected counts all.
        assert warm.delivered.sum() < cold.delivered.sum()
        np.testing.assert_array_equal(warm.injected, cold.injected)

    def test_delay_counts_only_warm_cells(self):
        # Rate 0.15 x 4 flows keeps the sink link under load 1 so the
        # network drains and warm-injected cells actually deliver.
        topo, flows = _parking_lot_flows(rate=0.15)
        warm = run_fastpath_network(topo, flows, 1000, replicas=4, seed=2,
                                    warmup=400)
        cold = run_fastpath_network(topo, flows, 1000, replicas=4, seed=2)
        assert 0 < warm.delay_cells.sum() < cold.delay_cells.sum()
        for fid in warm.flow_ids:
            assert warm.mean_delay(fid) >= 1.0  # >= uncontended latency


class TestFuzzCase:
    def test_round_trips_through_json(self):
        case = NetworkCase(seed=11, topology="mesh", size=2, n_flows=4,
                          latency=2, buffer_limit=4, slots=120, warmup=25)
        assert NetworkCase(**json.loads(case.to_json())) == case

    def test_run_case_executes_parity(self):
        run_network_case(NetworkCase(seed=0))

    def test_zero_buffer_limit_means_unlimited(self):
        # buffer_limit=0 encodes None so the dataclass stays
        # JSON-primitive; the parity driver must translate it.
        run_network_case(NetworkCase(seed=1, buffer_limit=0, slots=120))


def golden_digest(topology, buffer_limit, scheduler, replicas):
    """SHA-256 prefix of every result array of one pinned batched run.

    Size-3 fabrics at link latency 2 with eight random flows (several
    hosts send more than one flow; mesh and campus mix 3/4/5-port
    switches), a 20-slot warm-up, and ``check=True`` so the per-slot
    invariants run too.
    """
    topo, hosts = build(topology, 3, latency=2)
    rng = np.random.default_rng(derive_seed(17, f"golden/{topology}"))
    flows = []
    for flow_id in range(1, 9):
        src, dst = rng.choice(len(hosts), size=2, replace=False)
        rate = float(rng.choice((1.0, 0.8, 0.5, 0.25)))
        flows.append(FlowSpec(flow_id, hosts[src], hosts[dst], rate))
    result = run_fastpath_network(
        topo, flows, 120, replicas=replicas, warmup=20, seed=5,
        buffer_limit=buffer_limit, scheduler=scheduler,
        record_series=True, check=True,
    )
    series = result.series
    digest = hashlib.sha256()
    for array in (
        result.delivered, result.injected, result.delay_cells,
        result.delay_integral, result.final_backlog, series.injected,
        series.delivered, series.transfers, series.backlog,
    ):
        digest.update(str(array.shape).encode())
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


GOLDEN_CONFIGS = list(itertools.product(
    ("mesh", "campus", "fat_tree"), (None, 1, 3), ("pim", "islip", "lqf"), (1, 4),
))

#: Pinned digests of :func:`golden_digest`; a change to any simulated
#: result at any B shows up here (B=1 parity alone cannot see B>1).
GOLDEN = {
    ('mesh', None, 'pim', 1): '21161df6aa900655',
    ('mesh', None, 'pim', 4): 'e9439f12bd001a66',
    ('mesh', None, 'islip', 1): 'c9e57d33bf4e8a20',
    ('mesh', None, 'islip', 4): '5797a366e4fc7a0d',
    ('mesh', None, 'lqf', 1): 'd4cf4728b791a7c2',
    ('mesh', None, 'lqf', 4): 'db394c694ee109f7',
    ('mesh', 1, 'pim', 1): '38b500cba28f338b',
    ('mesh', 1, 'pim', 4): '67a3ab3bed0fa58b',
    ('mesh', 1, 'islip', 1): 'bc801e93ef1e9920',
    ('mesh', 1, 'islip', 4): '4afcf0700afd0c9a',
    ('mesh', 1, 'lqf', 1): 'f05504a8dce2fc29',
    ('mesh', 1, 'lqf', 4): '76140e3f75a35789',
    ('mesh', 3, 'pim', 1): 'd6ae8989595ce546',
    ('mesh', 3, 'pim', 4): 'd22bb0fdfe3d48e6',
    ('mesh', 3, 'islip', 1): '58dec2837ec5c3f3',
    ('mesh', 3, 'islip', 4): 'b56e03d2395f88ea',
    ('mesh', 3, 'lqf', 1): '2398986e0f537a4d',
    ('mesh', 3, 'lqf', 4): 'a50598dbed36bc74',
    ('campus', None, 'pim', 1): '85bfe280da0f9be4',
    ('campus', None, 'pim', 4): '73623881a9f0b0e3',
    ('campus', None, 'islip', 1): 'bb78fb6446046393',
    ('campus', None, 'islip', 4): 'af3bdbcc44658a62',
    ('campus', None, 'lqf', 1): 'a2bf44efdee34365',
    ('campus', None, 'lqf', 4): '13b205b575602864',
    ('campus', 1, 'pim', 1): 'a9f063a6c55b56ab',
    ('campus', 1, 'pim', 4): '3d766ff02708d224',
    ('campus', 1, 'islip', 1): 'bfc0d144b0cc1818',
    ('campus', 1, 'islip', 4): '0b54face0023bce9',
    ('campus', 1, 'lqf', 1): 'e5ccfed85a6b048e',
    ('campus', 1, 'lqf', 4): 'a3cb961907c654ae',
    ('campus', 3, 'pim', 1): '1dabc79f2309c816',
    ('campus', 3, 'pim', 4): '67fc53d39783dc74',
    ('campus', 3, 'islip', 1): '28a84b530af724f4',
    ('campus', 3, 'islip', 4): '9925fd47b9455c32',
    ('campus', 3, 'lqf', 1): 'f760f987046857f9',
    ('campus', 3, 'lqf', 4): 'cdf66416f6b07308',
    ('fat_tree', None, 'pim', 1): '7f8819cee3a90333',
    ('fat_tree', None, 'pim', 4): '0efb1c0263ecd5a4',
    ('fat_tree', None, 'islip', 1): '509aa9c2fff08dfe',
    ('fat_tree', None, 'islip', 4): '4c38a1c47c1cfb30',
    ('fat_tree', None, 'lqf', 1): '08599ac029d4a17a',
    ('fat_tree', None, 'lqf', 4): 'cffb6496b85185c5',
    ('fat_tree', 1, 'pim', 1): '92e9f7c0fec00e87',
    ('fat_tree', 1, 'pim', 4): '3e3909f068105bf4',
    ('fat_tree', 1, 'islip', 1): 'fd80c40cb04bd357',
    ('fat_tree', 1, 'islip', 4): 'd045cb64a8ed44b1',
    ('fat_tree', 1, 'lqf', 1): 'ab49993d72b8c642',
    ('fat_tree', 1, 'lqf', 4): '10833c0ffff18f75',
    ('fat_tree', 3, 'pim', 1): '43fed498fd7d55a0',
    ('fat_tree', 3, 'pim', 4): '3089431107de1929',
    ('fat_tree', 3, 'islip', 1): '002847d826c1290a',
    ('fat_tree', 3, 'islip', 4): '3af421173316825c',
    ('fat_tree', 3, 'lqf', 1): 'b20573e60932d2c9',
    ('fat_tree', 3, 'lqf', 4): '7fa12896c48beb4e',
}


class TestGoldenResults:
    @pytest.mark.parametrize("config", GOLDEN_CONFIGS, ids=lambda c: "-".join(map(str, c)))
    def test_matches_pinned_digest(self, config):
        assert golden_digest(*config) == GOLDEN[config]
