"""Tests for the topology graph."""

import pytest

from repro.network.topology import Topology


def chain_topology():
    topo = Topology()
    topo.add_switch("s1", 4)
    topo.add_switch("s2", 4)
    topo.add_host("h1")
    topo.add_host("h2")
    topo.connect("h1", "s1")
    topo.connect("s1", "s2")
    topo.connect("s2", "h2")
    return topo


class TestTopologyConstruction:
    def test_duplicate_name_rejected(self):
        topo = Topology()
        topo.add_switch("x", 4)
        with pytest.raises(ValueError, match="duplicate node name"):
            topo.add_host("x")

    def test_invalid_ports(self):
        with pytest.raises(ValueError, match="positive"):
            Topology().add_switch("s", 0)

    def test_unknown_node_in_connect(self):
        topo = Topology()
        topo.add_host("h")
        with pytest.raises(KeyError, match="unknown node"):
            topo.connect("h", "nope")

    def test_port_auto_assignment(self):
        topo = Topology()
        topo.add_switch("s", 2)
        topo.add_host("a")
        topo.add_host("b")
        link1 = topo.connect("a", "s")
        link2 = topo.connect("b", "s")
        assert {link1.b_port, link2.b_port} == {0, 1}

    def test_no_free_port(self):
        topo = Topology()
        topo.add_switch("s", 1)
        topo.add_host("a")
        topo.add_host("b")
        topo.connect("a", "s")
        with pytest.raises(ValueError, match="no free port"):
            topo.connect("b", "s")

    def test_port_already_connected(self):
        topo = Topology()
        topo.add_switch("s", 4)
        topo.add_host("a")
        topo.add_host("b")
        topo.connect("a", "s", b_port=0)
        with pytest.raises(ValueError, match="already connected"):
            topo.connect("b", "s", b_port=0)

    def test_latency_validation(self):
        topo = Topology()
        topo.add_switch("s", 2)
        topo.add_host("a")
        with pytest.raises(ValueError, match="latency"):
            topo.connect("a", "s", latency=0)


class TestTopologyQueries:
    def test_peer(self):
        topo = chain_topology()
        link = topo.link_at("s1", topo.port_toward("s1", "s2"))
        assert link.endpoint("s1")[0] == "s2"

    def test_neighbors(self):
        topo = chain_topology()
        assert set(topo.neighbors("s1")) == {"h1", "s2"}

    def test_port_toward_unconnected(self):
        topo = chain_topology()
        with pytest.raises(ValueError, match="no link to"):
            topo.port_toward("s1", "h2")

    def test_link_added_after_lookup_is_seen(self):
        topo = chain_topology()
        assert topo.neighbors("s2") == ["s1", "h2"]
        with pytest.raises(ValueError, match="no link to"):
            topo.port_toward("s1", "h3")
        topo.add_host("h3")
        assert topo.neighbors("h3") == []
        link = topo.connect("s1", "h3")
        assert topo.port_toward("s1", "h3") == link.a_port
        assert topo.neighbors("s1") == ["h1", "s2", "h3"]
        assert topo.shortest_path("h3", "h2") == ["h3", "s1", "s2", "h2"]

    def test_parallel_links_first_connected_wins(self):
        topo = Topology()
        topo.add_switch("s1", 4)
        topo.add_switch("s2", 4)
        topo.connect("s1", "s2", a_port=3, b_port=0)
        assert topo.port_toward("s1", "s2") == 3
        # A later parallel link on a lower port does not take over.
        topo.connect("s1", "s2", a_port=1, b_port=2)
        assert topo.port_toward("s1", "s2") == 3
        assert topo.port_toward("s2", "s1") == 0
        assert topo.neighbors("s1") == ["s2", "s2"]

    def test_kinds(self):
        topo = chain_topology()
        assert {n.name for n in topo.switches()} == {"s1", "s2"}
        assert {n.name for n in topo.hosts()} == {"h1", "h2"}

    def test_shortest_path(self):
        topo = chain_topology()
        assert topo.shortest_path("h1", "h2") == ["h1", "s1", "s2", "h2"]

    def test_shortest_path_same_node(self):
        topo = chain_topology()
        assert topo.shortest_path("h1", "h1") == ["h1"]

    def test_shortest_path_disconnected(self):
        topo = chain_topology()
        topo.add_host("lonely")
        assert topo.shortest_path("h1", "lonely") is None

    def test_shortest_path_unknown_node(self):
        topo = chain_topology()
        with pytest.raises(KeyError, match="unknown node"):
            topo.shortest_path("h1", "ghost")

    def test_shortest_path_prefers_fewer_hops(self):
        topo = chain_topology()
        # Add a direct s1 <-> host2-adjacent switch shortcut.
        topo.add_switch("s3", 4)
        topo.connect("s1", "s3")
        topo.connect("s3", "h2", a_port=1, b_port=None) if False else None
        path = topo.shortest_path("h1", "h2")
        assert path == ["h1", "s1", "s2", "h2"]
