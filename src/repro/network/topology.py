"""Network topology: switches, hosts, and full-duplex links.

Each link is point-to-point between a switch port and either a host
controller or another switch's port (Section 2).  The i-th input and
i-th output of a switch share one full-duplex fiber, which is why a
single port index identifies both directions here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Topology", "Node", "Link"]


@dataclass(frozen=True)
class Node:
    """A network node: a switch with N ports, or a single-port host."""

    name: str
    kind: str  # "switch" or "host"
    ports: int

    @property
    def is_switch(self) -> bool:
        """True for switches, False for hosts."""
        return self.kind == "switch"


@dataclass(frozen=True)
class Link:
    """A full-duplex link between two node ports."""

    a: str
    a_port: int
    b: str
    b_port: int
    latency: int = 1

    def endpoint(self, node: str) -> Tuple[str, int]:
        """The (peer, peer_port) seen from ``node``."""
        if node == self.a:
            return self.b, self.b_port
        if node == self.b:
            return self.a, self.a_port
        raise ValueError(f"{node} is not an endpoint of this link")


class Topology:
    """A graph of switches and hosts joined by point-to-point links.

    >>> topo = Topology()
    >>> topo.add_switch("s1", ports=4)
    >>> topo.add_host("h1")
    >>> topo.connect("h1", "s1")
    >>> topo.shortest_path("h1", "h1")
    ['h1']
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, Node] = {}
        self._links: List[Link] = []
        # (node, port) -> Link
        self._port_map: Dict[Tuple[str, int], Link] = {}
        # Lookup tables derived from the graph, rebuilt after any change:
        # node -> neighbors in port order, (node, neighbor) -> first port.
        self._tables: Optional[
            Tuple[Dict[str, Tuple[str, ...]], Dict[Tuple[str, str], int]]
        ] = None

    def add_switch(self, name: str, ports: int) -> None:
        """Add an N-port switch."""
        if name in self._nodes:
            raise ValueError(f"duplicate node name: {name}")
        if ports <= 0:
            raise ValueError(f"ports must be positive, got {ports}")
        self._nodes[name] = Node(name, "switch", ports)
        self._tables = None

    def add_host(self, name: str) -> None:
        """Add a single-port host controller."""
        if name in self._nodes:
            raise ValueError(f"duplicate node name: {name}")
        self._nodes[name] = Node(name, "host", 1)
        self._tables = None

    def node(self, name: str) -> Node:
        """Look up a node (raises ``KeyError`` if absent)."""
        return self._nodes[name]

    @property
    def nodes(self) -> List[Node]:
        """All nodes."""
        return list(self._nodes.values())

    @property
    def links(self) -> List[Link]:
        """All links."""
        return list(self._links)

    def switches(self) -> List[Node]:
        """All switch nodes."""
        return [n for n in self._nodes.values() if n.is_switch]

    def hosts(self) -> List[Node]:
        """All host nodes."""
        return [n for n in self._nodes.values() if not n.is_switch]

    def _free_port(self, name: str) -> int:
        node = self._nodes[name]
        for port in range(node.ports):
            if (name, port) not in self._port_map:
                return port
        raise ValueError(f"no free port on {name}")

    def connect(
        self,
        a: str,
        b: str,
        a_port: Optional[int] = None,
        b_port: Optional[int] = None,
        latency: int = 1,
    ) -> Link:
        """Join two nodes with a link; ports auto-assign when omitted."""
        if a not in self._nodes or b not in self._nodes:
            missing = a if a not in self._nodes else b
            raise KeyError(f"unknown node: {missing}")
        if latency < 1:
            raise ValueError(f"link latency must be >= 1 slot, got {latency}")
        if a_port is None:
            a_port = self._free_port(a)
        if b_port is None:
            b_port = self._free_port(b)
        for name, port in ((a, a_port), (b, b_port)):
            if port >= self._nodes[name].ports or port < 0:
                raise ValueError(f"port {port} out of range on {name}")
            if (name, port) in self._port_map:
                raise ValueError(f"port {port} on {name} already connected")
        link = Link(a, a_port, b, b_port, latency)
        self._links.append(link)
        self._port_map[(a, a_port)] = link
        self._port_map[(b, b_port)] = link
        self._tables = None
        return link

    def link_at(self, name: str, port: int) -> Optional[Link]:
        """The link attached to (node, port), or None."""
        return self._port_map.get((name, port))

    def peer(self, name: str, port: int) -> Optional[Tuple[str, int]]:
        """The (peer, peer_port) across the link at (node, port)."""
        link = self.link_at(name, port)
        return link.endpoint(name) if link else None

    def _lookups(
        self,
    ) -> Tuple[Dict[str, Tuple[str, ...]], Dict[Tuple[str, str], int]]:
        if self._tables is None:
            toward: Dict[Tuple[str, str], int] = {}
            for (name, port), link in self._port_map.items():
                toward.setdefault((name, link.endpoint(name)[0]), port)
            adjacency = {
                name: tuple(
                    self._port_map[(name, port)].endpoint(name)[0]
                    for port in range(node.ports)
                    if (name, port) in self._port_map
                )
                for name, node in self._nodes.items()
            }
            self._tables = (adjacency, toward)
        return self._tables

    def port_toward(self, name: str, neighbor: str) -> int:
        """The port on ``name`` whose link leads to ``neighbor``.

        Raises ``ValueError`` if they are not adjacent (first match
        wins when there are parallel links: the earliest connected).
        """
        port = self._lookups()[1].get((name, neighbor))
        if port is None:
            raise ValueError(f"{name} has no link to {neighbor}")
        return port

    def neighbors(self, name: str) -> List[str]:
        """Adjacent node names, in port order."""
        return list(self._lookups()[0][name])

    def shortest_path(self, src: str, dst: str) -> Optional[List[str]]:
        """BFS shortest path (by hop count) from ``src`` to ``dst``."""
        if src not in self._nodes or dst not in self._nodes:
            missing = src if src not in self._nodes else dst
            raise KeyError(f"unknown node: {missing}")
        if src == dst:
            return [src]
        adjacency = self._lookups()[0]
        parents: Dict[str, str] = {}
        queue = deque([src])
        seen = {src}
        while queue:
            current = queue.popleft()
            for neighbor in adjacency[current]:
                if neighbor in seen:
                    continue
                parents[neighbor] = current
                if neighbor == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                seen.add(neighbor)
                queue.append(neighbor)
        return None
