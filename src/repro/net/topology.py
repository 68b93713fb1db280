"""Topology construction and equal-cost route computation.

Builders create the switch graph (leaf-spine per §5's evaluation setup, or
a 3-tier fat-tree per the §4 memory example) and return a
:class:`Topology`.  NIC devices are attached afterwards — the topology only
reserves *slots* (which ToR a NIC id lives under) so the RNIC layer stays
decoupled from wiring.

Routes are computed by per-destination-rack BFS over the switch graph:
``switch.routes[dst_nic]`` holds every egress port that lies on a shortest
path, which is exactly the equal-cost candidate set ECMP/AR/spraying choose
from.  Builders wire inter-switch links in a fixed order so candidate list
index ``i`` is a stable *path index* (on a leaf-spine ToR, candidate ``i``
is the uplink to spine ``i``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.net.link import Link
from repro.net.node import Device
from repro.net.port import Port
from repro.sim.engine import Simulator, US
from repro.switch.switch import Switch

SwitchFactory = Callable[[str], Switch]


class Topology:
    """Switch graph + NIC attachment slots + route tables."""

    def __init__(self, sim: Simulator, name: str = "topo") -> None:
        self.sim = sim
        self.name = name
        self.switches: list[Switch] = []
        self.tors: list[Switch] = []
        #: nic id -> ToR switch it attaches under
        self.nic_tor: dict[int, Switch] = {}
        #: nic id -> (host link bandwidth, delay)
        self._nic_link: dict[int, tuple[float, int]] = {}
        #: nic id -> ToR's egress port toward that NIC (after attach)
        self.tor_down_port: dict[int, Port] = {}
        #: switch -> [(egress port, neighbor switch)]
        self._adjacency: dict[Switch, list[tuple[Port, Switch]]] = {}
        #: every cable in wiring order: fabric links then host links
        self.links: list[Link] = []
        self._link_by_name: dict[str, Link] = {}
        self._routes_built = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_switch(self, switch: Switch, is_tor: bool = False) -> Switch:
        self.switches.append(switch)
        self._adjacency[switch] = []
        if is_tor:
            self.tors.append(switch)
        return switch

    def connect_switches(self, a: Switch, b: Switch,
                         bandwidth_bps: float, delay_ns: int) -> None:
        """Create the bidirectional link ``a <-> b``."""
        port_ab = a.add_port(bandwidth_bps, delay_ns)
        port_ab.connect(b)
        port_ba = b.add_port(bandwidth_bps, delay_ns)
        port_ba.connect(a)
        self._adjacency[a].append((port_ab, b))
        self._adjacency[b].append((port_ba, a))
        self._register_link(Link(a.name, b.name, port_ab, port_ba,
                                 kind="fabric"))

    def register_nic_slot(self, nic_id: int, tor: Switch,
                          bandwidth_bps: float, delay_ns: int) -> None:
        if nic_id in self.nic_tor:
            raise ValueError(f"NIC {nic_id} already registered")
        self.nic_tor[nic_id] = tor
        self._nic_link[nic_id] = (bandwidth_bps, delay_ns)
        tor.down_nics.add(nic_id)

    @property
    def num_nics(self) -> int:
        return len(self.nic_tor)

    def attach_nic(self, nic_id: int, nic: Device) -> Port:
        """Wire a NIC device into its slot; returns the NIC's uplink port."""
        tor = self.nic_tor[nic_id]
        bandwidth, delay = self._nic_link[nic_id]
        down = tor.add_port(bandwidth, delay)
        down.connect(nic)
        self.tor_down_port[nic_id] = down
        up = Port(self.sim, nic, bandwidth_bps=bandwidth, delay_ns=delay)
        up.connect(tor)
        self._register_link(Link(tor.name, nic.name, down, up,
                                 kind="host"))
        return up

    def _register_link(self, link: Link) -> None:
        self.links.append(link)
        self._link_by_name[link.name] = link

    def link(self, name: str) -> Link:
        """Look up a cable by ``"a:b"`` name; either ordering works."""
        found = self._link_by_name.get(name)
        if found is None and ":" in name:
            a, b = name.split(":", 1)
            found = self._link_by_name.get(f"{b}:{a}")
        if found is None:
            raise LookupError(f"no link named {name!r} "
                              f"(known: {sorted(self._link_by_name)})")
        return found

    def links_of(self, device_name: str) -> list[Link]:
        """Every cable incident to the named device (switch or NIC)."""
        return [ln for ln in self.links
                if device_name in (ln.a_name, ln.b_name)]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """Populate every switch's equal-cost route table.

        Must run after all NICs are attached (down ports must exist).
        Administratively-down links (``port.up == False``) are excluded,
        so re-running this after failures models routing convergence.
        """
        missing = set(self.nic_tor) - set(self.tor_down_port)
        if missing:
            raise RuntimeError(f"NICs not attached yet: {sorted(missing)}")
        nics_by_tor: dict[Switch, list[int]] = {}
        for nic_id, tor in self.nic_tor.items():
            nics_by_tor.setdefault(tor, []).append(nic_id)

        degraded = any(not port.up for ports in self._adjacency.values()
                       for port, _ in ports)
        for switch in self.switches:
            switch.routes = {}
            switch.routes_degraded = degraded
        for tor, nic_ids in nics_by_tor.items():
            dist = self._bfs_distances(tor)
            for switch in self.switches:
                if switch is tor:
                    for nic_id in nic_ids:
                        switch.routes[nic_id] = [self.tor_down_port[nic_id]]
                    continue
                if switch not in dist:
                    continue  # disconnected
                next_hops = [port for port, nbr in self._adjacency[switch]
                             if port.up
                             and dist.get(nbr, -1) == dist[switch] - 1]
                if not next_hops:
                    continue
                for nic_id in nic_ids:
                    switch.routes[nic_id] = next_hops
        self._routes_built = True

    def _bfs_distances(self, root: Switch) -> dict[Switch, int]:
        """Hop counts to ``root`` over *live* links.

        Distance is measured in the forwarding direction: an edge
        ``node -> root-side`` is usable only if the transmitting port
        (the one on ``nbr`` toward ``node``... forwarding goes node->nbr)
        is up.  Since links fail in both directions here, checking the
        reverse port is equivalent; we check the forwarding port at
        route-construction time instead.
        """
        dist = {root: 0}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for port, nbr in self._adjacency[node]:
                if not port.up:
                    continue
                if nbr not in dist:
                    dist[nbr] = dist[node] + 1
                    queue.append(nbr)
        return dist

    def path_count(self, src_nic: int, dst_nic: int) -> int:
        """Number of distinct shortest switch paths between two NICs.

        This is the ``N`` of Eq. 1: Themis's control plane configures each
        ToR with the equal-cost path count per destination rack.
        """
        src_tor = self.nic_tor[src_nic]
        dst_tor = self.nic_tor[dst_nic]
        if src_tor is dst_tor:
            return 1
        dist = self._bfs_distances(dst_tor)
        counts: dict[Switch, int] = {dst_tor: 1}

        def count(node: Switch) -> int:
            if node in counts:
                return counts[node]
            total = sum(count(nbr) for _, nbr in self._adjacency[node]
                        if dist.get(nbr, -1) == dist[node] - 1)
            counts[node] = total
            return total

        return count(src_tor)

    def equal_paths(self, src_nic: int, dst_nic: int) -> int:
        """Equal-cost *first-hop* fan-out at the source ToR.

        On a 2-tier leaf-spine this equals :meth:`path_count`; on deeper
        topologies it is the ToR's uplink count.
        """
        src_tor = self.nic_tor[src_nic]
        routes = src_tor.routes.get(dst_nic)
        if routes is None:
            raise LookupError(f"no route {src_nic}->{dst_nic}")
        return len(routes)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def leaf_spine(sim: Simulator, switch_factory: SwitchFactory, *,
               num_tors: int, num_spines: int, nics_per_tor: int,
               link_bandwidth_bps: float, link_delay_ns: int = US,
               host_bandwidth_bps: Optional[float] = None,
               host_delay_ns: Optional[int] = None) -> Topology:
    """2-tier leaf-spine with 1:1 subscription by default.

    NIC ids are assigned ``tor_index * nics_per_tor + slot``; ToR uplink
    ``i`` goes to spine ``i`` on every ToR, so candidate index == spine
    index == path index fabric-wide.
    """
    if num_tors < 1 or num_spines < 1 or nics_per_tor < 1:
        raise ValueError("topology dimensions must be >= 1")
    host_bandwidth_bps = host_bandwidth_bps or link_bandwidth_bps
    host_delay_ns = host_delay_ns if host_delay_ns is not None else link_delay_ns

    topo = Topology(sim, "leaf-spine")
    tors = [topo.add_switch(switch_factory(f"tor{i}"), is_tor=True)
            for i in range(num_tors)]
    spines = [topo.add_switch(switch_factory(f"spine{i}"))
              for i in range(num_spines)]
    for tor in tors:
        for spine in spines:
            topo.connect_switches(tor, spine, link_bandwidth_bps,
                                  link_delay_ns)
    nic_id = 0
    for tor in tors:
        for _ in range(nics_per_tor):
            topo.register_nic_slot(nic_id, tor, host_bandwidth_bps,
                                   host_delay_ns)
            nic_id += 1
    return topo


def fat_tree(sim: Simulator, switch_factory: SwitchFactory, *, k: int,
             link_bandwidth_bps: float, link_delay_ns: int = US,
             nics_per_tor: Optional[int] = None) -> Topology:
    """3-tier fat-tree with parameter ``k`` (k pods, k^3/4 hosts max).

    ``nics_per_tor`` trims hosts per edge switch (defaults to k/2).
    """
    if k < 2 or k % 2:
        raise ValueError("fat-tree k must be even and >= 2")
    half = k // 2
    nics_per_tor = nics_per_tor if nics_per_tor is not None else half
    if nics_per_tor > half:
        raise ValueError(f"nics_per_tor must be <= k/2 = {half}")

    topo = Topology(sim, f"fat-tree-k{k}")
    cores = [[topo.add_switch(switch_factory(f"core{g}_{i}"))
              for i in range(half)] for g in range(half)]
    nic_id = 0
    for pod in range(k):
        aggs = [topo.add_switch(switch_factory(f"agg{pod}_{a}"))
                for a in range(half)]
        edges = [topo.add_switch(switch_factory(f"edge{pod}_{e}"),
                                 is_tor=True) for e in range(half)]
        for a, agg in enumerate(aggs):
            # Aggregation switch `a` of every pod connects to core group `a`.
            for core in cores[a]:
                topo.connect_switches(agg, core, link_bandwidth_bps,
                                      link_delay_ns)
            for edge in edges:
                topo.connect_switches(edge, agg, link_bandwidth_bps,
                                      link_delay_ns)
        for edge in edges:
            for _ in range(nics_per_tor):
                topo.register_nic_slot(nic_id, edge, link_bandwidth_bps,
                                       link_delay_ns)
                nic_id += 1
    return topo


def dragonfly(sim: Simulator, switch_factory: SwitchFactory, *,
              groups: int, routers_per_group: int, hosts_per_router: int,
              global_links_per_router: int = 1,
              link_bandwidth_bps: float, link_delay_ns: int = US,
              host_bandwidth_bps: Optional[float] = None,
              host_delay_ns: Optional[int] = None) -> Topology:
    """Canonical dragonfly: complete graph inside each group, one (or
    more) global links between every group pair.

    The low-diameter habitat path-aware LBs (Spritz) target: minimal
    routes often have *one* candidate per hop while non-minimal/valiant
    diversity hides behind unequal path quality, so the interesting LB
    decisions happen at the few multi-candidate hops (source router,
    group gateways) where backlog state matters more than uniformity.

    Every router is a ToR (hosts attach to all routers).  NIC ids are
    ``(group * routers_per_group + router) * hosts_per_router + slot``.
    Group pair ``x < y`` is wired from router ``(y-1) // g`` of group
    ``x`` to router ``x // g`` of group ``y`` (``g`` = global links per
    router) — the standard palmtree arrangement, which spreads the
    ``groups - 1`` global links of a group evenly across its routers.
    Requires ``groups - 1 <= routers_per_group * global_links_per_router``.
    """
    if groups < 2:
        raise ValueError("dragonfly needs >= 2 groups")
    if routers_per_group < 1 or hosts_per_router < 1 \
            or global_links_per_router < 1:
        raise ValueError("topology dimensions must be >= 1")
    if groups - 1 > routers_per_group * global_links_per_router:
        raise ValueError(
            f"{groups} groups need {groups - 1} global links per group "
            f"but only {routers_per_group} routers x "
            f"{global_links_per_router} global ports are available")
    host_bandwidth_bps = host_bandwidth_bps or link_bandwidth_bps
    host_delay_ns = host_delay_ns if host_delay_ns is not None else link_delay_ns

    topo = Topology(sim, f"dragonfly-g{groups}")
    routers = [[topo.add_switch(switch_factory(f"df{g}_{r}"), is_tor=True)
                for r in range(routers_per_group)] for g in range(groups)]
    # Intra-group: complete graph.
    for group in routers:
        for i in range(routers_per_group):
            for j in range(i + 1, routers_per_group):
                topo.connect_switches(group[i], group[j],
                                      link_bandwidth_bps, link_delay_ns)
    # Inter-group: palmtree global links.
    glpr = global_links_per_router
    for x in range(groups):
        for y in range(x + 1, groups):
            a = routers[x][((y - 1) // glpr) % routers_per_group]
            b = routers[y][(x // glpr) % routers_per_group]
            topo.connect_switches(a, b, link_bandwidth_bps, link_delay_ns)
    nic_id = 0
    for group in routers:
        for router in group:
            for _ in range(hosts_per_router):
                topo.register_nic_slot(nic_id, router, host_bandwidth_bps,
                                       host_delay_ns)
                nic_id += 1
    return topo
