"""Tests for hosts, routers, routing, and topology construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.node import Router
from repro.simulator.packet import Packet
from repro.simulator.topology import Topology, dumbbell_layout, parking_lot_layout
from repro.simulator.trace import ThroughputMonitor
from repro.transport.udp import UdpSender, UdpSink


def build_line_topology():
    """a --- R1 --- R2 --- b"""
    topo = Topology()
    topo.add_host("a", as_name="AS-a")
    topo.add_host("b", as_name="AS-b")
    topo.add_router("R1", as_name="AS-a")
    topo.add_router("R2", as_name="AS-b")
    topo.add_duplex_link("a", "R1", 10e6, 0.001)
    topo.add_duplex_link("R1", "R2", 10e6, 0.001)
    topo.add_duplex_link("R2", "b", 10e6, 0.001)
    topo.finalize()
    return topo


def test_routing_tables_point_toward_destinations():
    topo = build_line_topology()
    r1 = topo.router("R1")
    assert r1.route_for(Packet(src="a", dst="b")).dst_node.name == "R2"
    assert r1.route_for(Packet(src="b", dst="a")).dst_node.name == "a"


def test_local_hosts_registered_on_access_router():
    topo = build_line_topology()
    assert "a" in topo.router("R1").local_hosts
    assert "b" in topo.router("R2").local_hosts
    assert "a" not in topo.router("R2").local_hosts


def test_end_to_end_delivery_through_routers():
    topo = build_line_topology()
    monitor = ThroughputMonitor(topo.clock)
    UdpSink(topo.clock, topo.host("b"), monitor=monitor)
    sender = UdpSender(topo.clock, topo.host("a"), "b", rate_bps=1e6)
    sender.start()
    topo.run(until=1.0)
    assert monitor.records["a"].packets_received > 50


def test_packet_to_unknown_destination_is_dropped():
    topo = build_line_topology()
    r1 = topo.router("R1")
    before = r1.packets_dropped
    r1.receive(Packet(src="a", dst="nowhere"), None)
    assert r1.packets_dropped == before + 1


def test_admit_from_host_false_drops_packet():
    class DenyRouter(Router):
        def admit_from_host(self, packet, from_link):
            return False

    topo = Topology()
    topo.add_host("a", as_name="A")
    topo.add_host("b", as_name="B")
    topo.add_router("R", router_cls=DenyRouter)
    topo.add_duplex_link("a", "R", 1e6, 0.001)
    topo.add_duplex_link("R", "b", 1e6, 0.001)
    topo.finalize()
    sink = UdpSink(topo.clock, topo.host("b"))
    UdpSender(topo.clock, topo.host("a"), "b", rate_bps=1e6).start()
    topo.run(until=0.5)
    assert sink.packets_received == 0


def test_host_orphan_packets_counted():
    topo = build_line_topology()
    host = topo.host("b")
    host.receive(Packet(src="a", dst="b", flow_id="no-agent"), None)
    assert host.orphan_packets == 1


def test_host_outbound_filter_can_swallow():
    topo = build_line_topology()
    host = topo.host("a")
    host.outbound_filters.append(lambda packet: False)
    host.send(Packet(src="a", dst="b"))
    assert host.packets_sent == 0


def test_host_inbound_filter_can_swallow():
    topo = build_line_topology()
    host = topo.host("b")
    host.inbound_filters.append(lambda packet: False)
    host.receive(Packet(src="a", dst="b"), None)
    assert host.orphan_packets == 0  # swallowed before agent dispatch


def test_host_source_as_filled_on_send():
    topo = build_line_topology()
    host = topo.host("a")
    packet = Packet(src="a", dst="b")
    host.send(packet)
    assert packet.src_as == "AS-a"


def test_duplicate_node_name_rejected():
    topo = Topology()
    topo.add_host("x")
    with pytest.raises(ValueError):
        topo.add_host("x")


def test_host_and_router_lookup_type_checked():
    topo = build_line_topology()
    with pytest.raises(TypeError):
        topo.host("R1")
    with pytest.raises(TypeError):
        topo.router("a")


def test_dumbbell_layout_structure():
    topo = Topology()
    layout = dumbbell_layout(topo, num_source_as=3, hosts_per_as=2, num_receivers=2,
                             bottleneck_bps=1e6)
    assert len(layout.senders) == 6
    assert len(layout.access_routers) == 3
    assert len(layout.receivers) == 2
    assert layout.bottleneck_link.capacity_bps == 1e6
    # Every sender must route through the bottleneck to reach the receivers.
    ra0 = topo.router("Ra0")
    link = ra0.route_for(Packet(src=layout.senders[0], dst=layout.receivers[0]))
    assert link.dst_node.name == "Rbl"


def test_parking_lot_layout_structure():
    topo = Topology()
    layout = parking_lot_layout(topo, hosts_per_group=2, l1_bps=1e6, l2_bps=2e6)
    assert len(layout.group_a) == len(layout.group_b) == len(layout.group_c) == 2
    assert layout.bottleneck1.capacity_bps == 1e6
    assert layout.bottleneck2.capacity_bps == 2e6
    # Group A reaches its receivers through both bottlenecks.
    r1 = topo.router("R1")
    first_hop = r1.route_for(Packet(src="a0", dst=layout.receivers_ab[0]))
    assert first_hop.dst_node.name == "R2"
    r2 = topo.router("R2")
    second_hop = r2.route_for(Packet(src="a0", dst=layout.receivers_ab[0]))
    assert second_hop.dst_node.name == "R3"
    # Group C traffic leaves the parking lot at R2.
    hop_c = r1.route_for(Packet(src="c0", dst=layout.receivers_c[0]))
    assert hop_c.dst_node.name == "R2"


# -- shortest-path routing ------------------------------------------------


def _diamond(first_via: str, delay_a: float = 0.002, delay_b: float = 0.002) -> Topology:
    """R0 -> {RA, RB} -> R3 -> h, with R0's link to ``first_via`` attached first."""
    topo = Topology()
    for name in ("R0", "RA", "RB", "R3"):
        topo.add_router(name)
    topo.add_host("h")
    delays = {"RA": delay_a, "RB": delay_b}
    second_via = "RB" if first_via == "RA" else "RA"
    for via in (first_via, second_via):
        topo.add_link("R0", via, 1e6, delays[via])
    for via in ("RA", "RB"):
        topo.add_link(via, "R3", 1e6, 0.001)
    topo.add_duplex_link("R3", "h", 1e6, 0.001)
    topo.finalize()
    return topo


@pytest.mark.parametrize("first_via", ["RA", "RB"])
def test_equal_cost_tie_goes_to_first_attached_link(first_via):
    topo = _diamond(first_via)
    assert topo.router("R0").routes["h"].dst_node.name == first_via


def test_strictly_shorter_path_beats_attachment_order():
    topo = _diamond("RA", delay_a=0.003, delay_b=0.002)
    assert topo.router("R0").routes["h"].dst_node.name == "RB"


def test_readded_link_keeps_its_original_tie_break_slot():
    topo = Topology()
    for name in ("R0", "RA", "RB", "R3"):
        topo.add_router(name)
    topo.add_host("h")
    topo.add_link("R0", "RA", 1e6, 0.002)
    topo.add_link("R0", "RB", 1e6, 0.002)
    readded = topo.add_link("R0", "RA", 2e6, 0.002)
    for via in ("RA", "RB"):
        topo.add_link(via, "R3", 1e6, 0.001)
    topo.add_duplex_link("R3", "h", 1e6, 0.001)
    topo.finalize()
    # RA still wins the tie, and the route uses the latest R0->RA link.
    assert topo.router("R0").routes["h"] is readded


def test_zero_delay_links_route():
    topo = Topology()
    topo.add_host("a")
    topo.add_host("b")
    for name in ("R1", "R2", "R3"):
        topo.add_router(name)
    topo.add_duplex_link("a", "R1", 1e6, 0.0)
    topo.add_duplex_link("R1", "R2", 1e6, 0.0)
    topo.add_duplex_link("R1", "R3", 1e6, 0.0)
    topo.add_duplex_link("R2", "R3", 1e6, 0.0)
    topo.add_duplex_link("R3", "b", 1e6, 0.0)
    topo.finalize()
    # Every path to b costs 0: R1 keeps the path it found first (the
    # direct R1->R3 link), since R1->R2->R3 is no shorter.
    assert topo.router("R1").routes["b"].dst_node.name == "R3"
    assert topo.router("R2").routes["b"].dst_node.name == "R3"
    assert topo.router("R3").routes["a"].dst_node.name == "R1"


def test_unreachable_host_gets_no_route():
    topo = Topology()
    topo.add_host("a")
    topo.add_host("b")
    topo.add_host("island")
    topo.add_router("R1")
    topo.add_router("R2")
    topo.add_duplex_link("a", "R1", 1e6, 0.001)
    topo.add_duplex_link("R1", "R2", 1e6, 0.001)
    topo.add_link("R2", "b", 1e6, 0.001)  # b can receive but not send
    topo.finalize()
    r1, r2 = topo.router("R1"), topo.router("R2")
    assert "island" not in r1.routes and "island" not in r2.routes
    assert r1.route_for(Packet(src="a", dst="island")) is None
    assert r1.routes["b"].dst_node.name == "R2"
    assert "b" not in topo.router("R2").local_hosts


_DELAYS = st.one_of(st.sampled_from([0.0, 0.001, 0.002]),
                    st.floats(min_value=0.0, max_value=0.01))


@st.composite
def _random_topologies(draw):
    """Node names (routers first) plus directed ``(src, dst, delay)`` links,
    with heavy delay ties, zero delays and repeated node pairs."""
    routers = [f"R{i}" for i in range(draw(st.integers(1, 5)))]
    hosts = [f"h{i}" for i in range(draw(st.integers(1, 4)))]
    names = routers + hosts
    links = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names), _DELAYS),
                          max_size=20))
    return routers, hosts, links


def test_routes_match_networkx_dijkstra_oracle():
    nx = pytest.importorskip("networkx")

    @settings(max_examples=300, deadline=None)
    @given(_random_topologies())
    def check(case):
        routers, hosts, specs = case
        topo = Topology()
        for name in routers:
            topo.add_router(name)
        for name in hosts:
            topo.add_host(name)
        graph = nx.DiGraph()
        graph.add_nodes_from(topo.nodes)
        last_link = {}
        for src, dst, delay in specs:
            link = topo.add_link(src, dst, 1e6, delay)
            graph.add_edge(src, dst, weight=delay)
            last_link[(src, dst)] = link
        topo.finalize()
        for name in routers:
            paths = nx.single_source_dijkstra_path(graph, name, weight="weight")
            expected = {host: last_link[(name, paths[host][1])]
                        for host in hosts if len(paths.get(host, ())) >= 2}
            assert topo.router(name).routes == expected

    check()
