"""Static shortest-path routing.

Routes are computed once, after the topology is built, with a plain
:mod:`heapq` Dijkstra over the node graph, weighted by link propagation
delay.  Every router gets a ``destination host -> next-hop link`` entry for
every host it can reach.  The paper assumes relatively stable paths (§7,
"ECMP"), so one static table per topology is sufficient.

Equal-cost ties are broken deterministically, the same way networkx's
``single_source_dijkstra_path`` breaks them: heap entries carry an insertion
counter, a node's path is replaced only by a strictly shorter one, and a
node's outgoing links are scanned in the order they were first attached (a
second link between the same pair replaces the first in place).  So of two
equal-delay paths, the one through the earlier-attached link wins.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Dict, Iterable, List, Set

from repro.simulator.link import Link
from repro.simulator.node import Host, Node, Router

#: ``src name -> {dst name -> link}``, in link attachment order.
Adjacency = Dict[str, Dict[str, Link]]


def _shortest_paths(adjacency: Adjacency, source: str) -> Dict[str, List[str]]:
    """Delay-weighted shortest path (as a node-name list) from ``source`` to
    every node it reaches, ``source`` itself included as ``[source]``."""
    paths: Dict[str, List[str]] = {source: [source]}
    done: Set[str] = set()
    seen: Dict[str, float] = {source: 0.0}
    tie = count()
    fringe = [(0.0, next(tie), source)]
    while fringe:
        dist, _, node = heapq.heappop(fringe)
        if node in done:
            continue
        done.add(node)
        for nxt, link in adjacency.get(node, {}).items():
            if nxt in done:
                continue
            nxt_dist = dist + link.delay_s
            if nxt not in seen or nxt_dist < seen[nxt]:
                seen[nxt] = nxt_dist
                heapq.heappush(fringe, (nxt_dist, next(tie), nxt))
                paths[nxt] = paths[node] + [nxt]
    return paths


def build_routes(nodes: Iterable[Node], links: Iterable[Link]) -> None:
    """Populate every router's routing table in place.

    Args:
        nodes: all nodes in the topology (hosts and routers).
        links: all unidirectional links.
    """
    nodes = list(nodes)
    links = list(links)
    adjacency: Adjacency = {}
    for link in links:
        adjacency.setdefault(link.src_node.name, {})[link.dst_node.name] = link

    hosts = [n for n in nodes if isinstance(n, Host)]
    routers = [n for n in nodes if isinstance(n, Router)]
    for router in routers:
        paths = _shortest_paths(adjacency, router.name)
        for host in hosts:
            path = paths.get(host.name)
            if path is not None and len(path) >= 2:
                router.add_route(host.name, adjacency[router.name][path[1]])

    # Register locally attached hosts so access routers can tell their own
    # senders apart from transit traffic.
    for link in links:
        if isinstance(link.src_node, Host) and isinstance(link.dst_node, Router):
            link.dst_node.register_local_host(link.src_node.name)
