"""Flow network construction and solvers.

Networks have the fixed shape source -> users -> apps -> sink.  Source
arcs carry each user's demand, app->sink arcs carry the app caps, and a
user->app arc (capacity = the user's demand) exists for every
preinstalled edge plus every activated dashed edge passed in.  Arc insertion order is
deterministic (users ascending, then apps ascending per user), so flows
are reproducible.

max_flow runs a shortest-augmenting-path/blocking-flow scheme on int64
arrays (numba-compiled when available).  min_cost_max_flow runs
successive shortest paths with potentials in plain Python: costs are
integer-scaled rationals and Python integers never overflow, so results
are exact.  solvers.lp_lower_bound does not use it; it is an
independent way to compute that bound, which the tests compare with.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .model import Instance

__all__ = [
    "FlowNetwork",
    "MaxFlowResult",
    "MinCostFlowResult",
    "build_network",
    "max_flow",
    "feasible",
    "min_cost_max_flow",
    "to_dot",
]


@dataclass
class FlowNetwork:
    """Residual graph in paired-arc form (arc i's reverse is i ^ 1).

    Mutable single-threaded state: solvers update arc_cap in place.
    base_cap keeps the pre-solve capacities so per-arc flows can be
    recovered as base_cap - arc_cap on forward (even) arcs.
    """

    num_nodes: int
    source: int
    sink: int
    num_users: int
    num_apps: int
    arc_to: np.ndarray
    arc_cap: np.ndarray
    base_cap: np.ndarray
    adj_indptr: np.ndarray
    adj_arcs: np.ndarray
    # (arc id, user index, app index, is_dashed) for each user->app forward arc
    edge_arcs: list = field(default_factory=list)
    arc_cost: "list[int] | None" = None
    cost_den: int = 1

    @property
    def num_arcs(self) -> int:
        return int(self.arc_to.size)

    def user_node(self, u: int) -> int:
        return 1 + u

    def app_node(self, a: int) -> int:
        return 1 + self.num_users + a

    def reset(self) -> None:
        np.copyto(self.arc_cap, self.base_cap)


def _normalize_active(inst: Instance, active) -> list[tuple[int, int]]:
    out = []
    seen = set()
    for user, app in active:
        u = inst.user_index(user)
        a = int(app)
        if not 0 <= a < inst.num_apps:
            raise ValueError("app id out of range in active set: %d" % a)
        if inst.is_solid(u, a):
            raise ValueError(
                "active set contains a preinstalled edge (%r, %d)" % (inst.user_ids[u], a)
            )
        if (u, a) in seen:
            continue
        seen.add((u, a))
        out.append((u, a))
    out.sort()
    return out


def build_network(inst: Instance, active=(), activation_costs: bool = False) -> FlowNetwork:
    """Assemble the network for an instance and a set of activated edges.

    active: iterable of (user id or index, app id) dashed pairs.
    activation_costs=True attaches cost L // demand to each dashed arc (L
    the lcm of the distinct demands), cost 0 elsewhere; cost_den is set to
    L so true rational costs are arc_cost / cost_den.
    """
    pairs = _normalize_active(inst, active)
    n = inst.num_users
    m = inst.num_apps
    num_nodes = n + m + 2
    source = 0
    sink = num_nodes - 1

    lcm = 1
    if activation_costs:
        for t in sorted(set(int(d) for d in inst.demands)):
            lcm = lcm * t // math.gcd(lcm, t)

    arc_to: list[int] = []
    arc_cap: list[int] = []
    arc_cost: list[int] = [] if activation_costs else None
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    edge_arcs: list[tuple[int, int, int, bool]] = []

    def add_arc(frm, to, cap, cost=0):
        aid = len(arc_to)
        arc_to.append(to)
        arc_cap.append(cap)
        arc_to.append(frm)
        arc_cap.append(0)
        if arc_cost is not None:
            arc_cost.append(cost)
            arc_cost.append(-cost)
        adj[frm].append(aid)
        adj[to].append(aid + 1)
        return aid

    for u in range(n):
        add_arc(source, 1 + u, int(inst.demands[u]))

    active_by_user: dict[int, list[int]] = {}
    for u, a in pairs:
        active_by_user.setdefault(u, []).append(a)
    for u in range(n):
        demand = int(inst.demands[u])
        solid = [(int(a), False) for a in inst.preinstalled_of(u)]
        dashed = [(a, True) for a in active_by_user.get(u, [])]
        for a, is_dashed in sorted(solid + dashed):
            cost = (lcm // demand) if (activation_costs and is_dashed) else 0
            aid = add_arc(1 + u, 1 + n + a, demand, cost)
            edge_arcs.append((aid, u, a, is_dashed))

    for a in range(m):
        add_arc(1 + n + a, sink, int(inst.capacities[a]))

    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    for v in range(num_nodes):
        indptr[v + 1] = indptr[v] + len(adj[v])
    flat = np.empty(int(indptr[-1]), dtype=np.int64)
    pos = 0
    for v in range(num_nodes):
        for aid in adj[v]:
            flat[pos] = aid
            pos += 1

    cap = np.asarray(arc_cap, dtype=np.int64)
    return FlowNetwork(
        num_nodes=num_nodes,
        source=source,
        sink=sink,
        num_users=n,
        num_apps=m,
        arc_to=np.asarray(arc_to, dtype=np.int64),
        arc_cap=cap,
        base_cap=cap.copy(),
        adj_indptr=indptr,
        adj_arcs=flat,
        edge_arcs=edge_arcs,
        arc_cost=arc_cost,
        cost_den=lcm if activation_costs else 1,
    )


@dataclass
class MaxFlowResult:
    value: int
    arc_flows: np.ndarray  # per-arc flow; reverse (odd) arcs hold 0


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Maximum s->t flow; consumes the network (arc_cap becomes residual)."""
    value = _kernels.dinic_kernel(
        net.num_nodes,
        net.arc_to,
        net.arc_cap,
        net.adj_indptr,
        net.adj_arcs,
        net.source,
        net.sink,
    )
    flows = np.maximum(net.base_cap - net.arc_cap, 0)
    flows[1::2] = 0
    return MaxFlowResult(value=int(value), arc_flows=flows)


def feasible(inst: Instance, active=()) -> bool:
    """Can the full demand be routed with these activated edges?"""
    net = build_network(inst, active)
    return max_flow(net).value == inst.total_demand


@dataclass
class MinCostFlowResult:
    value: int
    cost: Fraction
    arc_flows: np.ndarray


def min_cost_max_flow(net: FlowNetwork) -> MinCostFlowResult:
    """Minimum-cost maximum flow by successive shortest paths.

    Requires non-negative arc costs (as build_network produces).  All
    arithmetic is on Python integers, so the scaled costs are exact at any
    magnitude; the reported cost is a Fraction over cost_den.
    """
    n = net.num_nodes
    arc_to = net.arc_to.tolist()
    cap = net.arc_cap.tolist()
    cost = net.arc_cost if net.arc_cost is not None else [0] * len(arc_to)
    indptr = net.adj_indptr.tolist()
    arcs = net.adj_arcs.tolist()
    src, dst = net.source, net.sink

    potential = [0] * n
    value = 0
    while True:
        dist = [None] * n
        parent_arc = [-1] * n
        dist[src] = 0
        heap = [(0, src)]
        while heap:
            d, v = heapq.heappop(heap)
            if dist[v] is not None and d > dist[v]:
                continue
            for idx in range(indptr[v], indptr[v + 1]):
                e = arcs[idx]
                if cap[e] <= 0:
                    continue
                w = arc_to[e]
                nd = d + cost[e] + potential[v] - potential[w]
                if dist[w] is None or nd < dist[w]:
                    dist[w] = nd
                    parent_arc[w] = e
                    heapq.heappush(heap, (nd, w))
        if dist[dst] is None:
            break
        dcap = dist[dst]
        for v in range(n):
            if dist[v] is not None:
                potential[v] += dist[v] if dist[v] < dcap else dcap

        bott = None
        v = dst
        while v != src:
            e = parent_arc[v]
            if bott is None or cap[e] < bott:
                bott = cap[e]
            v = arc_to[e ^ 1]
        v = dst
        while v != src:
            e = parent_arc[v]
            cap[e] -= bott
            cap[e ^ 1] += bott
            v = arc_to[e ^ 1]
        value += bott

    np.copyto(net.arc_cap, np.asarray(cap, dtype=np.int64))
    flows = np.maximum(net.base_cap - net.arc_cap, 0)
    flows[1::2] = 0
    total_scaled = 0
    for e in range(0, len(arc_to), 2):
        f = int(flows[e])
        if f and cost[e]:
            total_scaled += f * cost[e]
    return MinCostFlowResult(
        value=value,
        cost=Fraction(total_scaled, net.cost_den),
        arc_flows=flows,
    )


def to_dot(net: FlowNetwork, user_ids=None) -> str:
    """DOT rendering of a network for documentation figures."""
    lines = ["digraph meaf {", "  rankdir=LR;", '  s [shape=circle];', '  t [shape=circle];']

    def name(v):
        if v == net.source:
            return "s"
        if v == net.sink:
            return "t"
        if 1 <= v <= net.num_users:
            u = v - 1
            if user_ids is not None:
                return '"%s"' % user_ids[u]
            return "u%d" % u
        return "a%d" % (v - 1 - net.num_users)

    dashed_arcs = {aid for aid, _, _, is_dashed in net.edge_arcs if is_dashed}
    for e in range(0, net.num_arcs, 2):
        frm = int(net.arc_to[e ^ 1])
        to = int(net.arc_to[e])
        label = str(int(net.base_cap[e]))
        if net.arc_cost is not None and net.arc_cost[e]:
            label += ", %s" % Fraction(net.arc_cost[e], net.cost_den)
        style = ' style=dashed' if e in dashed_arcs else ""
        lines.append('  %s -> %s [label="%s"%s];' % (name(frm), name(to), label, style))
    lines.append("}")
    return "\n".join(lines) + "\n"
